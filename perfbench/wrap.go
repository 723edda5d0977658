package main

import (
	"sort"
	"time"

	"aquatope/internal/bo"
	"aquatope/internal/pool"
	"aquatope/internal/resource"
	"aquatope/internal/sched"
	"aquatope/internal/telemetry"
)

// layerClock accumulates host time spent inside the public interfaces the
// benchmark wraps. It lives outside the program, so the program's
// deterministic dumps never see a wall-clock value.
type layerClock struct {
	fitCalls int
	fitBusy  time.Duration
	decides  []time.Duration
	steps    int
	stepBusy time.Duration
	samples  int
}

func (c *layerClock) decideBusy() time.Duration {
	var s time.Duration
	for _, d := range c.decides {
		s += d
	}
	return s
}

// busy is the host time spent inside all wrapped calls.
func (c *layerClock) busy() float64 {
	return (c.fitBusy + c.decideBusy() + c.stepBusy).Seconds()
}

// decideQuantile returns the q-quantile of the recorded Decide latencies
// (nearest rank), or 0 when none were recorded.
func (c *layerClock) decideQuantile(q float64) time.Duration {
	if len(c.decides) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), c.decides...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// timedScheduler wraps a registry scheduler so every resource manager
// and, with timePool, every pool policy it hands out is timed by clock.
type timedScheduler struct {
	sched.Scheduler
	clock *layerClock
	// timePool wraps the pool policies too. Serve leaves it off: a
	// checkpoint serializes a policy by its concrete type, so a wrapped
	// policy would be saved without its model.
	timePool bool
}

func (s timedScheduler) PoolSizer() sched.PoolSizer {
	ps := s.Scheduler.PoolSizer()
	if ps == nil || !s.timePool {
		return ps
	}
	return timedSizer{PoolSizer: ps, clock: s.clock}
}

func (s timedScheduler) Configurator() sched.Configurator {
	c := s.Scheduler.Configurator()
	if c == nil {
		return nil
	}
	return timedConfigurator{Configurator: c, clock: s.clock}
}

type timedSizer struct {
	sched.PoolSizer
	clock *layerClock
}

func (z timedSizer) Policy(fn string) pool.Policy {
	return timedPolicy{Policy: z.PoolSizer.Policy(fn), clock: z.clock}
}

type timedPolicy struct {
	pool.Policy
	clock *layerClock
}

func (p timedPolicy) Fit(data pool.FitData) {
	t0 := time.Now()
	p.Policy.Fit(data)
	p.clock.fitBusy += time.Since(t0)
	p.clock.fitCalls++
}

func (p timedPolicy) Decide(history []float64, minute int) pool.Decision {
	t0 := time.Now()
	d := p.Policy.Decide(history, minute)
	p.clock.decides = append(p.clock.decides, time.Since(t0))
	return d
}

type timedConfigurator struct {
	sched.Configurator
	clock *layerClock
}

func (c timedConfigurator) Manager(space *resource.Space, prof *resource.Profiler, qos float64, seed int64) resource.Manager {
	return timedManager{Manager: c.Configurator.Manager(space, prof, qos, seed), clock: c.clock}
}

// timedManager times Step. It forwards the optional Engine and SetTracer
// hooks that core.SearchComponent type-asserts: without them the wrapper
// would hide the BO engine and its bo.decision spans would silently vanish.
type timedManager struct {
	resource.Manager
	clock *layerClock
}

func (m timedManager) Step() int {
	t0 := time.Now()
	n := m.Manager.Step()
	m.clock.stepBusy += time.Since(t0)
	m.clock.steps++
	m.clock.samples += n
	return n
}

// Engine forwards the BO-engine accessor used to wire tracing.
func (m timedManager) Engine() *bo.Engine {
	if e, ok := m.Manager.(interface{ Engine() *bo.Engine }); ok {
		return e.Engine()
	}
	return nil
}

// SetTracer forwards the tracer hook non-BO configurators use.
func (m timedManager) SetTracer(t telemetry.Tracer) {
	if st, ok := m.Manager.(interface{ SetTracer(telemetry.Tracer) }); ok {
		st.SetTracer(t)
	}
}
