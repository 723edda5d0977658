package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"aquatope/internal/apps"
	"aquatope/internal/chaos"
	"aquatope/internal/core"
	"aquatope/internal/faas"
	"aquatope/internal/obs"
	"aquatope/internal/sched"
	"aquatope/internal/serve"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
	"aquatope/internal/trace"
	"aquatope/internal/workflow"
)

// programSeed seeds the program's own randomness (platform noise, search,
// training). It is fixed: --seed varies only the generated inputs.
const programSeed = 1

// Noise levels of the aquatope command's defaults.
var (
	profileNoise = faas.Noise{GaussianStd: 0.15, OutlierRate: 0.02, OutlierScale: 3}
	runtimeNoise = faas.Noise{GaussianStd: 0.1, OutlierRate: 0.01, OutlierScale: 3}
)

// size is a workload's input size at scale 1. Self-tests shrink minutes
// and budget through options.scale; the arrival rate stays.
type size struct {
	minutes, trainMin int
	ratePerMin        float64 // per application
	budget            int     // phase-1 profiling samples per application
}

func (z size) scaled(f float64) size {
	if f == 1 {
		return z
	}
	z.minutes = max(10, int(float64(z.minutes)*f))
	z.trainMin = max(5, int(float64(z.trainMin)*f))
	z.budget = max(6, int(float64(z.budget)*f))
	return z
}

// workload is one set of inputs the benchmark drives through the program.
type workload struct {
	name string
	// why records what the workload isolates; BENCHMARK.json repeats it.
	why  string
	size size
	// setup generates the inputs from the seed.
	setup func(z size, seed int64) (*inputs, error)
	// run performs one measured operation on the inputs.
	run func(in *inputs, dir string) (*opRun, error)
	// checks verifies outputs once per benchmark run, given a measured
	// operation; it may run reference operations of its own.
	checks func(in *inputs, op *opRun) ([]check, error)
}

// inputs are what setup hands the program: traces or a record stream.
type inputs struct {
	size   size
	comps  []core.Component
	app    *apps.App // serve
	stream []byte    // serve: JSONL arrival stream
	recs   int
}

// opRun is what one measured operation produced.
type opRun struct {
	hostS float64
	// res is the simulated outcome, reported and checked.
	res core.Result
	// replayS is the host time of the run that produced res, and busyS
	// the part of it spent inside the wrapped controller calls (not set
	// for serve, whose pool policies are not wrapped).
	replayS, busyS float64
	reg            *telemetry.Registry
	col            *telemetry.Collector
	clock          layerClock
	srv            *serveRun
	// ref is the untraced replay of the same inputs (fleet_traced).
	ref *opRun
}

// untracedRef returns the untraced replay of op's inputs, running it on
// first use only.
func (op *opRun) untracedRef(in *inputs) (*opRun, error) {
	if op.ref == nil {
		ref, err := runFleet(in, false)
		if err != nil {
			return nil, err
		}
		op.ref = ref
	}
	return op.ref, nil
}

// serveRun holds the live-mode figures of one serve operation.
type serveRun struct {
	records, replayed          int
	ingestS, restoreS, resumeS float64
	ckptFiles                  int
	ckptBytes, finalBytes      int64
	journalBytes               int64
	resumedEqual               bool
	resumeErr                  string
}

// check is one output verification; failed checks count toward failed.
type check struct {
	name string
	ok   bool
	msg  string
}

// workloads lists the benchmark's workloads in the order BENCHMARK.json
// names them. The prediction table for them is in README.md.
var workloads = []*workload{
	{
		// Nearly all work is in sim/faas/workflow: no training, no
		// search. Four apps mean many functions and containers, which
		// is what the faas utilization scan and the event heap scale
		// with. It is the bypass workload for controller changes.
		name:   "fleet",
		why:    "4-app open-loop replay, no scheduler and no tracing: stresses sim/faas/workflow only",
		size:   size{minutes: 200, trainMin: 60, ratePerMin: 25},
		setup:  setupFleet,
		run:    func(in *inputs, _ string) (*opRun, error) { return runFleet(in, false) },
		checks: checkFleet,
	},
	{
		// The same replay with the span collector on (what the CLI's
		// -trace-out does): the only workload where telemetry does most
		// of the work.
		name:   "fleet_traced",
		why:    "a 300-minute fleet replay with the span collector on: the workload where telemetry dominates",
		size:   size{minutes: 120, trainMin: 40, ratePerMin: 25},
		setup:  setupFleet,
		run:    func(in *inputs, _ string) (*opRun, error) { return runFleet(in, true) },
		checks: checkFleetTraced,
	},
	{
		// The paper's controller on one app: work runs through
		// resource/bo/gp (search), pool->bayesnn/nn (Fit) and the
		// per-minute Monte Carlo Decide; sim is a small share, so it is
		// the bypass workload for fleet-path changes.
		name:   "controller",
		why:    "aquatope scheduler on mlpipeline: BO search, BNN training and per-minute pool decisions",
		size:   size{minutes: 180, trainMin: 60, ratePerMin: 20, budget: 30},
		setup:  setupController,
		run:    func(in *inputs, _ string) (*opRun, error) { return runController(in) },
		checks: checkController,
	},
	{
		// The live loop: checkpoint, journal and restore run only here,
		// and faas/workflow run under a burst, an invoker crash, sheds
		// and retries instead of clean traffic.
		name:   "serve",
		why:    "live serve loop with a checkpoint per minute, killed at 55% under chaos, restored and resumed",
		size:   size{minutes: 120, trainMin: 45, ratePerMin: 20, budget: 24},
		setup:  setupServe,
		run:    runServe,
		checks: checkServe,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(names, ", "))
}

// genTrace draws one application's arrivals with trace.Synthesize, then
// drops or adds arrivals (fixCount) so the training prefix holds
// exactly rate*trainMin of them and the rest of the trace exactly
// rate*(minutes-trainMin): every seed gives the program the same amount of
// work on both sides of the cut, and the seed moves only its timing and
// burstiness.
//
// The gap CV is drawn as trace.AzureLikeEnsemble draws it (the spread of
// the paper's Azure functions); the diurnal swing is the aquatope
// command's. The window is centred on the diurnal curve's rising mean
// crossing, so its mean rate is the nominal one.
func genTrace(rate float64, minutes, trainMin int, rng *stats.RNG) (*trace.Trace, error) {
	start := trace.MinutesPerDay/4 - minutes/2
	if start < 0 {
		start += trace.MinutesPerDay
	}
	tr := trace.Synthesize(trace.GenConfig{
		DurationMin:    minutes,
		MeanRatePerMin: rate,
		Diurnal:        0.6,
		CV:             rng.LogNormal(0.4, 0.7),
		TriggerType:    rng.Intn(trace.NumTriggerTypes),
		StartMinute:    start,
		Seed:           rng.Int63(),
	})
	cut := float64(trainMin) * 60
	i := sort.SearchFloat64s(tr.Arrivals, cut)
	train, err := fixCount(tr.Arrivals[:i], cut, int(math.Round(rate*float64(trainMin))), rng)
	if err != nil {
		return nil, err
	}
	test, err := fixCount(tr.Arrivals[i:], float64(minutes)*60, int(math.Round(rate*float64(minutes-trainMin))), rng)
	if err != nil {
		return nil, err
	}
	tr.Arrivals = append(train, test...)
	return tr, nil
}

// fixCount returns the sorted arrivals arr, all before end, with
// uniformly chosen ones dropped, or with new ones added, each uniformly
// inside the gap after a uniformly chosen arrival, so that exactly n
// remain. Added arrivals follow the existing ones, so bursts stay bursts.
func fixCount(arr []float64, end float64, n int, rng *stats.RNG) ([]float64, error) {
	if len(arr) == 0 {
		return nil, fmt.Errorf("no arrivals to draw %d from", n)
	}
	if len(arr) >= n {
		drop := make([]bool, len(arr))
		for k := len(arr) - n; k > 0; {
			if i := rng.Intn(len(arr)); !drop[i] {
				drop[i] = true
				k--
			}
		}
		out := make([]float64, 0, n)
		for i, t := range arr {
			if !drop[i] {
				out = append(out, t)
			}
		}
		return out, nil
	}
	out := append(make([]float64, 0, n), arr...)
	for len(out) < n {
		i := rng.Intn(len(arr))
		next := end
		if i+1 < len(arr) {
			next = arr[i+1]
		}
		out = append(out, arr[i]+rng.Float64()*(next-arr[i]))
	}
	sort.Float64s(out)
	return out, nil
}

func fleetApps() []*apps.App {
	return []*apps.App{apps.NewChain(3), apps.NewFanOutFanIn(), apps.NewVideoProcessing(), apps.NewMLPipeline()}
}

func setupFleet(z size, seed int64) (*inputs, error) {
	rng := stats.NewRNG(seed)
	in := &inputs{size: z}
	for _, a := range fleetApps() {
		tr, err := genTrace(z.ratePerMin, z.minutes, z.trainMin, rng)
		if err != nil {
			return nil, err
		}
		in.comps = append(in.comps, core.Component{App: a, Trace: tr})
		in.recs += len(tr.Arrivals)
	}
	return in, nil
}

func setupController(z size, seed int64) (*inputs, error) {
	tr, err := genTrace(z.ratePerMin, z.minutes, z.trainMin, stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	return &inputs{
		size:  z,
		comps: []core.Component{{App: apps.NewMLPipeline(), Trace: tr}},
		recs:  len(tr.Arrivals),
	}, nil
}

func setupServe(z size, seed int64) (*inputs, error) {
	app := apps.NewChain(3)
	tr, err := genTrace(z.ratePerMin, z.minutes, z.trainMin, stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	var stream bytes.Buffer
	if err := serve.WriteStream(&stream, app.Name, tr.Arrivals); err != nil {
		return nil, fmt.Errorf("writing stream: %w", err)
	}
	return &inputs{size: z, app: app, stream: stream.Bytes(), recs: len(tr.Arrivals)}, nil
}

func runFleet(in *inputs, traced bool) (*opRun, error) {
	op := &opRun{reg: telemetry.NewRegistry()}
	cfg := core.Config{
		Components:   in.comps,
		TrainMin:     in.size.trainMin,
		RuntimeNoise: runtimeNoise,
		Registry:     op.reg,
		Seed:         programSeed,
	}
	if traced {
		op.col = telemetry.NewCollector()
		cfg.Tracer = op.col
	}
	t0 := time.Now()
	res, err := core.Run(cfg)
	op.hostS = time.Since(t0).Seconds()
	op.replayS = op.hostS
	op.res = res
	return op, err
}

func runController(in *inputs) (*opRun, error) {
	s, ok := sched.New("aquatope", sched.Options{})
	if !ok {
		return nil, errors.New("scheduler aquatope is not registered")
	}
	op := &opRun{reg: telemetry.NewRegistry()}
	cfg := core.Config{
		Components:   in.comps,
		TrainMin:     in.size.trainMin,
		Scheduler:    timedScheduler{Scheduler: s, clock: &op.clock, timePool: true},
		SearchBudget: in.size.budget,
		ProfileNoise: profileNoise,
		RuntimeNoise: runtimeNoise,
		Registry:     op.reg,
		Seed:         programSeed,
	}
	t0 := time.Now()
	res, err := core.Run(cfg)
	op.hostS = time.Since(t0).Seconds()
	op.replayS = op.hostS
	op.busyS = op.clock.busy()
	op.res = res
	return op, err
}

// serveOptions mirrors `aquatope -serve -scheduler aquatope -chaos
// kill-restore`: the chaos scenario comes with the default retry policy.
// A non-nil clock times the search; the pool policies stay unwrapped.
func serveOptions(in *inputs, dir string, clock *layerClock) (serve.Options, error) {
	s, ok := sched.New("aquatope", sched.Options{})
	if !ok {
		return serve.Options{}, errors.New("scheduler aquatope is not registered")
	}
	if clock != nil {
		s = timedScheduler{Scheduler: s, clock: clock}
	}
	horizon := float64(in.size.minutes) * 60
	scn, ok := chaos.Builtin("kill-restore", horizon, programSeed)
	if !ok {
		return serve.Options{}, errors.New("chaos scenario kill-restore is not built in")
	}
	pol := workflow.DefaultRetryPolicy()
	pol.Timeout = in.app.QoS
	return serve.Options{
		Apps:          []*apps.App{in.app},
		TrainMin:      in.size.trainMin,
		HorizonMin:    in.size.minutes,
		Scheduler:     s,
		SearchBudget:  in.size.budget,
		ProfileNoise:  profileNoise,
		RuntimeNoise:  runtimeNoise,
		Chaos:         scn,
		Resilience:    &pol,
		Registry:      telemetry.NewRegistry(),
		CheckpointDir: dir,
		Seed:          programSeed,
	}, nil
}

// runServe is one serve operation: an uninterrupted run, a run killed by
// the scenario's controller crash, and a restore of the killed run from
// its newest checkpoint resumed to the end of the stream.
func runServe(in *inputs, dir string) (*opRun, error) {
	op := &opRun{srv: &serveRun{}}
	// The uninterrupted run's directory stays for restoreFinal.
	full, killed := filepath.Join(dir, "full"), filepath.Join(dir, "killed")
	defer os.RemoveAll(killed)
	for _, d := range []string{full, killed} {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()

	// Uninterrupted run.
	opts, err := serveOptions(in, full, &op.clock)
	if err != nil {
		return nil, err
	}
	op.reg = opts.Registry
	s, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	if err := runStream(s, in.stream, 0); err != nil {
		return nil, fmt.Errorf("uninterrupted serve run: %w", err)
	}
	op.replayS = time.Since(t0).Seconds()
	op.res = s.Result()
	op.srv.records = s.Ingested()
	op.srv.ingestS = op.replayS
	if err := op.srv.measureDir(full); err != nil {
		return nil, err
	}
	fullMetrics, err := registryJSON(opts.Registry)
	if err != nil {
		return nil, err
	}

	// Killed run.
	kopts, err := serveOptions(in, killed, &op.clock)
	if err != nil {
		return nil, err
	}
	kopts.ArmCrash = true
	ks, err := serve.New(kopts)
	if err != nil {
		return nil, err
	}
	if err := runStream(ks, in.stream, 0); !errors.Is(err, serve.ErrCrashed) {
		return nil, fmt.Errorf("killed serve run: want the scripted crash, got %v", err)
	}

	// Restore and resume.
	ropts, err := serveOptions(in, killed, &op.clock)
	if err != nil {
		return nil, err
	}
	path, err := serve.LatestCheckpoint(killed)
	if err != nil {
		return nil, err
	}
	tr := time.Now()
	rs, err := serve.Restore(ropts, path)
	op.srv.restoreS = time.Since(tr).Seconds()
	if err != nil {
		op.srv.resumeErr = err.Error()
	} else {
		op.srv.replayed = rs.Ingested()
		tr = time.Now()
		if err := runStream(rs, in.stream, rs.Ingested()); err != nil {
			op.srv.resumeErr = err.Error()
		}
		op.srv.resumeS = time.Since(tr).Seconds()
		resumedMetrics, err := registryJSON(ropts.Registry)
		if err != nil {
			return nil, err
		}
		op.srv.resumedEqual = op.srv.resumeErr == "" &&
			reflect.DeepEqual(rs.Result(), op.res) && bytes.Equal(resumedMetrics, fullMetrics)
	}
	op.hostS = time.Since(t0).Seconds()
	return op, nil
}

// runStream feeds the stream to s after skipping the records it has
// already ingested.
func runStream(s *serve.Server, stream []byte, skip int) error {
	src := serve.NewSource(bytes.NewReader(stream))
	if err := src.Skip(skip); err != nil {
		return err
	}
	return s.Run(src)
}

func registryJSON(reg *telemetry.Registry) ([]byte, error) {
	var b bytes.Buffer
	err := reg.WriteJSON(&b)
	return b.Bytes(), err
}

// measureDir records what an uninterrupted run left in its checkpoint
// directory.
func (r *serveRun) measureDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return err
		}
		name := e.Name()
		switch {
		case name == "stream.jsonl":
			r.journalBytes = fi.Size()
		case strings.HasSuffix(name, ".aqcp"):
			r.ckptFiles++
			if name == "checkpoint-final.aqcp" {
				r.finalBytes = fi.Size()
			}
		}
		r.ckptBytes += fi.Size()
	}
	return nil
}

// settled checks that every arrival after the training cut settled as a
// completed or failed workflow.
func settled(in *inputs, res core.Result) check {
	cut := float64(in.size.trainMin) * 60
	var want, got int
	for _, c := range in.comps {
		for _, t := range c.Trace.Arrivals {
			if t >= cut {
				want++
			}
		}
		got += res.PerApp[c.App.Name].Workflows
	}
	return check{"arrivals_settled", want == got, fmt.Sprintf("%d of %d test-window arrivals settled", got, want)}
}

func checkFleet(in *inputs, op *opRun) ([]check, error) {
	return []check{settled(in, op.res)}, nil
}

func checkController(in *inputs, op *opRun) ([]check, error) {
	return []check{
		settled(in, op.res),
		{"pool_decided", len(op.clock.decides) > 0 && op.clock.fitCalls > 0,
			fmt.Sprintf("%d fits, %d decisions", op.clock.fitCalls, len(op.clock.decides))},
		{"search_ran", op.clock.steps > 0 && op.clock.samples > 0,
			fmt.Sprintf("%d search steps, %d profiling samples", op.clock.steps, op.clock.samples)},
	}, nil
}

// maxAttributionErr is obs.Analyze's acceptance bound on how far the
// phase breakdown of a workflow may miss its end-to-end latency.
const maxAttributionErr = 0.01

func checkFleetTraced(in *inputs, op *opRun) ([]check, error) {
	ref, err := op.untracedRef(in)
	if err != nil {
		return nil, err
	}
	snap := op.reg.Snapshot()
	a := obs.Analyze(op.col.Spans(), &snap, obs.Options{})
	return []check{
		settled(in, op.res),
		{"traced_equals_untraced", reflect.DeepEqual(ref.res, op.res), "simulated outcome with tracing on vs off"},
		{"attribution_error", a.Workflows > 0 && a.AttributionError <= maxAttributionErr,
			fmt.Sprintf("%d workflows, attribution error %.3g", a.Workflows, a.AttributionError)},
	}, nil
}

func checkServe(in *inputs, op *opRun) ([]check, error) {
	return []check{
		{"records_ingested", op.srv.records == in.recs, fmt.Sprintf("%d of %d records", op.srv.records, in.recs)},
		{"restore_equals_uninterrupted", op.srv.resumedEqual, "restored+resumed run vs uninterrupted run " + op.srv.resumeErr},
	}, nil
}

// restoreFinal restores the last uninterrupted serve run from its final
// checkpoint. It is a restore attempt, not an output check: its error
// counts as a failed operation.
func restoreFinal(in *inputs, dir string) error {
	full := filepath.Join(dir, "full")
	opts, err := serveOptions(in, full, nil)
	if err != nil {
		return err
	}
	_, err = serve.Restore(opts, filepath.Join(full, "checkpoint-final.aqcp"))
	return err
}
