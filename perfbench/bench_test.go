package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"aquatope/internal/apps"
	"aquatope/internal/core"
	"aquatope/internal/sched"
	"aquatope/internal/serve"
	"aquatope/internal/stats"
	"aquatope/internal/telemetry"
)

// tinyScale shrinks every workload so the self-tests finish in seconds.
const tinyScale = 0.05

type benchSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%s), perfbench %q (%s)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestPrintedMetricsMatchBenchmarkJSON runs every workload at tiny scale in
// both modes and checks that the printed metrics are exactly the ones
// BENCHMARK.json declares, each with its unit.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rep, err := bench(w, options{seed: 1, trace: traced, scale: tinyScale, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", w.name, traced, rep.Correct, rep.Attempted)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d",
					w.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit == "" || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), declared unit %q",
						w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestModuleSharesSumTo100 profiles a fleet replay long enough to take
// samples and checks that the module shares account for all of them.
func TestModuleSharesSumTo100(t *testing.T) {
	w, err := findWorkload("fleet")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := bench(w, options{seed: 1, trace: true, scale: 0.2, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, m := range append(append([]string(nil), cpuModules...), "other", "runtime") {
		sum += rep.Metrics[m+".cpu_pct"].Value
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("module CPU shares sum to %g%%", sum)
	}
	if rep.Metrics["sim.cpu_pct"].Value+rep.Metrics["faas.cpu_pct"].Value == 0 {
		t.Error("no profile sample was charged to sim or faas")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"aquatope/internal/sim.(*Engine).RunUntil":       "sim",
		"aquatope/internal/faas.(*Cluster).Invoke.func1": "faas",
		"aquatope/internal/core.Run":                     "",
		"aquatope/internal/simx.F":                       "",
		"aquatope/perfbench.timedPolicy.Decide":          "-",
		"runtime.mallocgc":                               "-",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestWrappedSpanDumpIdentical checks that timing the scheduler changes
// nothing the program emits: wrapped and unwrapped runs give byte-identical
// span dumps, and the BO engine's decision spans survive the wrapper.
func TestWrappedSpanDumpIdentical(t *testing.T) {
	z := size{minutes: 40, trainMin: 20, ratePerMin: 10, budget: 6}
	dump := func(wrap bool) []byte {
		s, ok := sched.New("aquatope", sched.Options{EncoderEpochs: 1, PredEpochs: 1})
		if !ok {
			t.Fatal("aquatope scheduler not registered")
		}
		var clock layerClock
		if wrap {
			s = timedScheduler{Scheduler: s, clock: &clock, timePool: true}
		}
		col := telemetry.NewCollector()
		tr, err := genTrace(z.ratePerMin, z.minutes, z.trainMin, stats.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.Run(core.Config{
			Components:   []core.Component{{App: apps.NewChain(3), Trace: tr}},
			TrainMin:     z.trainMin,
			Scheduler:    s,
			SearchBudget: z.budget,
			ProfileNoise: profileNoise,
			RuntimeNoise: runtimeNoise,
			Tracer:       col,
			Seed:         programSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if wrap && (clock.steps == 0 || clock.fitCalls == 0 || len(clock.decides) == 0) {
			t.Fatalf("wrapper timed %d steps, %d fits, %d decisions", clock.steps, clock.fitCalls, len(clock.decides))
		}
		var b bytes.Buffer
		if err := col.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	plain, wrapped := dump(false), dump(true)
	if !bytes.Contains(plain, []byte(`"kind":"`+telemetry.KindBODecision+`"`)) {
		t.Fatal("unwrapped dump has no bo.decision spans; the comparison would be vacuous")
	}
	if !bytes.Equal(plain, wrapped) {
		t.Fatalf("span dumps differ: %d bytes unwrapped, %d wrapped", len(plain), len(wrapped))
	}
}

// TestWrappedServeCheckpointsIdentical checks that the serve workload's
// wrapper changes nothing a serve run writes: with the search timed, the
// checkpoint directory is byte-identical to an unwrapped run's. Wrapping
// the pool policies as well must show up, or the comparison is vacuous.
func TestWrappedServeCheckpointsIdentical(t *testing.T) {
	w, err := findWorkload("serve")
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.setup(w.size.scaled(tinyScale), 1)
	if err != nil {
		t.Fatal(err)
	}
	files := func(clock *layerClock, timePool bool) map[string][]byte {
		dir := t.TempDir()
		opts, err := serveOptions(in, dir, clock)
		if err != nil {
			t.Fatal(err)
		}
		if timePool {
			opts.Scheduler = timedScheduler{Scheduler: opts.Scheduler, clock: clock, timePool: true}
		}
		s, err := serve.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := runStream(s, in.stream, 0); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte)
		for _, e := range entries {
			if out[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	var clock layerClock
	plain, wrapped := files(nil, false), files(&clock, false)
	if clock.steps == 0 {
		t.Fatal("the wrapper timed no search step")
	}
	if _, ok := plain["checkpoint-final.aqcp"]; !ok || len(plain) < 3 {
		t.Fatalf("unwrapped run left %d files and no final checkpoint", len(plain))
	}
	if !reflect.DeepEqual(plain, wrapped) {
		t.Fatal("checkpoint directories differ between the unwrapped and the wrapped run")
	}
	if reflect.DeepEqual(plain, files(&clock, true)) {
		t.Fatal("wrapping the pool policies left the checkpoints unchanged; the comparison is vacuous")
	}
}

func TestGenTraceExactCountsAndSeeded(t *testing.T) {
	gen := func(seed int64) []float64 {
		tr, err := genTrace(20, 150, 60, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return tr.Arrivals
	}
	a, b := gen(1), gen(1)
	for seed := int64(2); seed < 40; seed++ {
		c := gen(seed)
		if len(c) != 3000 {
			t.Fatalf("seed %d: got %d arrivals, want 3000", seed, len(c))
		}
		if i := sort.SearchFloat64s(c, 60*60); i != 1200 {
			t.Fatalf("seed %d: got %d arrivals before the 60-min cut, want 1200", seed, i)
		}
		if c[100] == a[100] {
			t.Errorf("seeds 1 and %d gave the same arrivals", seed)
		}
	}
	if len(a) != 3000 {
		t.Fatalf("got %d arrivals, want 3000", len(a))
	}
	for i, at := range a {
		if at != b[i] {
			t.Fatal("same seed gave different arrivals")
		}
		if at < 0 || at >= 150*60 || (i > 0 && at < a[i-1]) {
			t.Fatalf("arrival %d at %g is out of order or outside the horizon", i, at)
		}
	}
}

// TestSetupSucceedsAcrossSeeds generates every workload's full-size inputs
// for many seeds and the held-out one: set-up must succeed for any seed
// the benchmark is run with.
func TestSetupSucceedsAcrossSeeds(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 300; seed++ {
			if _, err := w.setup(w.size, seed); err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
		}
		if _, err := w.setup(w.size, 9001); err != nil {
			t.Fatalf("%s held-out seed: %v", w.name, err)
		}
	}
}
