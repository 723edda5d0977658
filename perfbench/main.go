// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, drives the program through its public
// entry points (core.Run, sched.New, serve.New/Run/Restore), checks the
// outputs, and prints every metric by name and unit, ending with one JSON
// line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 28 --trace 0
//
// With --trace 0 it repeats the workload's operation for --seconds and
// reports the end-to-end metrics (medians over repetitions; times in the
// reference seconds calib.go defines). With --trace 1
// it reports the per-module metrics from one unprofiled operation plus the
// CPU shares of a separate profiled one. README.md lists the workloads,
// the metrics and which module metric should move which end-to-end one.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"aquatope/internal/core"
	"aquatope/internal/telemetry"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; --trace 0 prints them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"wf_per_s", "1/s"},
	{"max_rss_mb", "MB"},
	{"checks_passed_pct", "%"},
	{"cost_core_s", "core_s"},
}

// perLayer are the per-module metrics; --trace 1 prints them.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range append(append([]string(nil), cpuModules...), "other", "runtime") {
		defs = append(defs, metricDef{m + ".cpu_pct", "%"})
	}
	return append(defs, []metricDef{
		{"host.run_s", "s"},
		{"host.calib_s", "s"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"faas.invocations", "count"},
		{"faas.cold_start_pct", "%"},
		{"faas.prov_mem_gbs", "GB_s"},
		{"faas.warm_hit_ratio", "ratio"},
		{"faas.containers_created", "count"},
		{"faas.shed_invocations", "count"},
		{"faas.failed_invocations", "count"},
		{"workflow.qos_viol_pct", "%"},
		{"workflow.failed_pct", "%"},
		{"workflow.retries", "count"},
		{"workflow.hedges", "count"},
		{"telemetry.spans", "count"},
		{"telemetry.overhead_x", "x"},
		{"pool.fit_calls", "count"},
		{"pool.fit_busy_s", "s"},
		{"pool.decide_calls", "count"},
		{"pool.decide_busy_s", "s"},
		{"pool.decide_p50_ms", "ms"},
		{"pool.decide_p99_ms", "ms"},
		{"resource.steps", "count"},
		{"resource.samples", "count"},
		{"resource.step_busy_s", "s"},
		{"serve.records", "count"},
		{"serve.replayed_records", "count"},
		{"serve.ingest_rec_per_s", "1/s"},
		{"serve.restore_s", "s"},
		{"serve.resume_s", "s"},
		{"checkpoint.files", "count"},
		{"checkpoint.disk_mb", "MB"},
		{"checkpoint.final_bytes", "B"},
		{"checkpoint.bytes_per_journal_byte", "ratio"},
		{"runtime.gc_cpu_pct", "%"},
		{"runtime.alloc_mb", "MB"},
	}...)
}()

// Set-up takes milliseconds, so it is timed in batches: before each
// repetition, setupBatches batches, each repeating set-up for at least
// setupBatchS seconds. A batch's sample is its time per set-up; setup_s is
// the median sample.
const (
	setupBatches = 3
	setupBatchS  = 0.05
)

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	scale   float64 // input-size factor; self-tests use a small one
	dir     string
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to repeat the measured operation (--trace 0)")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-module metrics and a CPU profile")
	dir := flag.String("dir", ".bench_build", "scratch directory for stream and checkpoint files")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := bench(w, options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, scale: 1, dir: *dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func printReport(f *os.File, rep *report) error {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(f, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

// bench runs one workload and assembles its report.
func bench(w *workload, o options) (*report, error) {
	z := w.size.scaled(o.scale)
	dir, err := filepath.Abs(filepath.Join(o.dir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := w.setup(z, o.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	var op *opRun
	var runS, wfPerS, setups []float64
	var checks []check
	vals := make(map[string]float64)
	if o.trace {
		op, err = traceRun(w, in, dir, vals)
		if err != nil {
			return nil, err
		}
	} else {
		// Repeat the operation for the measuring time; every repetition
		// must reproduce the first one's simulated outcome exactly.
		// Every repetition is scaled to reference seconds by the mean of
		// the calibrations before and after it (calib.go).
		start := time.Now()
		var first core.Result
		var hostS, calibS []float64
		calPrev := calibrate()
		for op == nil || time.Since(start).Seconds() < o.seconds {
			// Drop the previous repetition before the next one, so its
			// garbage does not raise the next one's peak.
			op = nil
			var setupHost [setupBatches]float64
			for i := range setupHost {
				if setupHost[i], err = timeSetup(w, z, o.seed); err != nil {
					return nil, fmt.Errorf("set-up: %w", err)
				}
			}
			runtime.GC()
			if op, err = w.run(in, dir); err != nil {
				return nil, err
			}
			cal := calibrate()
			ref := calibRefS / ((calPrev + cal) / 2)
			calPrev = cal
			if runS == nil {
				first = op.res
			}
			for _, t := range setupHost {
				setups = append(setups, t*ref)
			}
			runS = append(runS, op.hostS*ref)
			wfPerS = append(wfPerS, float64(op.res.Workflows())/(op.hostS*ref))
			hostS = append(hostS, op.hostS)
			calibS = append(calibS, cal)
		}
		fmt.Fprintf(os.Stderr, "%s: %d repetitions, host seconds %.4g, calibration seconds %.4g\n",
			w.name, len(runS), hostS, calibS)
		// Peak memory of the repetitions, before the checks' own
		// reference runs and analyses add to it.
		if vals["max_rss_mb"], err = maxRSSMB(); err != nil {
			return nil, err
		}
		checks = append(checks, check{"repetitions_identical", reflect.DeepEqual(first, op.res),
			fmt.Sprintf("%d repetitions", len(runS))})
	}

	more, err := w.checks(in, op)
	if err != nil {
		return nil, fmt.Errorf("checks: %w", err)
	}
	checks = append(checks, more...)
	// Checks and restore attempts are counted apart from workflows, so
	// that a single failed one moves checks_passed_pct visibly.
	rep := &report{Correct: true}
	var checksFailed int
	for _, c := range checks {
		if !c.ok {
			checksFailed++
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "check %s failed: %s\n", c.name, c.msg)
		}
	}
	checksRun := len(checks)
	if op.srv != nil {
		// The uninterrupted run's final checkpoint must restore too; a
		// failure is a failed operation, not a wrong output.
		checksRun++
		if err := restoreFinal(in, dir); err != nil {
			checksFailed++
			fmt.Fprintf(os.Stderr, "final-checkpoint restore failed: %v\n", err)
		}
	}
	rep.Attempted = op.res.Workflows() + checksRun
	rep.Failed = op.res.FailedWorkflows() + checksFailed

	if o.trace {
		rep.Metrics = collect(perLayer, vals)
		return rep, nil
	}
	vals["setup_s"] = median(setups)
	vals["run_s"] = median(runS)
	vals["wf_per_s"] = median(wfPerS)
	vals["checks_passed_pct"] = 100 * float64(checksRun-checksFailed) / float64(checksRun)
	vals["cost_core_s"] = op.res.CPUTime()
	rep.Metrics = collect(endToEnd, vals)
	return rep, nil
}

// traceRun measures one unprofiled operation for the per-module counts and
// busy times, then profiles a second one for the module CPU shares.
func traceRun(w *workload, in *inputs, dir string, vals map[string]float64) (*opRun, error) {
	cal0 := calibrate()
	rt0 := readRuntime()
	op, err := w.run(in, dir)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	vals["host.run_s"] = op.hostS
	vals["host.calib_s"] = (cal0 + calibrate()) / 2
	vals["runtime.gc_cpu_pct"] = 100 * (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)
	vals["runtime.alloc_mb"] = (rt1.allocBytes - rt0.allocBytes) / 1e6

	snap := op.reg.Snapshot()
	ctr := func(name string) float64 { return snap.Counters[name] }
	events := ctr(telemetry.MetricSimEvents)
	vals["sim.events"] = events
	if events > 0 && op.srv == nil {
		vals["sim.ns_per_event"] = 1e9 * (op.replayS - op.busyS) / events
	}
	warm, cold := ctr(telemetry.MetricWarmStarts), ctr(telemetry.MetricColdStarts)
	failed := ctr(telemetry.MetricFailedInvocations) + ctr(telemetry.MetricTimedOutInvocations)
	shed := ctr(telemetry.MetricShedInvocations)
	vals["faas.invocations"] = warm + cold + failed + shed
	if warm+cold > 0 {
		vals["faas.warm_hit_ratio"] = warm / (warm + cold)
	}
	vals["faas.containers_created"] = ctr(telemetry.MetricContainersCreated)
	vals["faas.shed_invocations"] = shed
	vals["faas.failed_invocations"] = failed
	vals["faas.cold_start_pct"] = 100 * op.res.ColdStartRate()
	vals["faas.prov_mem_gbs"] = op.res.ProvisionedMemGBs
	vals["workflow.qos_viol_pct"] = 100 * op.res.QoSViolationRate()
	if n := op.res.Workflows(); n > 0 {
		vals["workflow.failed_pct"] = 100 * float64(op.res.FailedWorkflows()) / float64(n)
	}
	vals["workflow.retries"] = float64(op.res.Retries())
	vals["workflow.hedges"] = float64(op.res.Hedges())
	if op.col != nil {
		vals["telemetry.spans"] = float64(op.col.Len())
		ref, err := op.untracedRef(in)
		if err != nil {
			return nil, err
		}
		vals["telemetry.overhead_x"] = op.replayS / ref.replayS
	}

	c := &op.clock
	vals["pool.fit_calls"] = float64(c.fitCalls)
	vals["pool.fit_busy_s"] = c.fitBusy.Seconds()
	vals["pool.decide_calls"] = float64(len(c.decides))
	vals["pool.decide_busy_s"] = c.decideBusy().Seconds()
	vals["pool.decide_p50_ms"] = ms(c.decideQuantile(0.50))
	vals["pool.decide_p99_ms"] = ms(c.decideQuantile(0.99))
	vals["resource.steps"] = float64(c.steps)
	vals["resource.samples"] = float64(c.samples)
	vals["resource.step_busy_s"] = c.stepBusy.Seconds()

	if s := op.srv; s != nil {
		vals["serve.records"] = float64(s.records)
		vals["serve.replayed_records"] = float64(s.replayed)
		vals["serve.ingest_rec_per_s"] = float64(s.records) / s.ingestS
		vals["serve.restore_s"] = s.restoreS
		vals["serve.resume_s"] = s.resumeS
		vals["checkpoint.files"] = float64(s.ckptFiles)
		vals["checkpoint.disk_mb"] = float64(s.ckptBytes) / 1e6
		vals["checkpoint.final_bytes"] = float64(s.finalBytes)
		if s.journalBytes > 0 {
			vals["checkpoint.bytes_per_journal_byte"] = float64(s.ckptBytes-s.journalBytes) / float64(s.journalBytes)
		}
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	_, err = w.run(in, dir)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	shares, err := moduleShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for m, v := range shares {
		vals[m+".cpu_pct"] = v
	}
	return op, nil
}

// timeSetup repeats the workload's set-up for at least setupBatchS seconds,
// starting from a collected heap, and returns the time per set-up.
func timeSetup(w *workload, z size, seed int64) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	for n := 1; ; n++ {
		if _, err := w.setup(z, seed); err != nil {
			return 0, err
		}
		if el := time.Since(t0).Seconds(); el >= setupBatchS {
			return el / float64(n), nil
		}
	}
}

// collect orders vals by defs, filling metrics the workload does not
// exercise with 0.
func collect(defs []metricDef, vals map[string]float64) map[string]metricVal {
	out := make(map[string]metricVal, len(defs))
	for _, d := range defs {
		out[d.name] = metricVal{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

type runtimeStats struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeStats{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()),
	}
}
