// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the simulator from a single process — cells back to back,
// one client, sweeps with one worker — times every call it makes into the
// simulator's public packages, checks the simulated outputs, and prints
// each metric by name with its unit. The last line of standard output is
// one JSON object with the verdict and the metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of untraced passes.
// With --trace 1 it runs one untraced reference pass, then traced passes
// under a CPU profile, and reports the per-layer metrics; the trace,
// self-time table and profile are written under .bench_build/perfbench.
//
// Run it through run.sh, which builds it inside the checkout.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is the earliest moment the program itself can observe;
// run.sh passes the exec time in PERFBENCH_T0, which also covers loading.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// artifactDir holds the traced runs' artifacts, inside the checkout.
const artifactDir = ".bench_build/perfbench"

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	goldenPath string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to keep running passes")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.goldenPath, "write-golden", "", "record the run's cell digests into this golden file (default seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(o.workload)
	if !ok || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	if o.goldenPath != "" && o.seed != defaultSeed {
		fmt.Fprintf(stderr, "perfbench: --write-golden needs the default seed %d\n", defaultSeed)
		return 2
	}
	recorded, err := loadGolden()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printHeader(stdout, w, o)

	start := startTime()
	chk := newChecker(recorded, w.name, o.seed)
	if o.goldenPath != "" {
		chk.golden = nil
	}
	warm := newMeter(false)
	warm.beginPass(-1)
	if _, err := w.warmup.run(warm); err != nil {
		fmt.Fprintf(stderr, "perfbench: warm-up cell: %v\n", err)
		return 1
	}

	var metrics []metric
	if o.trace == 0 {
		metrics = timedRun(w, o, chk, start)
	} else {
		metrics, err = tracedRun(w, o, chk, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	for i, f := range chk.failures {
		if i == 20 {
			fmt.Fprintf(stderr, "... %d more failures\n", len(chk.failures)-i)
			break
		}
		fmt.Fprintf(stderr, "FAIL %s\n", f)
	}
	if o.goldenPath != "" {
		if chk.failed() > 0 {
			fmt.Fprintf(stderr, "perfbench: not recording digests of a failing run\n")
			return 1
		}
		if err := writeGolden(o.goldenPath, w.name, chk.reference); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	failFrac := float64(chk.failed()) / float64(chk.attempted)
	fmt.Fprintf(stdout, "cells: %d attempted, %d failed, fail_frac %g\n", chk.attempted, chk.failed(), failFrac)
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	return printResult(stdout, chk, metrics)
}

// startTime is when the process started: the exec time run.sh recorded,
// if it is plausible, else the program's own start.
func startTime() time.Time {
	s := strings.Replace(os.Getenv("PERFBENCH_T0"), ",", ".", 1)
	sec, frac, ok := strings.Cut(s, ".")
	if !ok {
		return processStart
	}
	secs, err1 := strconv.ParseInt(sec, 10, 64)
	micros, err2 := strconv.ParseInt((frac + "000000")[:6], 10, 64)
	if err1 != nil || err2 != nil {
		return processStart
	}
	t := time.Unix(secs, micros*1000)
	if t.After(processStart) || processStart.Sub(t) > time.Minute {
		return processStart
	}
	return t
}

func printHeader(w io.Writer, wl workload, o options) {
	commit := "unavailable"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				commit += "+dirty"
			}
		}
	}
	fmt.Fprintf(w, "perfbench: workload %s, seed %d, %g s, trace %d\n", wl.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "host: nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
	fmt.Fprintf(w, "sizes: %s\n", wl.sizes)
	fmt.Fprintf(w, "load: closed loop, one client; cells run back to back in one process, sweeps with one worker; "+
		"no open-loop generator at host level, so generator lateness does not apply\n")
}

// A pass is one run of every cell of the workload, in order.
type pass struct {
	run, setup, cpu time.Duration
	allocBytes      uint64
	calls           map[string]time.Duration
	counts          map[string]float64
}

func runPass(w workload, seed int64, m *meter, chk *checker, n int) pass {
	m.beginPass(n)
	u0 := snapshot()
	root := m.push(w.name, bucketBench)
	for i, c := range w.cells(seed) {
		m.cell = i
		id := m.push(c.name, bucketBench)
		text, err := c.run(m)
		m.pop(id)
		chk.judge(n, c.name, text, err)
	}
	m.cell = -1
	m.pop(root)
	u1 := snapshot()
	return pass{
		run: m.runTime, setup: m.setupTime, cpu: u1.cpu - u0.cpu,
		allocBytes: u1.allocBytes() - u0.allocBytes(),
		calls:      m.calls, counts: m.counts,
	}
}

// runPasses runs passes until the window has elapsed, at least one.
func runPasses(w workload, seed int64, m *meter, chk *checker, first int, window time.Duration) []pass {
	var ps []pass
	t0 := time.Now()
	for n := first; len(ps) == 0 || time.Since(t0) < window; n++ {
		p := runPass(w, seed, m, chk, n)
		fmt.Fprintf(os.Stderr, "pass %d: run %.4f s, setup %.4f s, cpu %.4f s, alloc %.1f MiB\n",
			n, p.run.Seconds(), p.setup.Seconds(), p.cpu.Seconds(), float64(p.allocBytes)/(1<<20))
		ps = append(ps, p)
	}
	return ps
}

type metric struct {
	name  string
	value float64
	unit  string
}

func runWindow(o options) time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// timedRun measures the end-to-end metrics over untraced passes. Times
// are per-pass medians; setup_s adds process start → first timed call,
// which includes the untimed warm-up cell.
func timedRun(w workload, o options, chk *checker, start time.Time) []metric {
	m := newMeter(false)
	toFirst := time.Since(start)
	ps := runPasses(w, o.seed, m, chk, 0, runWindow(o))
	return []metric{
		{"run_s", medianOf(ps, func(p pass) float64 { return p.run.Seconds() }), "s"},
		{"setup_s", toFirst.Seconds() + medianOf(ps, func(p pass) float64 { return p.setup.Seconds() }), "s"},
		{"cpu_s", medianOf(ps, func(p pass) float64 { return p.cpu.Seconds() }), "s"},
		{"alloc_mb", medianOf(ps, func(p pass) float64 { return float64(p.allocBytes) / (1 << 20) }), "MiB"},
		{"peak_rss_mb", float64(peakRSSKiB()) / 1024, "MiB"},
	}
}

// tracedRun runs one untraced reference pass and then traced passes
// under a CPU profile, and derives the per-layer metrics from the traced
// passes. The traced passes must reproduce the reference pass's results.
func tracedRun(w workload, o options, chk *checker, stderr io.Writer) ([]metric, error) {
	ref := runPass(w, o.seed, newMeter(false), chk, 0)

	m := newMeter(true)
	var prof bytes.Buffer
	u0 := snapshot()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ps := runPasses(w, o.seed, m, chk, 1, runWindow(o))
	pprof.StopCPUProfile()
	u1 := snapshot()

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := cpuShares(samples)
	ms := layerMetrics(ps, shares)
	n := float64(len(ps))
	traced := medianOf(ps, func(p pass) float64 { return p.run.Seconds() })
	ms = append(ms,
		metric{"runtime.sched_wait_p50_us", 1e6 * schedLatency(u0, u1, 0.50), "us"},
		metric{"runtime.sched_wait_p99_us", 1e6 * schedLatency(u0, u1, 0.99), "us"},
		metric{"runtime.invol_ctxsw", float64(u1.involCtxSw-u0.involCtxSw) / n, "count"},
		metric{"runtime.gc_cycles", float64(u1.gcCycles()-u0.gcCycles()) / n, "count"},
		metric{"runtime.alloc_objects", float64(u1.allocObjects()-u0.allocObjects()) / n, "count"},
		metric{"tracing.run_s", traced, "s"},
		metric{"tracing.untraced_run_s", ref.run.Seconds(), "s"},
		metric{"tracing.overhead_frac", traced/ref.run.Seconds() - 1, "ratio"},
		metric{"tracing.passes", n, "count"},
		metric{"tracing.profile_samples", float64(len(samples)), "count"},
	)
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	if err := writeArtifacts(o, w, m, shares, prof.Bytes(), stderr); err != nil {
		return nil, err
	}
	return ms, nil
}

// Layers whose CPU share is reported; the profile's other buckets appear
// only in the artifact table.
var shareLayers = []string{
	bucketSched, bucketGC, bucketRuntime, bucketBench, "sim", "lammps", "mpi", "gpu", "cuda",
	"trace", "cosmoflow", "proxy", "slack", "model", "pool", "health", "serve", "remoting", "faults",
}

// callTimers map per-layer time metrics to the call whose total time
// they report.
var callTimers = []struct{ metric, call string }{
	{"sim.run_s", "sim.Env.Run"},
	{"lammps.run_s", "lammps.RunPerf"},
	{"cosmoflow.run_s", "cosmoflow.RunPerf"},
	{"proxy.sweep_s", "proxy.SweepParallel"},
	{"model.fit_s", "model.BuildSurface"},
	{"model.profile_s", "model.ProfileFromTrace"},
	{"model.predict_s", "model.Surface.PredictSweep"},
	{"pool.start_s", "pool.Start"},
	{"health.start_s", "health.Start"},
	{"serve.gen_s", "serve.Generate"},
}

// countMetrics are per-pass work counts and timers the cells add; a
// speed-only change must leave every count unchanged.
var countMetrics = []struct{ name, unit string }{
	{"gpu.ctx_switches", "count"},
	{"trace.collect_s", "s"},
	{"trace.calls", "count"},
	{"trace.kernels", "count"},
	{"trace.copies", "count"},
	{"cuda.calls.memcpy-h2d", "count"},
	{"cuda.calls.memcpy-d2h", "count"},
	{"cuda.calls.memcpy-d2d", "count"},
	{"cuda.calls.launch", "count"},
	{"cuda.calls.sync", "count"},
	{"cuda.calls.memory", "count"},
	{"cuda.calls.misc", "count"},
	{"proxy.points", "count"},
	{"slack.inject_s", "s"},
	{"slack.delayed_calls", "count"},
	{"pool.run_s", "s"},
	{"pool.jobs", "count"},
	{"pool.placed", "count"},
	{"pool.blocked", "count"},
	{"pool.migrations", "count"},
	{"pool.drain_migrations", "count"},
	{"health.beats", "count"},
	{"health.suspicions", "count"},
	{"health.drains", "count"},
	{"serve.run_s", "s"},
	{"serve.requests", "count"},
	{"serve.shed", "count"},
	{"remoting.calls", "count"},
	{"remoting.failovers", "count"},
}

// layerMetrics derives the per-layer metrics: per-pass medians of the
// call timers and counts, the ratios built on them, and CPU shares.
func layerMetrics(ps []pass, shares map[string]float64) []metric {
	var ms []metric
	count := func(name string) float64 {
		return medianOf(ps, func(p pass) float64 { return p.counts[name] })
	}
	call := func(name string) float64 {
		return medianOf(ps, func(p pass) float64 { return p.calls[name].Seconds() })
	}
	for _, t := range callTimers {
		ms = append(ms, metric{t.metric, call(t.call), "s"})
	}
	for _, c := range countMetrics {
		ms = append(ms, metric{c.name, count(c.name), c.unit})
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ms = append(ms,
		metric{"lammps.host_us_per_rank_step", 1e6 * ratio(call("lammps.RunPerf"), count("lammps.rank_steps")), "us"},
		metric{"proxy.host_us_per_iter", 1e6 * ratio(call("proxy.SweepParallel"), count("proxy.iters")), "us"},
		metric{"pool.host_us_per_job", 1e6 * ratio(count("pool.run_s"), count("pool.jobs")), "us"},
		metric{"serve.host_us_per_request", 1e6 * ratio(count("serve.run_s"), count("serve.requests")), "us"},
		metric{"serve.completed_frac", ratio(count("serve.completed"), count("serve.requests")), "ratio"},
		metric{"remoting.retry_frac", ratio(count("remoting.retries"), count("remoting.calls")), "ratio"},
	)
	for _, l := range shareLayers {
		ms = append(ms, metric{l + ".cpu_share", shares[l], "ratio"})
	}
	return ms
}

func medianOf(ps []pass, f func(pass) float64) float64 {
	vs := make([]float64, len(ps))
	for i, p := range ps {
		vs[i] = f(p)
	}
	return median(vs)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// writeArtifacts writes the traced run's Chrome trace, its self-time and
// CPU-share tables, and the raw CPU profile.
func writeArtifacts(o options, w workload, m *meter, shares map[string]float64, prof []byte, stderr io.Writer) error {
	if err := os.MkdirAll(artifactDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(artifactDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))

	var tr bytes.Buffer
	if err := m.writeChromeTrace(&tr, w.name); err != nil {
		return err
	}
	var tab bytes.Buffer
	fmt.Fprintf(&tab, "self time by layer (%s, seed %d, traced passes):\n", w.name, o.seed)
	m.writeSelfTimeTable(&tab)
	fmt.Fprintf(&tab, "\nCPU share by bucket (profile of the traced passes):\n")
	buckets := make([]string, 0, len(shares))
	for b := range shares {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return shares[buckets[i]] > shares[buckets[j]] })
	for _, b := range buckets {
		fmt.Fprintf(&tab, "  %-16s %.4f\n", b, shares[b])
	}
	_, _ = stderr.Write(tab.Bytes())

	for _, f := range []struct {
		suffix string
		data   []byte
	}{{".trace.json", tr.Bytes()}, {".selftime.txt", tab.Bytes()}, {".cpu.pprof", prof}} {
		if err := os.WriteFile(base+f.suffix, f.data, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "artifacts: %s.{trace.json,selftime.txt,cpu.pprof}\n", base)
	return nil
}

// printResult prints the final JSON line; it is the last line of
// standard output.
func printResult(w io.Writer, chk *checker, ms []metric) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{chk.failed() == 0, chk.attempted, chk.failed(), map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", data)
	return 0
}
