package main

import (
	"bytes"
	"errors"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/serve"
)

// perturbed wraps a cell so that, from pass `from` on, its result text
// carries one extra byte: the smallest change to a simulated output.
func perturbed(c cell, from int, pass *int) cell {
	return cell{name: c.name, run: func(m *meter) (string, error) {
		text, err := c.run(m)
		if *pass >= from {
			text += " "
		}
		return text, err
	}}
}

func TestPerturbedCellCountsAsFailed(t *testing.T) {
	var pass int
	w := workload{name: "selftest", cells: func(int64) []cell {
		return []cell{
			lammpsCell(20, 2, 50),
			perturbed(lammpsCell(20, 4, 50), 1, &pass),
		}
	}}
	chk := newChecker(nil, w.name, 2) // not the default seed: no golden digests
	for pass = 0; pass < 3; pass++ {
		runPass(w, 2, newMeter(false), chk, pass)
	}
	if chk.attempted != 6 || chk.failed() != 2 {
		t.Fatalf("attempted %d failed %d, want 6 and 2 (the perturbed cell in passes 1 and 2): %v",
			chk.attempted, chk.failed(), chk.failures)
	}
}

func TestGoldenDigestMismatchFails(t *testing.T) {
	c := lammpsCell(20, 2, 50)
	m := newMeter(false)
	m.beginPass(0)
	text, err := c.run(m)
	if err != nil {
		t.Fatal(err)
	}
	rec := golden{"selftest": {c.name: digest(text)}}
	if chk := newChecker(rec, "selftest", defaultSeed); !chk.judge(0, c.name, text, nil) {
		t.Fatalf("recorded digest rejected: %v", chk.failures)
	}
	if chk := newChecker(rec, "selftest", defaultSeed); chk.judge(0, c.name, text+" ", nil) {
		t.Fatal("perturbed result matched the recorded digest")
	}
	if chk := newChecker(rec, "selftest", defaultSeed); chk.judge(0, "unrecorded", text, nil) {
		t.Fatal("a cell without a recorded digest passed at the default seed")
	}
}

// Every cell of every workload has a digest recorded at the default seed.
func TestGoldenCoversEveryCell(t *testing.T) {
	rec, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		cells := w.cells(defaultSeed)
		if len(rec[w.name]) != len(cells) {
			t.Errorf("%s: %d digests recorded for %d cells", w.name, len(rec[w.name]), len(cells))
		}
		for _, c := range cells {
			if _, ok := rec[w.name][c.name]; !ok {
				t.Errorf("%s: no digest recorded for cell %s", w.name, c.name)
			}
		}
	}
}

func TestConservationChecks(t *testing.T) {
	if err := checkPool(pool.Stats{Jobs: 10, Placed: 8, Killed: 2}); err != nil {
		t.Errorf("conserving pool stats rejected: %v", err)
	}
	if err := checkPool(pool.Stats{Jobs: 10, Placed: 8, Killed: 1}); !errors.Is(err, errCheck) {
		t.Errorf("pool that lost a job: got %v, want errCheck", err)
	}
	if err := checkPool(pool.Stats{Jobs: 10, Placed: 9, Killed: 3, Drains: 1}); err != nil {
		t.Errorf("drained pool within bounds rejected: %v", err)
	}
	m := newMeter(false)
	m.beginPass(0)
	ok := serve.Report{Requests: 10, Completed: 7, Shed: 2, Failed: 1}
	if err := checkServe(m, ok, 10, 7); err != nil {
		t.Errorf("conserving serve report rejected: %v", err)
	}
	for _, tc := range []struct {
		rep                  serve.Report
		generated, completed int
	}{
		{ok, 11, 7}, // a generated request was never offered
		{ok, 10, 6}, // the report disagrees with the engine
		{serve.Report{Requests: 10, Completed: 7, Shed: 2, Failed: 2}, 10, 7},
	} {
		if err := checkServe(m, tc.rep, tc.generated, tc.completed); !errors.Is(err, errCheck) {
			t.Errorf("%+v (generated %d, engine completed %d): got %v, want errCheck",
				tc.rep, tc.generated, tc.completed, err)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.futex", "runtime.chanrecv", "runtime.chanrecv1", "repro/internal/sim.(*Proc).yield"}, bucketSched},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, bucketSched},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"repro/internal/serve.(*Engine).step"}, bucketGC},
		{[]string{"runtime.mallocgc", "runtime.growslice", "repro/internal/pool.(*Scheduler).claim"}, "pool"},
		{[]string{"math.Exp", "repro/internal/model.(*Surface).Predict", "main.run"}, "model"},
		{[]string{"repro/internal/runner.Map[go.shape.struct { a/b.c }].func1"}, "runner"},
		{[]string{"runtime.memmove"}, bucketRuntime},
		{[]string{"compress/flate.(*compressor).deflate"}, bucketOther},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x float64) {
	for t := time.Now(); time.Since(t) < d; {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1e-9
		}
	}
	return x
}

// A real CPU profile decodes, and time spent in the benchmark's own code
// lands in its bucket.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	if share := cpuShares(samples)[bucketBench]; share < 0.5 {
		t.Errorf("bench share %.2f of a profile spent spinning in package main", share)
	}
}
