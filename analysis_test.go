package cdi

// The repo-wide determinism lint gate: running the cdivet suite is part of
// tier-1 testing, so `go test ./...` fails the moment any package breaks a
// determinism invariant (wall-clock reads, global rand, bare goroutines,
// order-dependent map iteration, exact float comparison, dropped errors) or
// introduces a new hot-path allocation the hotpath/escape rules can see.
// The same suite is available interactively as `go run ./cmd/cdivet ./...`.
//
// Accepted findings live in cdivet_baseline.json (mostly `escape` reports on
// constructors that intentionally return heap objects). The baseline is
// exact-match: a fixed finding turns its entry stale and this test fails, so
// the file can only shrink or be deliberately re-cut with
// `go run ./cmd/cdivet -write-baseline cdivet_baseline.json ./...`.

import (
	"testing"

	"repro/internal/analysis"
)

const baselineFile = "cdivet_baseline.json"

func TestDeterminismInvariants(t *testing.T) {
	m, err := analysis.LoadModule(".")
	if err != nil {
		t.Fatalf("cdivet suite failed to load module: %v", err)
	}
	findings, err := analysis.RunModule(m, analysis.Config{})
	if err != nil {
		t.Fatalf("cdivet suite failed to run: %v", err)
	}
	b, err := analysis.ReadBaseline(baselineFile)
	if err != nil {
		t.Fatalf("read %s: %v", baselineFile, err)
	}
	for _, e := range b.Stale(findings, m.Root) {
		t.Errorf("stale baseline entry (finding fixed? re-cut the baseline): %s %s %q", e.Rule, e.File, e.Message)
	}
	findings, _ = b.Filter(findings, m.Root)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("fix the violation or, if the pattern is intentionally safe, add `//cdivet:allow <rule> <reason>` on or above the line")
	}
}

// TestHotpathSelfCheck holds the measured core — the serving engine, the GPU
// and CUDA models, the proxy-app and LAMMPS workloads, and the simulation
// engine they all run on — to a stricter bar than the baseline-filtered gate
// above: zero hotpath/escape findings with no baseline at all. Every accepted
// allocation in these packages must carry an inline //cdivet:allow directive
// with its justification, so a new hot-path allocation cannot hide behind a
// frozen baseline entry. Every configured hot root must also name a function
// that exists, or the code it anchored would silently leave the hot set.
func TestHotpathSelfCheck(t *testing.T) {
	hot, err := analysis.ByName("hotpath,escape")
	if err != nil {
		t.Fatalf("resolve analyzers: %v", err)
	}
	m, err := analysis.LoadModule(".")
	if err != nil {
		t.Fatalf("hotpath/escape self-check failed to load module: %v", err)
	}
	for _, root := range analysis.UnresolvedHotRoots(m) {
		t.Errorf("hot root %s names no function in the module; update hotRootConfig", root)
	}
	findings, err := analysis.RunModule(m, analysis.Config{
		Patterns: []string{
			"./internal/serve",
			"./internal/gpu",
			"./internal/cuda",
			"./internal/proxy",
			"./internal/lammps",
			"./internal/sim",
		},
		Analyzers: hot,
	})
	if err != nil {
		t.Fatalf("hotpath/escape self-check failed to run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("the measured core is kept allocation-clean without a baseline: fix the allocation or justify it with an inline `//cdivet:allow hotpath|escape <reason>`")
	}
}
