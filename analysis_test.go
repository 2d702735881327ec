package cdi

// The repo-wide determinism lint gate: running the cdivet suite is part of
// tier-1 testing, so `go test ./...` fails the moment any package breaks a
// determinism invariant (wall-clock reads, global rand, bare goroutines,
// order-dependent map iteration, exact float comparison, dropped errors)
// or breaks the signal wait graph. The same suite is available
// interactively as `go run ./cmd/cdivet ./...`.
//
// The module is parsed and type-checked once per test binary; every zone of
// the self-check below, and BenchmarkCdivetModule, runs over that one load.
//
// Every zone holds its packages to zero findings: an accepted exception
// carries an inline, justified `//cdivet:allow <rule> <reason>` directive.

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

var module struct {
	once sync.Once
	m    *analysis.Module
	err  error
}

// loadModule returns the module, loaded and type-checked on first use.
func loadModule(tb testing.TB) *analysis.Module {
	tb.Helper()
	module.once.Do(func() { module.m, module.err = analysis.LoadModule(".") })
	if module.err != nil {
		tb.Fatalf("cdivet suite failed to load module: %v", module.err)
	}
	return module.m
}

// procPackages is every package that spawns sim processes or hands
// Signals between them, plus the engine itself.
var procPackages = []string{
	"./internal/sim",
	"./internal/gpu",
	"./internal/mpi",
	"./internal/proxy",
	"./internal/fabric",
	"./internal/remoting",
	"./internal/serve",
	"./internal/health",
	"./internal/pool",
}

// zone is one scope of the self-check: a rule subset over a package set.
type zone struct {
	name     string
	rules    string // comma-separated rule subset; empty runs every rule
	patterns []string
}

var zones = []zone{
	{name: "all", patterns: []string{"./..."}},
	// An analysis suite that cannot gate its own source has no business
	// gating the model's.
	{name: "analysis", patterns: []string{"./internal/analysis"}},
}

// checkZone runs z over the shared load. A zone pattern that matches no
// package is an error from RunModule.
func checkZone(t *testing.T, z zone) {
	t.Helper()
	m := loadModule(t)
	cfg := analysis.Config{Patterns: z.patterns}
	if z.rules != "" {
		as, err := analysis.ByName(z.rules)
		if err != nil {
			t.Fatalf("resolve analyzers: %v", err)
		}
		cfg.Analyzers = as
	}
	findings, err := analysis.RunModule(m, cfg)
	if err != nil {
		t.Fatalf("cdivet suite failed to run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("fix the violation or, if the pattern is intentionally safe, add `//cdivet:allow <rule> <reason>` on or above the line")
	}
}

// TestDeterminismInvariants runs each zone over the shared load.
func TestDeterminismInvariants(t *testing.T) {
	for _, z := range zones {
		t.Run(z.name, func(t *testing.T) { checkZone(t, z) })
	}
}

// The process packages are held to zero findings for a fireable wake
// behind every wait.
func TestWaitGraphSelfCheck(t *testing.T) {
	checkZone(t, zone{rules: "waitgraph", patterns: procPackages})
}

// TestSeededBugs proves the waitgraph analyzer catches the failure class it
// exists for: the bug is planted in a scratch copy of the module, which is
// loaded once, and the rule must report the plant.
func TestSeededBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("module copy + full typecheck; skipped in -short")
	}
	root := copyModuleForPlant(t)
	engine := filepath.Join(root, "internal", "serve", "engine.go")
	// Delete the fire half of the admission handshake: the batcher then
	// waits on a Signal nothing ever fires, a deterministic deadlock.
	plant(t, engine, "e.more.Fire()", "p.Yield()")
	m, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatalf("load planted module: %v", err)
	}
	t.Run("waitgraph", func(t *testing.T) {
		findings, err := analysis.RunModule(m, analysis.Config{Analyzers: []*analysis.Analyzer{analysis.WaitGraph}})
		if err != nil {
			t.Fatalf("run planted module: %v", err)
		}
		for _, f := range findings {
			if strings.Contains(f.Message, "never fired") && strings.Contains(f.Message, "more") {
				return
			}
		}
		t.Fatalf("planted bug not caught; findings: %v", findings)
	})
}

// copyModuleForPlant clones the module's base sources (no tests, no
// testdata) into a scratch dir the seeded-bug test can mutate freely.
func copyModuleForPlant(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, src, 0o644)
	})
	if err != nil {
		t.Fatalf("copy module: %v", err)
	}
	return root
}

// plant rewrites one occurrence of old to new in file, failing if the
// pattern is gone (the plant site moved — update the test).
func plant(t *testing.T, file, old, new string) {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read plant site: %v", err)
	}
	if !strings.Contains(string(src), old) {
		t.Fatalf("plant pattern %q not found in %s", old, file)
	}
	out := strings.Replace(string(src), old, new, 1)
	if err := os.WriteFile(file, []byte(out), 0o644); err != nil {
		t.Fatalf("write plant: %v", err)
	}
}
