package cdi

// The repo-wide determinism lint gate: running the cdivet suite is part of
// tier-1 testing, so `go test ./...` fails the moment any package breaks a
// determinism invariant (wall-clock reads, global rand, bare goroutines,
// order-dependent map iteration, exact float comparison, dropped errors),
// introduces a hot-path allocation pattern the hotpath rule can see, or
// breaks shard ownership or the signal wait graph. The same suite is
// available interactively as `go run ./cmd/cdivet ./...`.
//
// The module is parsed and type-checked once per test binary; every zone of
// the self-check below, and BenchmarkCdivetModule, runs over that one load.
//
// Accepted findings live in cdivet_baseline.json (hotpath reports on code
// that allocates by design). The baseline is exact-match: a fixed finding
// turns its entry stale and the `all` zone fails, so the file can only
// shrink (`go run ./cmd/cdivet -prune-baseline cdivet_baseline.json ./...`)
// or be deliberately re-cut with
// `go run ./cmd/cdivet -write-baseline cdivet_baseline.json ./...`.

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

const baselineFile = "cdivet_baseline.json"

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

// hotCore is the measured core: the serving engine, the GPU and CUDA
// models, the proxy-app and LAMMPS workloads, the pool scheduler, and the
// simulation engine they all run on.
var hotCore = []string{
	"./internal/serve",
	"./internal/gpu",
	"./internal/cuda",
	"./internal/proxy",
	"./internal/lammps",
	"./internal/sim",
	"./internal/pool",
}

// shardPackages is every package the engine threads shard keys through,
// plus the engine itself.
var shardPackages = []string{
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
// Only a baseline zone reads the baseline; the others hold their packages
// to zero findings, so an accepted violation there must carry an inline
// justified directive and cannot hide behind a frozen baseline entry.
type zone struct {
	name     string
	rules    string // comma-separated rule subset; empty runs every rule
	patterns []string
	baseline bool
}

var zones = []zone{
	{name: "all", patterns: []string{"./..."}, baseline: true},
	// The allocation discipline of the measured core.
	{name: "hot-core", rules: "hotpath", patterns: hotCore},
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
	if z.baseline {
		b, err := analysis.ReadBaseline(baselineFile)
		if err != nil {
			t.Fatalf("read %s: %v", baselineFile, err)
		}
		for _, e := range b.Stale(findings, m, cfg) {
			t.Errorf("stale baseline entry (finding fixed? prune the baseline): %s %s %q", e.Rule, e.File, e.Message)
		}
		findings, _ = b.Filter(findings, m.Root)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("fix the violation or, if the pattern is intentionally safe, add `//cdivet:allow <rule> <reason>` on or above the line")
	}
}

// TestDeterminismInvariants runs each zone over the shared load. Every
// configured hot root must also name a function that exists, or the code it
// anchored would silently leave the hot set.
func TestDeterminismInvariants(t *testing.T) {
	m := loadModule(t)
	for _, root := range analysis.UnresolvedHotRoots(m) {
		t.Errorf("hot root %s names no function in the module; update hotRootConfig", root)
	}
	for _, z := range zones {
		t.Run(z.name, func(t *testing.T) { checkZone(t, z) })
	}
}

// The shard-threaded packages are held to zero findings for shard
// ownership and for a fireable wake behind every wait.
func TestShardSafetySelfCheck(t *testing.T) {
	checkZone(t, zone{rules: "shardsafety", patterns: shardPackages})
}

func TestWaitGraphSelfCheck(t *testing.T) {
	checkZone(t, zone{rules: "waitgraph", patterns: shardPackages})
}

// TestPoolSelfCheck holds the pool scheduler alone to the three analyzers
// its design leans on: shardsafety (the single-writer mailbox discipline),
// waitgraph (the wake signal is always fireable) and hotpath (the placement
// path stays allocation-lean). The checks above cover it too; this one
// exists so a pool-only regression fails with the package's name on it.
func TestPoolSelfCheck(t *testing.T) {
	checkZone(t, zone{rules: "shardsafety,waitgraph,hotpath", patterns: []string{"./internal/pool"}})
}

// TestSeededBugs proves the shard-era analyzers catch the failure classes
// they exist for: both bugs are planted in one scratch copy of the module,
// which is loaded once, and each rule must report its plant.
func TestSeededBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("module copy + full typecheck; skipped in -short")
	}
	root := copyModuleForPlant(t)
	engine := filepath.Join(root, "internal", "serve", "engine.go")
	// Move the serving engine's arrivals proc off the engine shard onto the
	// default domain: the cross-shard admission-queue write the shard
	// threading deliberately avoids.
	plant(t, engine, `shard.Spawn("serve-arrivals"`, `env.Spawn("serve-arrivals"`)
	// Delete the fire half of the admission handshake: the batcher then
	// waits on a Signal nothing ever fires, a deterministic deadlock.
	plant(t, engine, "e.more.Fire()", "p.Yield()")
	m, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatalf("load planted module: %v", err)
	}
	for _, c := range []struct {
		rule string
		want [2]string // substrings of the planted finding's message
	}{
		{"shardsafety", [2]string{"serve.(Engine).queue", "default"}},
		{"waitgraph", [2]string{"never fired", "more"}},
	} {
		t.Run(c.rule, func(t *testing.T) {
			as, err := analysis.ByName(c.rule)
			if err != nil {
				t.Fatalf("resolve analyzer: %v", err)
			}
			findings, err := analysis.RunModule(m, analysis.Config{Analyzers: as})
			if err != nil {
				t.Fatalf("run planted module: %v", err)
			}
			for _, f := range findings {
				if strings.Contains(f.Message, c.want[0]) && strings.Contains(f.Message, c.want[1]) {
					return
				}
			}
			t.Fatalf("planted bug not caught; findings: %v", findings)
		})
	}
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
