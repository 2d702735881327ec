package analysis

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// -update regenerates the committed golden files from current output.
var update = flag.Bool("update", false, "rewrite golden files")

// TestCrossPackageMiss is the existence proof for the module-wide layer:
// the taint corpus's producer package leaks map iteration order through a
// return value, which the per-file maporder rule provably misses (zero
// findings), while taint reports it at the emitting sink one package away.
func TestCrossPackageMiss(t *testing.T) {
	m, err := LoadDirAs(filepath.Join("testdata", "taint"), corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	perFile, err := RunModule(m, Config{Analyzers: []*Analyzer{MapOrder}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range perFile {
		// The corpus root deliberately holds a local (same-file) positive;
		// the proof is that the producer package — where the nondeterminism
		// is minted — shows nothing to the per-file rule.
		if strings.Contains(f.File, "producer") {
			t.Errorf("per-file maporder unexpectedly found: %s", f)
		}
	}

	crossPkg, err := RunModule(m, Config{Analyzers: []*Analyzer{Taint}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range crossPkg {
		if strings.Contains(f.Message, "(via producer.ArbitraryKey)") && strings.HasSuffix(f.File, "taint.go") {
			found = true
		}
	}
	if !found {
		t.Errorf("taint did not report the cross-package leak; findings: %v", crossPkg)
	}
}

// copyFixCorpus clones the fixable corpus into a scratch dir so ApplyFixes
// can read (and the test write) real files without touching testdata.
func copyFixCorpus(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "fix", "src")
	tmp := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return tmp
}

// fixCorpus analyzes the scratch copy under the rules with mechanical
// fixes and computes every fix. (The full suite would also report taint at
// the same loops — correct, but fixless by design: taint cannot know which
// laundering is right.)
func fixCorpus(t *testing.T, dir string) *FixResult {
	t.Helper()
	m, err := LoadDirAs(dir, corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunModule(m, Config{Analyzers: []*Analyzer{MapOrder, SeededRand}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Fix == nil || len(f.Fix.Edits) == 0 {
			t.Errorf("finding in fix corpus carries no fix: %s", f)
		}
	}
	res, err := ApplyFixes(findings)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) > 0 {
		t.Fatalf("fixes skipped as conflicting: %v", res.Skipped)
	}
	return res
}

func sortedFiles(fixed map[string][]byte) []string {
	files := make([]string, 0, len(fixed))
	for f := range fixed { //cdivet:allow maporder keys are collected unordered and sorted on the next line
		files = append(files, f)
	}
	sort.Strings(files)
	return files
}

func compareGolden(t *testing.T, goldenPath string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden:\n%s", goldenPath,
			UnifiedDiff("golden", "got", want, got))
	}
}

// TestFixGolden: cdivet -fix over the corpus must produce byte-identical
// output to the committed goldens, and the fixed files must re-analyze
// completely clean.
func TestFixGolden(t *testing.T) {
	tmp := copyFixCorpus(t)
	res := fixCorpus(t, tmp)
	for _, file := range sortedFiles(res.Fixed) {
		if err := os.WriteFile(file, res.Fixed[file], 0o644); err != nil {
			t.Fatal(err)
		}
		compareGolden(t, filepath.Join("testdata", "fix", "golden", filepath.Base(file)+".golden"), res.Fixed[file])
	}

	m, err := LoadDirAs(tmp, corpusPath)
	if err != nil {
		t.Fatalf("fixed corpus no longer loads: %v", err)
	}
	findings, err := RunModule(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("fixed corpus still reports: %s", f)
	}
}

// TestFixDiffGolden: the -fix -diff rendering is stable.
func TestFixDiffGolden(t *testing.T) {
	tmp := copyFixCorpus(t)
	res := fixCorpus(t, tmp)
	var sb strings.Builder
	for _, file := range sortedFiles(res.Fixed) {
		old, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(UnifiedDiff(filepath.Base(file), filepath.Base(file), old, res.Fixed[file]))
	}
	compareGolden(t, filepath.Join("testdata", "fix", "diff.golden"), []byte(sb.String()))
}

// TestSARIFGolden pins the SARIF 2.1.0 rendering, relative URIs included.
func TestSARIFGolden(t *testing.T) {
	m, err := LoadDirAs(filepath.Join("testdata", "simunits"), corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunModule(m, Config{Analyzers: []*Analyzer{SimUnits}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, findings, m.Root); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "sarif.golden"), buf.Bytes())
}

// TestBaselineRoundTrip: a baseline cut from the current findings swallows
// exactly those findings, counts duplicate messages, survives a write/read
// cycle, and reports entries that stop matching as stale.
func TestBaselineRoundTrip(t *testing.T) {
	m, err := LoadDirAs(filepath.Join("testdata", "simunits"), corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Analyzers: []*Analyzer{SimUnits}}
	findings, err := RunModule(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("corpus produced no findings to baseline")
	}

	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, NewBaseline(findings, m.Root)); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	kept, suppressed := b.Filter(findings, m.Root)
	if len(kept) != 0 || suppressed != len(findings) {
		t.Errorf("self-filter kept %d findings (suppressed %d of %d)", len(kept), suppressed, len(findings))
	}
	if stale := b.Stale(findings, m, cfg); len(stale) != 0 {
		t.Errorf("fresh baseline reports stale entries: %v", stale)
	}

	// A finding beyond the baselined count survives the filter.
	extra := append([]Finding{}, findings...)
	extra = append(extra, findings[0])
	kept, _ = b.Filter(extra, m.Root)
	if len(kept) != 1 {
		t.Errorf("duplicate finding beyond baseline count: kept %d, want 1", len(kept))
	}

	// Entries with no live finding are stale.
	if stale := b.Stale(nil, m, cfg); len(stale) != len(b.Entries) {
		t.Errorf("all-gone baseline: %d stale, want %d", len(stale), len(b.Entries))
	}
}

// TestBaselinePrune: Prune drops entries with no live finding, trims counts
// down to the live occurrence count, leaves justified entries alone, and
// the pruned baseline survives a write/read cycle still covering exactly
// the live findings.
func TestBaselinePrune(t *testing.T) {
	m, err := LoadDirAs(filepath.Join("testdata", "simunits"), corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Analyzers: []*Analyzer{SimUnits}}
	findings, err := RunModule(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) < 2 {
		t.Fatalf("corpus produced %d findings; need at least 2", len(findings))
	}

	// Cut a baseline from an inflated view of the findings: every finding
	// duplicated (counts of 2), plus a phantom that never occurs.
	inflated := append(append([]Finding{}, findings...), findings...)
	phantom := findings[0]
	phantom.Message = "phantom finding that no longer occurs"
	inflated = append(inflated, phantom)
	b := NewBaseline(inflated, m.Root)

	pruned, removed, trimmed := b.Prune(findings, m, cfg)
	if len(removed) != 1 || removed[0].Message != phantom.Message {
		t.Errorf("removed = %v, want just the phantom", removed)
	}
	if len(trimmed) == 0 {
		t.Error("inflated counts were not trimmed")
	}
	for _, e := range trimmed {
		if e.Count <= 0 {
			t.Errorf("trimmed entry reports non-positive cut %d", e.Count)
		}
	}

	// The pruned baseline still swallows the live findings exactly...
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, pruned); err != nil {
		t.Fatal(err)
	}
	pruned, err = ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	kept, suppressed := pruned.Filter(findings, m.Root)
	if len(kept) != 0 || suppressed != len(findings) {
		t.Errorf("pruned baseline kept %d findings (suppressed %d of %d)", len(kept), suppressed, len(findings))
	}
	// ...with no slack left: one extra copy of any finding now fails.
	extra := append(append([]Finding{}, findings...), findings[0])
	if kept, _ := pruned.Filter(extra, m.Root); len(kept) != 1 {
		t.Errorf("pruned baseline left slack: kept %d of the extra copy, want 1", len(kept))
	}

	// Pruning a minimal baseline is the identity.
	again, removed, trimmed := pruned.Prune(findings, m, cfg)
	if len(removed) != 0 || len(trimmed) != 0 {
		t.Errorf("pruning a minimal baseline changed it: removed %v trimmed %v", removed, trimmed)
	}
	if len(again.Entries) != len(pruned.Entries) {
		t.Errorf("idempotent prune lost entries: %d -> %d", len(pruned.Entries), len(again.Entries))
	}
}

// TestBaselineSubsetScope: a run restricted by rule or by package judges
// only the baseline entries it could have produced. A subset Stale reports
// none of the others and a subset Prune keeps them untouched, while an
// entry for a rule the suite no longer has is judged, so a full run reports
// it stale.
func TestBaselineSubsetScope(t *testing.T) {
	m, err := LoadDirAs(filepath.Join("testdata", "simunits"), corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunModule(m, Config{Analyzers: []*Analyzer{SimUnits}})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBaseline(findings, m.Root)
	for _, e := range b.Entries {
		if strings.HasPrefix(e.File, "internal/") {
			t.Fatalf("corpus finding %v is inside ./internal/sim; the package subset below would judge it", e)
		}
	}

	for _, sub := range []struct {
		name string
		cfg  Config
	}{
		{"rules", Config{Analyzers: []*Analyzer{MapOrder}}},
		{"packages", Config{Analyzers: []*Analyzer{SimUnits}, Patterns: []string{"./internal/sim"}}},
	} {
		subFindings, err := RunModule(m, sub.cfg)
		if err != nil {
			t.Fatalf("%s subset: %v", sub.name, err)
		}
		if stale := b.Stale(subFindings, m, sub.cfg); len(stale) != 0 {
			t.Errorf("%s subset reports out-of-scope entries stale: %v", sub.name, stale)
		}
		pruned, removed, trimmed := b.Prune(subFindings, m, sub.cfg)
		if len(removed) != 0 || len(trimmed) != 0 || !reflect.DeepEqual(pruned.Entries, b.Entries) {
			t.Errorf("%s subset prune changed out-of-scope entries: removed %v trimmed %v", sub.name, removed, trimmed)
		}
	}

	retired := BaselineEntry{Rule: "retired", File: b.Entries[0].File, Message: "a rule that was deleted", Count: 1}
	b.Entries = append(b.Entries, retired)
	if stale := b.Stale(findings, m, Config{}); len(stale) != 1 || stale[0] != retired {
		t.Errorf("full run: stale = %v, want just the retired-rule entry", stale)
	}
}
