package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path"
	"path/filepath"
)

// A baseline lets a new analyzer land strict-for-new-code: known findings
// are recorded once (cdivet -write-baseline) and suppressed on later runs
// (cdivet -baseline), so the gate only fails on findings introduced after
// the baseline was cut. Entries are keyed by (rule, module-relative file,
// message) — deliberately NOT by line, so unrelated edits above a baselined
// finding don't resurrect it. Identical findings are counted: if a file
// gains a second copy of a baselined finding, the new copy still fails.
type BaselineEntry struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Message string `json:"message"`
	Count   int    `json:"count"`
}

type Baseline struct {
	Version int             `json:"version"`
	Entries []BaselineEntry `json:"entries"`
}

func baselineKey(rule, relFile, message string) string {
	return rule + "\x00" + relFile + "\x00" + message
}

// NewBaseline records the given findings relative to the module root.
func NewBaseline(findings []Finding, root string) *Baseline {
	counts := map[string]*BaselineEntry{}
	var order []string
	for _, f := range findings {
		rel := relURI(root, f.File)
		k := baselineKey(f.Rule, rel, f.Message)
		if e, ok := counts[k]; ok {
			e.Count++
			continue
		}
		counts[k] = &BaselineEntry{Rule: f.Rule, File: rel, Message: f.Message, Count: 1}
		order = append(order, k)
	}
	b := &Baseline{Version: 1}
	for _, k := range order {
		b.Entries = append(b.Entries, *counts[k])
	}
	return b
}

// WriteBaseline saves the baseline as indented JSON.
func WriteBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBaseline loads a baseline file.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("analysis: reading baseline: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("analysis: parsing baseline %s: %w", path, err)
	}
	if b.Version != 1 {
		return nil, fmt.Errorf("analysis: baseline %s has unsupported version %d", path, b.Version)
	}
	return &b, nil
}

// Filter drops findings covered by the baseline (respecting counts) and
// returns the survivors plus the number suppressed.
func (b *Baseline) Filter(findings []Finding, root string) ([]Finding, int) {
	budget := map[string]int{}
	for _, e := range b.Entries {
		c := e.Count
		if c <= 0 {
			c = 1
		}
		budget[baselineKey(e.Rule, filepath.ToSlash(e.File), e.Message)] += c
	}
	var kept []Finding
	suppressed := 0
	for _, f := range findings {
		k := baselineKey(f.Rule, relURI(root, f.File), f.Message)
		if budget[k] > 0 {
			budget[k]--
			suppressed++
			continue
		}
		kept = append(kept, f)
	}
	return kept, suppressed
}

// inScope returns the test for which baseline entries a run of cfg over m
// can judge. An entry is out of scope when its rule belongs to the suite but
// cfg does not enable it, or when its file lies outside the packages cfg's
// patterns match: the run cannot have produced its finding either way. An
// entry naming a rule the suite no longer has stays in scope, so a run over
// its file reports it stale.
func inScope(m *Module, cfg Config) func(BaselineEntry) bool {
	enabled := map[string]bool{}
	for _, a := range cfg.suite() {
		enabled[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	dirs := map[string]bool{}
	for _, p := range m.Packages {
		if m.Match(p, cfg.Patterns) {
			dirs[relURI(m.Root, p.Dir)] = true
		}
	}
	return func(e BaselineEntry) bool {
		if known[e.Rule] && !enabled[e.Rule] {
			return false
		}
		return dirs[path.Dir(filepath.ToSlash(e.File))]
	}
}

// Prune shrinks the baseline to what the findings of a run of cfg over m
// still justify: in-scope entries with no live match are dropped, and
// entries whose count exceeds the live occurrence count are trimmed down to
// it. Entries the run cannot judge (see inScope) are kept as they are. It
// returns the new baseline plus the entries removed outright and the
// entries whose counts were reduced (with Count set to the amount trimmed).
// Unlike re-cutting with -write-baseline, pruning can only shrink the debt
// — it never absorbs new findings.
func (b *Baseline) Prune(findings []Finding, m *Module, cfg Config) (pruned *Baseline, removed, trimmed []BaselineEntry) {
	live := map[string]int{}
	for _, f := range findings {
		live[baselineKey(f.Rule, relURI(m.Root, f.File), f.Message)]++
	}
	judged := inScope(m, cfg)
	pruned = &Baseline{Version: b.Version}
	out := pruned
	for _, e := range b.Entries {
		if !judged(e) {
			out.Entries = append(out.Entries, e)
			continue
		}
		k := baselineKey(e.Rule, filepath.ToSlash(e.File), e.Message)
		c := e.Count
		if c <= 0 {
			c = 1
		}
		n := live[k]
		live[k] = 0 // duplicate entries for one key must not double-claim
		switch {
		case n == 0:
			removed = append(removed, e)
		case n < c:
			kept := e
			kept.Count = n
			out.Entries = append(out.Entries, kept)
			cut := e
			cut.Count = c - n
			trimmed = append(trimmed, cut)
		default:
			out.Entries = append(out.Entries, e)
		}
	}
	return out, removed, trimmed
}

// Stale returns the in-scope baseline entries (see inScope) that no
// finding of a run of cfg over m matches any more — the signal to re-cut or
// prune the baseline file.
func (b *Baseline) Stale(findings []Finding, m *Module, cfg Config) []BaselineEntry {
	live := map[string]int{}
	for _, f := range findings {
		live[baselineKey(f.Rule, relURI(m.Root, f.File), f.Message)]++
	}
	judged := inScope(m, cfg)
	var stale []BaselineEntry
	for _, e := range b.Entries {
		if judged(e) && live[baselineKey(e.Rule, filepath.ToSlash(e.File), e.Message)] == 0 {
			stale = append(stale, e)
		}
	}
	return stale
}
