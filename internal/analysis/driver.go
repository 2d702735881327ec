package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
)

// Config selects what to analyze.
type Config struct {
	// Patterns restrict the packages analyzed ("./..." when empty).
	Patterns []string
	// Analyzers defaults to the full suite (All).
	Analyzers []*Analyzer
}

// suite returns the analyzers cfg selects: its Analyzers, or All.
func (cfg Config) suite() []*Analyzer {
	if len(cfg.Analyzers) == 0 {
		return All()
	}
	return cfg.Analyzers
}

// RunModule applies the suite to every package of a loaded module that
// cfg's patterns match, returning suppression-filtered findings in stable
// (file, line, col, rule) order.
func RunModule(m *Module, cfg Config) ([]Finding, error) {
	analyzers := cfg.suite()

	var findings []Finding
	runPass := func(p *Package, files []*ast.File, tpkg *types.Package, info *types.Info) {
		if len(files) == 0 || tpkg == nil {
			return
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     m.Fset,
				Files:    files,
				Path:     p.Path,
				Pkg:      tpkg,
				Info:     info,
				findings: &findings,
			}
			a.Run(pass)
		}
	}

	var dirFiles []*ast.File
	matchedDirs := map[string]bool{}
	matched := 0
	for _, p := range m.Packages {
		if !m.Match(p, cfg.Patterns) {
			continue
		}
		matched++
		matchedDirs[p.Dir] = true
		runPass(p, p.Files, p.Types, p.Info)
		runPass(p, p.TestFiles, p.TestTypes, p.TestInfo)
		runPass(p, p.XTestFiles, p.XTypes, p.XInfo)
		dirFiles = append(dirFiles, p.Files...)
		dirFiles = append(dirFiles, p.TestFiles...)
		dirFiles = append(dirFiles, p.XTestFiles...)
	}

	if matched == 0 {
		return nil, fmt.Errorf("analysis: no packages match %v; a typo here would silently gate nothing", cfg.Patterns)
	}

	// Module-wide analyzers see every package (cross-package dataflow needs
	// the full call graph); their findings are then filtered to the matched
	// packages so `cdivet ./internal/sim` reports on internal/sim only.
	var moduleFindings []Finding
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{Analyzer: a, Module: m, findings: &moduleFindings}
		a.RunModule(mp)
	}
	for _, f := range moduleFindings {
		if matchedDirs[filepath.Dir(f.File)] {
			findings = append(findings, f)
		}
	}

	enabled := map[string]bool{}
	for _, a := range analyzers {
		enabled[a.Name] = true
	}
	dirs := parseDirectives(m.Fset, dirFiles)
	findings = applySuppression(m.Fset, findings, dirs, enabled)
	sortFindings(findings)
	return findings, nil
}
