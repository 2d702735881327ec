package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"strconv"
	"strings"
)

// MapOrder flags range statements over maps whose body has order-dependent
// effects: appending to a slice, writing output, sending on a channel, or
// posting simulator events. Go randomizes map iteration order on purpose,
// so any such loop emits results in a different order every run — the exact
// failure mode that would corrupt regenerated tables while every unit test
// of the underlying math still passes. Order-independent bodies
// (accumulating a sum, filling another map, counting) are fine. Collect the
// keys, sort them, and range over the sorted slice instead.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration with order-dependent effects; sort the keys first",
	Run:  runMapOrder,
}

// orderDependentCall classifies callee names whose invocation inside a map
// range makes iteration order observable.
func orderDependentCall(name string) string {
	switch {
	case strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
		strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Encode"):
		return "writes output"
	case name == "Spawn" || name == "SpawnAt" || name == "SpawnStep" || name == "SpawnStepAt" ||
		name == "Fire" || name == "Launch" || name == "schedule":
		return "posts simulator events"
	}
	return ""
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if reason := mapOrderEffect(rng.Body); reason != "" {
				pass.ReportFixf(rng.Pos(), maporderFix(pass, f, rng),
					"map iteration order is random and this body %s; sort the keys and range over the sorted slice", reason)
			}
			return true
		})
	}
}

// maporderFix rewrites an eligible map range into the repo's sorted-keys
// idiom:
//
//	keys := make([]K, 0, len(m))
//	for k := range m { //cdivet:allow maporder keys are collected unordered and sorted on the next line
//		keys = append(keys, k)
//	}
//	sort.Strings(keys)
//	for _, k := range keys {
//		v := m[k]
//		...
//
// Eligible means: the key is a plain := ident, the key type is string, int,
// or float64 (the types sort has a dedicated helper for), and the map
// expression is a side-effect-free ident/selector chain so repeating it in
// len() and the index lookup is safe. Anything fancier gets a nil fix and
// stays a report-only finding.
func maporderFix(pass *Pass, file *ast.File, rng *ast.RangeStmt) *Fix {
	if rng.Tok != token.DEFINE {
		return nil
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" || !sideEffectFree(rng.X) {
		return nil
	}
	mt, ok := pass.Info.Types[rng.X].Type.Underlying().(*types.Map)
	if !ok {
		return nil
	}
	b, ok := mt.Key().Underlying().(*types.Basic)
	if !ok {
		return nil
	}
	var sortFn, keyType string
	switch b.Kind() {
	case types.String:
		sortFn, keyType = "sort.Strings", "string"
	case types.Int:
		sortFn, keyType = "sort.Ints", "int"
	case types.Float64:
		sortFn, keyType = "sort.Float64s", "float64"
	default:
		return nil
	}

	// Pick a slice name that shadows nothing visible at the loop.
	name := ""
	scope := pass.Pkg.Scope().Innermost(rng.Pos())
	for _, cand := range []string{"keys", "sortedKeys"} {
		var obj types.Object
		if scope != nil {
			_, obj = scope.LookupParent(cand, rng.Pos())
		}
		if obj == nil {
			name = cand
			break
		}
	}
	if name == "" {
		return nil
	}

	fset := pass.Fset
	src, err := os.ReadFile(fset.Position(rng.Pos()).Filename)
	if err != nil {
		return nil
	}
	pos := fset.Position(rng.Pos())
	tf := fset.File(rng.Pos())
	lineStart := tf.Offset(tf.LineStart(pos.Line))
	indent := string(src[lineStart:pos.Offset])
	if strings.TrimSpace(indent) != "" {
		return nil // `for` shares its line with other code; don't guess layout
	}
	mapText := string(src[fset.Position(rng.X.Pos()).Offset:fset.Position(rng.X.End()).Offset])

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s := make([]%s, 0, len(%s))\n", name, keyType, mapText)
	fmt.Fprintf(&sb, "%sfor %s := range %s { //cdivet:allow maporder keys are collected unordered and sorted on the next line\n", indent, key.Name, mapText)
	fmt.Fprintf(&sb, "%s\t%s = append(%s, %s)\n", indent, name, name, key.Name)
	fmt.Fprintf(&sb, "%s}\n", indent)
	fmt.Fprintf(&sb, "%s%s(%s)\n", indent, sortFn, name)
	fmt.Fprintf(&sb, "%sfor _, %s := range %s {", indent, key.Name, name)
	if v, ok := rng.Value.(*ast.Ident); ok && v.Name != "_" {
		fmt.Fprintf(&sb, "\n%s\t%s := %s[%s]", indent, v.Name, mapText, key.Name)
	}

	fix := &Fix{
		Message: "collect the keys, sort them, and range over the sorted slice",
		Edits: []TextEdit{{
			File:   pos.Filename,
			Offset: pos.Offset,
			End:    fset.Position(rng.Body.Lbrace).Offset + 1,
			Text:   sb.String(),
		}},
	}
	if imp := importEdit(fset, file, "sort"); imp != nil {
		fix.Edits = append(fix.Edits, *imp)
	} else if !importsPackage(file, "sort") {
		return nil
	}
	return fix
}

// sideEffectFree reports whether repeating the expression is safe: a bare
// identifier or a selector chain of identifiers (no calls, no indexing).
func sideEffectFree(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return sideEffectFree(e.X)
	}
	return false
}

// importsPackage reports whether the file already imports path.
func importsPackage(f *ast.File, path string) bool {
	for _, spec := range f.Imports {
		if p, err := strconv.Unquote(spec.Path.Value); err == nil && p == path {
			return true
		}
	}
	return false
}

// importEdit returns a TextEdit adding `path` to the file's parenthesized
// import block in sorted position, or nil when the import already exists or
// the file has no parenthesized block to extend (nil, false case is
// distinguished by importsPackage at the caller).
func importEdit(fset *token.FileSet, f *ast.File, path string) *TextEdit {
	if importsPackage(f, path) {
		return nil
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT || !gd.Lparen.IsValid() {
			continue
		}
		for _, spec := range gd.Specs {
			is := spec.(*ast.ImportSpec)
			p, err := strconv.Unquote(is.Path.Value)
			if err != nil || p < path {
				continue
			}
			off := fset.Position(is.Pos()).Offset
			return &TextEdit{File: fset.Position(is.Pos()).Filename, Offset: off, End: off, Text: strconv.Quote(path) + "\n\t"}
		}
		off := fset.Position(gd.Rparen).Offset
		return &TextEdit{File: fset.Position(gd.Rparen).Filename, Offset: off, End: off, Text: "\t" + strconv.Quote(path) + "\n"}
	}
	return nil
}

// mapOrderEffect scans a map-range body for the first order-dependent
// effect and names it ("" when the body is order-independent).
func mapOrderEffect(body *ast.BlockStmt) string {
	reason := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			reason = "sends on a channel"
			return false
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" {
					reason = "appends to a slice"
					return false
				}
			case *ast.SelectorExpr:
				if r := orderDependentCall(fun.Sel.Name); r != "" {
					reason = r
					return false
				}
			}
		}
		return true
	})
	return reason
}
