package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"strconv"
	"strings"
)

// Hotpath flags per-iteration allocation patterns in functions reachable
// from the benchmark call graph and the configured steady-state roots:
// string concatenation and fmt.Sprintf/fmt.Errorf in iteration bodies,
// append into a loop-grown local slice with no capacity hint, and boxing
// into interface{}/any (variadic ...any calls and implicit interface
// conversions of non-pointer values). Heap allocations proper (make, new,
// composite literals) are left to the benchmark gate's allocs/op check,
// which counts what the compiler actually puts on the heap.
//
// A finding requires loop context: the site sits inside a lexical for/range
// loop, or the function itself is only entered from inside one (the looped
// bit propagates along call edges). Benchmark harness loops (`for i < b.N`,
// `for b.Loop()`) are not loop context — they wrap complete runs, not
// iterations.
var Hotpath = &Analyzer{
	Name:      "hotpath",
	Doc:       "per-iteration allocation patterns (Sprintf, string +, bare append, interface boxing) in benchmark-reachable code",
	RunModule: runHotpath,
}

func runHotpath(mp *ModulePass) {
	g := callGraphFor(mp.Module)
	h := computeHotness(g)
	for _, n := range g.nodes {
		hf := h.fns[n]
		if hf == nil || analysisExempt(n) {
			continue
		}
		checkHotFunc(mp, n, hf)
	}
}

// checkHotFunc scans one hot function body for allocation patterns.
func checkHotFunc(mp *ModulePass, n *funcNode, hf *hotFunc) {
	info := n.pkg.Info
	// skipConcat suppresses the operands of an already-reported string
	// concatenation chain, so a+b+c is one finding, not two.
	skipConcat := map[ast.Expr]bool{}
	panics := panicArgRanges(info, n.decl.Body)
	returns := returnRanges(n.decl.Body)
	hot := func(pos token.Pos) bool {
		return (hf.looped || inLoop(hf.loops, pos)) && !inRanges(panics, pos)
	}

	checkAppendCap(mp, n, hf)

	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			checkHotCall(mp, n, hf, info, node, hot, returns)
		case *ast.BinaryExpr:
			if node.Op != token.ADD || skipConcat[node] || !hot(node.OpPos) {
				return true
			}
			tv, ok := info.Types[node]
			if !ok || !isString(tv.Type) || tv.Value != nil {
				return true // not a string, or fully constant-folded
			}
			if concatPreformatted(info, node) {
				return true
			}
			for _, sub := range []ast.Expr{node.X, node.Y} {
				if b, ok := ast.Unparen(sub).(*ast.BinaryExpr); ok && b.Op == token.ADD {
					skipConcat[b] = true
				}
			}
			mp.Reportf(node.OpPos,
				"string concatenation allocates every iteration on a hot path (%s); build once outside the loop or use a cached/preformatted value", hf.root)
		case *ast.AssignStmt:
			if node.Tok != token.ADD_ASSIGN || len(node.Lhs) != 1 || !hot(node.TokPos) {
				return true
			}
			if tv, ok := info.Types[node.Lhs[0]]; ok && isString(tv.Type) {
				mp.Reportf(node.TokPos,
					"string += reallocates the whole string every iteration on a hot path (%s); use a strings.Builder or restructure", hf.root)
			}
		}
		return true
	})
}

// checkHotCall flags fmt.Sprintf/fmt.Errorf and interface-boxing call
// patterns at a hot call site. fmt.Errorf inside a return statement is the
// idiomatic cold failure path and stays quiet.
func checkHotCall(mp *ModulePass, n *funcNode, hf *hotFunc, info *types.Info, call *ast.CallExpr, hot func(token.Pos) bool, returns []posRange) {
	if !hot(call.Pos()) {
		return
	}

	// Conversion to an interface type boxes its operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if atv, ok := info.Types[call.Args[0]]; ok && !isPointerLike(atv.Type) && !types.IsInterface(atv.Type) {
				mp.Reportf(call.Pos(),
					"conversion to %s boxes a %s on a hot path (%s); keep the concrete type or hoist the conversion",
					types.TypeString(tv.Type, shortQualifier), atv.Type.String(), hf.root)
			}
		}
		return
	}

	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if fn, ok := calledFunc(info, call); ok {
		if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" && sel != nil {
			switch fn.Name() {
			case "Sprintf":
				fix := sprintfFix(mp, n, call)
				mp.ReportFixf(call.Pos(), fix,
					"fmt.Sprintf allocates (format parse + result) every iteration on a hot path (%s); use strconv or plain concatenation of preformatted parts", hf.root)
				return
			case "Errorf":
				if inRanges(returns, call.Pos()) {
					return // `return fmt.Errorf(...)`: cold failure path
				}
				mp.Reportf(call.Pos(),
					"fmt.Errorf allocates every iteration on a hot path (%s); hoist a sentinel error or build it lazily on the failure branch", hf.root)
				return
			}
		}

		// Variadic ...any parameter: every non-interface, non-pointer-like
		// argument is boxed into an interface at the call.
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Variadic() && call.Ellipsis == token.NoPos {
			last := sig.Params().Len() - 1
			if last >= 0 {
				slice, ok := sig.Params().At(last).Type().(*types.Slice)
				if ok && types.IsInterface(slice.Elem()) {
					boxed := 0
					for i := last; i < len(call.Args); i++ {
						atv, ok := info.Types[call.Args[i]]
						if ok && !types.IsInterface(atv.Type) && !isPointerLike(atv.Type) && atv.Value == nil {
							boxed++
						}
					}
					if boxed > 0 {
						mp.Reportf(call.Pos(),
							"call boxes %d value(s) into a variadic %s parameter every iteration on a hot path (%s); use a concrete-typed helper or hoist the call",
							boxed, types.TypeString(slice.Elem(), shortQualifier), hf.root)
					}
				}
			}
		}
	}
}

// checkAppendCap reports loop-grown local slices declared with no capacity
// hint: `var x []T` / `x := []T{}` / `x := make([]T, 0)` followed by
// `x = append(x, ...)` inside a loop that does not contain the declaration.
// The fix rewrites the declaration to `make([]T, 0, bound)` when a safe
// bound is evident from the loop shape; `var x []T` declarations stay
// report-only (rewriting nil to an empty slice changes encoding/json
// output).
func checkAppendCap(mp *ModulePass, n *funcNode, hf *hotFunc) {
	info := n.pkg.Info

	type tracked struct {
		obj     types.Object
		stmt    ast.Stmt
		rhs     ast.Expr // nil for `var x []T`
		appends []*ast.CallExpr
		escapes bool // address taken / reassigned — be conservative
	}
	vars := map[types.Object]*tracked{}
	var order []*tracked // declaration order, for deterministic reporting

	// Pass 1: find candidate declarations of local nil/empty slices.
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			if node.Tok != token.DEFINE || len(node.Lhs) != 1 || len(node.Rhs) != 1 {
				return true
			}
			id, ok := node.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Defs[id]
			if obj == nil || !isSlice(obj.Type()) {
				return true
			}
			if emptySliceExpr(info, node.Rhs[0]) {
				t := &tracked{obj: obj, stmt: node, rhs: node.Rhs[0]}
				vars[obj] = t
				order = append(order, t)
			}
		case *ast.DeclStmt:
			gd, ok := node.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 || len(vs.Names) != 1 {
					continue
				}
				obj := info.Defs[vs.Names[0]]
				if obj != nil && isSlice(obj.Type()) {
					t := &tracked{obj: obj, stmt: node}
					vars[obj] = t
					order = append(order, t)
				}
			}
		}
		return true
	})
	if len(vars) == 0 {
		return
	}

	// Pass 2: collect appends and disqualifying uses.
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) keeps the var tracked; any other
			// reassignment disqualifies it.
			for i, lhs := range node.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				t := vars[info.Uses[id]]
				if t == nil {
					continue
				}
				if node.Tok == token.ASSIGN && i < len(node.Rhs) {
					if call := appendToSame(info, node.Rhs[i], t.obj); call != nil {
						t.appends = append(t.appends, call)
						continue
					}
				}
				if node.Tok != token.DEFINE {
					t.escapes = true
				}
			}
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if id, ok := ast.Unparen(node.X).(*ast.Ident); ok {
					if t := vars[info.Uses[id]]; t != nil {
						t.escapes = true
					}
				}
			}
		}
		return true
	})

	// Report: every append inside a loop whose body excludes the decl.
	for _, t := range order {
		if t.escapes || len(t.appends) == 0 {
			continue
		}
		var growLoop *loopInfo
		grown := false
		uniform := true
		for _, call := range t.appends {
			for i := range hf.loops {
				l := &hf.loops[i]
				if l.body.Pos() <= call.Pos() && call.Pos() <= l.body.End() &&
					!(l.body.Pos() <= t.stmt.Pos() && t.stmt.Pos() <= l.body.End()) {
					grown = true
					if growLoop == nil {
						growLoop = l
					} else if growLoop != l {
						uniform = false
					}
				}
			}
		}
		if !grown {
			continue
		}
		var fix *Fix
		if uniform && t.rhs != nil {
			fix = appendCapFix(mp, n, t.rhs, growLoop)
		}
		mp.ReportFixf(t.stmt.Pos(), fix,
			"slice %s is grown by append inside a loop with no capacity hint on a hot path (%s); preallocate with make(cap) or reuse a buffer across iterations",
			t.obj.Name(), hf.root)
	}
}

// appendToSame returns the append call if rhs is `append(x, ...)` where x
// denotes obj.
func appendToSame(info *types.Info, rhs ast.Expr, obj types.Object) *ast.CallExpr {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) < 2 {
		return nil
	}
	if bi, ok := info.Uses[fn].(*types.Builtin); !ok || bi.Name() != "append" {
		return nil
	}
	arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || info.Uses[arg0] != obj {
		return nil
	}
	return call
}

// appendCapFix rewrites an empty-slice declaration RHS to a
// capacity-hinted make when the growing loop has an evident trip-count
// bound: `for range X` / `for _, v := range X` gives len(X) (X
// side-effect-free), `for i := 0; i < N; i++` gives N (N a side-effect-free
// expression or constant).
func appendCapFix(mp *ModulePass, n *funcNode, rhs ast.Expr, loop *loopInfo) *Fix {
	bound := loopBound(mp.Module.Fset, n, loop)
	if bound == "" {
		return nil
	}
	elem := sliceElemText(mp.Module.Fset, n, rhs)
	if elem == "" {
		return nil
	}
	fset := mp.Module.Fset
	pos := fset.Position(rhs.Pos())
	end := fset.Position(rhs.End())
	return &Fix{
		Message: fmt.Sprintf("preallocate: make([]%s, 0, %s)", elem, bound),
		Edits: []TextEdit{{
			File:   pos.Filename,
			Offset: pos.Offset,
			End:    end.Offset,
			Text:   fmt.Sprintf("make([]%s, 0, %s)", elem, bound),
		}},
	}
}

// loopBound extracts a safe capacity expression from a loop header, or "".
func loopBound(fset *token.FileSet, n *funcNode, loop *loopInfo) string {
	src := sourceOf(fset, loop.node.Pos())
	if src == nil {
		return ""
	}
	exprText := func(e ast.Expr) string {
		return string(src[fset.Position(e.Pos()).Offset:fset.Position(e.End()).Offset])
	}
	switch l := loop.node.(type) {
	case *ast.RangeStmt:
		if !sideEffectFree(l.X) {
			return ""
		}
		if tv, ok := n.pkg.Info.Types[l.X]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Array, *types.Map:
				return "len(" + exprText(l.X) + ")"
			}
			if p, ok := tv.Type.Underlying().(*types.Pointer); ok {
				if _, ok := p.Elem().Underlying().(*types.Array); ok {
					return "len(" + exprText(l.X) + ")"
				}
			}
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				return exprText(l.X)
			}
		}
		return ""
	case *ast.ForStmt:
		// for i := 0; i < N; i++
		cond, ok := l.Cond.(*ast.BinaryExpr)
		if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
			return ""
		}
		if !sideEffectFreeOrLen(cond.Y) {
			return ""
		}
		init, ok := l.Init.(*ast.AssignStmt)
		if !ok || len(init.Rhs) != 1 {
			return ""
		}
		if lit, ok := ast.Unparen(init.Rhs[0]).(*ast.BasicLit); !ok || lit.Value != "0" {
			return ""
		}
		if cond.Op == token.LEQ {
			return exprText(cond.Y) + "+1"
		}
		return exprText(cond.Y)
	}
	return ""
}

// sideEffectFreeOrLen extends sideEffectFree with len(expr) of a
// side-effect-free expression.
func sideEffectFreeOrLen(e ast.Expr) bool {
	if sideEffectFree(e) {
		return true
	}
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "len" && len(call.Args) == 1 {
			return sideEffectFree(call.Args[0])
		}
	}
	if _, ok := ast.Unparen(e).(*ast.BasicLit); ok {
		return true
	}
	return false
}

// sliceElemText renders the element type of an empty-slice expression for
// use in a make() rewrite: []T{} gives T verbatim; make([]T, 0) likewise.
func sliceElemText(fset *token.FileSet, n *funcNode, rhs ast.Expr) string {
	src := sourceOf(fset, rhs.Pos())
	if src == nil {
		return ""
	}
	text := func(e ast.Expr) string {
		return string(src[fset.Position(e.Pos()).Offset:fset.Position(e.End()).Offset])
	}
	switch e := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		if at, ok := e.Type.(*ast.ArrayType); ok && at.Len == nil {
			return text(at.Elt)
		}
	case *ast.CallExpr:
		if len(e.Args) >= 1 {
			if at, ok := ast.Unparen(e.Args[0]).(*ast.ArrayType); ok && at.Len == nil {
				return text(at.Elt)
			}
		}
	}
	return ""
}

// emptySliceExpr reports whether e is `[]T{}` or `make([]T, 0)` — an empty
// slice with no capacity hint.
func emptySliceExpr(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		at, ok := e.Type.(*ast.ArrayType)
		return ok && at.Len == nil && len(e.Elts) == 0
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) != 2 {
			return false
		}
		if bi, ok := info.Uses[id].(*types.Builtin); !ok || bi.Name() != "make" {
			return false
		}
		lit, ok := ast.Unparen(e.Args[1]).(*ast.BasicLit)
		return ok && lit.Value == "0"
	}
	return false
}

// sprintfFix rewrites simple fmt.Sprintf calls to strconv/concatenation:
// a constant format with exactly one verb and a matching simple argument.
// Covered: %d with int/int64, %s with string, %q with string (strconv.Quote),
// %v where the argument is already a string. Anything else returns nil and
// the finding stays report-only.
func sprintfFix(mp *ModulePass, n *funcNode, call *ast.CallExpr) *Fix {
	if len(call.Args) != 2 || call.Ellipsis != token.NoPos {
		return nil
	}
	info := n.pkg.Info
	ftv, ok := info.Types[call.Args[0]]
	if !ok || ftv.Value == nil || ftv.Value.Kind() != constant.String {
		return nil
	}
	format := constant.StringVal(ftv.Value)
	if strings.Count(format, "%") != 1 {
		return nil
	}
	i := strings.IndexByte(format, '%')
	if i+1 >= len(format) {
		return nil
	}
	verb := format[i+1]
	prefix, suffix := format[:i], format[i+2:]
	if strings.ContainsAny(prefix+suffix, "%") {
		return nil
	}

	atv, ok := info.Types[call.Args[1]]
	if !ok {
		return nil
	}
	b, _ := atv.Type.Underlying().(*types.Basic)

	fset := mp.Module.Fset
	src := sourceOf(fset, call.Pos())
	if src == nil {
		return nil
	}
	argText := string(src[fset.Position(call.Args[1].Pos()).Offset:fset.Position(call.Args[1].End()).Offset])
	argIsSimple := sideEffectFree(call.Args[1])
	wrap := func(s string) string {
		if argIsSimple {
			return s
		}
		return "(" + s + ")"
	}

	var core string
	needStrconv := false
	switch {
	case verb == 'd' && b != nil && b.Kind() == types.Int:
		core = "strconv.Itoa(" + argText + ")"
		needStrconv = true
	case verb == 'd' && b != nil && b.Kind() == types.Int64:
		core = "strconv.FormatInt(" + argText + ", 10)"
		needStrconv = true
	case (verb == 's' || verb == 'v') && b != nil && b.Kind() == types.String:
		core = wrap(argText)
	case verb == 'q' && b != nil && b.Kind() == types.String:
		core = "strconv.Quote(" + argText + ")"
		needStrconv = true
	default:
		return nil
	}

	repl := core
	if prefix != "" {
		repl = strconv.Quote(prefix) + " + " + repl
	}
	if suffix != "" {
		repl = repl + " + " + strconv.Quote(suffix)
	}

	pos := fset.Position(call.Pos())
	end := fset.Position(call.End())
	fix := &Fix{
		Message: "replace fmt.Sprintf with " + strings.SplitN(core, "(", 2)[0] + "-based formatting",
		Edits: []TextEdit{{
			File:   pos.Filename,
			Offset: pos.Offset,
			End:    end.Offset,
			Text:   repl,
		}},
	}
	if needStrconv {
		if imp := importEdit(fset, n.file, "strconv"); imp != nil {
			fix.Edits = append(fix.Edits, *imp)
		} else if !importsPackage(n.file, "strconv") {
			return nil
		}
	}
	// If this call is the file's only use of fmt, drop the import so the
	// fixed file still compiles. With other fmt uses the import stays.
	if fmtUses(info, n.file) == 1 {
		if del := removeImportEdit(fset, n.file, "fmt"); del != nil {
			fix.Edits = append(fix.Edits, *del)
		} else {
			return nil // lone import declaration; removal would need layout surgery
		}
	}
	return fix
}

// fmtUses counts identifier uses resolving into package fmt within file.
func fmtUses(info *types.Info, file *ast.File) int {
	count := 0
	ast.Inspect(file, func(node ast.Node) bool {
		sel, ok := node.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				count++
			}
		}
		return true
	})
	return count
}

// removeImportEdit deletes the import spec line for path from a
// parenthesized import block with at least two specs; it returns nil
// otherwise (deleting a whole single-import declaration is layout surgery
// this fix does not attempt).
func removeImportEdit(fset *token.FileSet, f *ast.File, path string) *TextEdit {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT || !gd.Lparen.IsValid() || len(gd.Specs) < 2 {
			continue
		}
		for _, spec := range gd.Specs {
			is := spec.(*ast.ImportSpec)
			p, err := strconv.Unquote(is.Path.Value)
			if err != nil || p != path {
				continue
			}
			tf := fset.File(is.Pos())
			pos := fset.Position(is.Pos())
			lineStart := tf.Offset(tf.LineStart(pos.Line))
			endOffset := fset.Position(is.End()).Offset
			// Consume the trailing newline so no blank line is left.
			if pos.Line < tf.LineCount() {
				endOffset = tf.Offset(tf.LineStart(pos.Line + 1))
			}
			return &TextEdit{File: pos.Filename, Offset: lineStart, End: endOffset, Text: ""}
		}
	}
	return nil
}

// sourceOf reads the source file containing pos (nil on error). Fix
// construction is a cold path; reading per fix keeps the loader simple.
func sourceOf(fset *token.FileSet, pos token.Pos) []byte {
	src, err := os.ReadFile(fset.Position(pos).Filename)
	if err != nil {
		return nil
	}
	return src
}

// calledFunc resolves the called *types.Func of a call expression (static
// calls only).
// concatPreformatted reports whether every leaf of a concatenation chain is
// a constant or a direct strconv call — the shape the sprintf fix produces
// ("concatenation of preformatted parts"). It costs one allocation and no
// format parse, so re-flagging it would make the suggested fix circular.
func concatPreformatted(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if b, ok := e.(*ast.BinaryExpr); ok && b.Op == token.ADD {
		return concatPreformatted(info, b.X) && concatPreformatted(info, b.Y)
	}
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := calledFunc(info, call)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "strconv"
}

func calledFunc(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// isPointerLike reports whether boxing a value of type t into an interface
// allocates nothing beyond the interface word: pointers, channels, maps,
// functions, and unsafe.Pointer are single-word and the runtime stores them
// directly.
func isPointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// shortQualifier renders package-qualified type names with the package base
// name only.
func shortQualifier(p *types.Package) string { return p.Name() }
