package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file builds the process context the waitgraph analyzer reads: the
// code regions of every function and function literal, the static edges
// between them, and the Env.Spawn/SpawnAt/SpawnStep/SpawnStepAt sites
// that start a region as a process.
//
// Calls through interfaces or function values contribute no edge, so code
// only reachable dynamically stays out of a process's reach rather than
// being wrongly attributed to it.

// procRegion is one unit of code: a declared function's body or a function
// literal's body (nested literals are their own regions).
type procRegion struct {
	node *funcNode    // non-nil for declared functions
	lit  *ast.FuncLit // non-nil for literals
	encl *procRegion  // lexically enclosing region, nil for declared functions
	pkg  *Package
	body *ast.BlockStmt

	// Static edges: direct callees (excluding calls inside nested
	// literals), and lexically nested literal regions that are not spawn
	// arguments (they may run on the enclosing proc).
	callees  []*procRegion
	children []*procRegion
}

// describe renders the region for messages: a declared function as
// pkg.(Recv).Name, a literal by the enclosing function it is defined in.
func (r *procRegion) describe() string {
	if r.node != nil {
		return describeFunc(r.node)
	}
	root := r.encl
	for root != nil && root.node == nil {
		root = root.encl
	}
	if root != nil {
		return "func literal in " + describeFunc(root.node)
	}
	return "func literal"
}

// inSimPackage reports whether the region belongs to internal/sim itself,
// which implements the machinery the rules reason about.
func (r *procRegion) inSimPackage() bool {
	return strings.HasSuffix(r.pkg.Path, "/internal/sim")
}

// spawnSite is one Env.Spawn/SpawnAt/SpawnStep/SpawnStepAt call.
type spawnSite struct {
	region  *procRegion // region containing the call
	call    *ast.CallExpr
	spawnee *procRegion // nil when the fn argument is not statically known
}

// procContext is the region and spawn model for one module.
type procContext struct {
	module  *Module
	g       *callGraph
	regions []*procRegion
	byNode  map[*funcNode]*procRegion
	byLit   map[*ast.FuncLit]*procRegion
	spawns  []spawnSite
}

// procContextFor returns the module's process context, built once.
func procContextFor(m *Module) *procContext {
	if m.procCtx == nil {
		m.procCtx = buildProcContext(m)
	}
	return m.procCtx
}

// buildProcContext builds regions over the call graph, resolves spawn
// sites, and links the static edges.
func buildProcContext(m *Module) *procContext {
	pc := &procContext{
		module: m,
		g:      callGraphFor(m),
		byNode: map[*funcNode]*procRegion{},
		byLit:  map[*ast.FuncLit]*procRegion{},
	}

	for _, n := range pc.g.nodes {
		r := &procRegion{node: n, pkg: n.pkg, body: n.decl.Body}
		pc.regions = append(pc.regions, r)
		pc.byNode[n] = r
		pc.buildLitRegions(r, n.decl.Body)
	}

	spawnArg := map[*ast.FuncLit]bool{}
	for _, r := range pc.regions {
		pc.resolveSpawns(r, spawnArg)
	}
	for _, r := range pc.regions {
		pc.linkEdges(r, spawnArg)
	}
	return pc
}

// buildLitRegions creates a region for every function literal nested in
// body, excluding literals inside deeper literals (those belong to their own
// parent region, built recursively).
func (pc *procContext) buildLitRegions(parent *procRegion, body *ast.BlockStmt) {
	inspectRegion(body, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		r := &procRegion{lit: lit, encl: parent, pkg: parent.pkg, body: lit.Body}
		pc.regions = append(pc.regions, r)
		pc.byLit[lit] = r
		pc.buildLitRegions(r, lit.Body)
		return false
	})
}

// inspectRegion walks the statements a region directly owns: the traversal
// descends into everything except nested function literals, which fn may
// observe (it is called on the literal) but whose bodies are skipped.
func inspectRegion(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(node ast.Node) bool {
		if !fn(node) {
			return false
		}
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false
		}
		return true
	})
}

// isSimType reports whether t is the named type internal/sim.<name>.
func isSimType(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "/internal/sim")
}

// simMethod resolves call to a method of internal/sim with the given
// receiver type name, returning the method name and receiver expression.
func simMethod(info *types.Info, call *ast.CallExpr, recvName string) (string, ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil, false
	}
	if pkg := fn.Pkg(); pkg == nil || !strings.HasSuffix(pkg.Path(), "/internal/sim") {
		return "", nil, false
	}
	if recvTypeName(sig.Recv().Type()) != recvName {
		return "", nil, false
	}
	return fn.Name(), sel.X, true
}

// resolveSpawns finds the spawn calls a region directly owns and resolves
// each one's spawnee. A step process body is a proc region like any
// other.
func (pc *procContext) resolveSpawns(r *procRegion, spawnArg map[*ast.FuncLit]bool) {
	info := r.pkg.Info
	inspectRegion(r.body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, _, ok := simMethod(info, call, "Env")
		if !ok || (name != "Spawn" && name != "SpawnAt" && name != "SpawnStep" && name != "SpawnStepAt") {
			return true
		}
		site := spawnSite{region: r, call: call, spawnee: pc.spawnedRegion(r, call, name)}
		if site.spawnee != nil {
			if lit := site.spawnee.lit; lit != nil {
				spawnArg[lit] = true
			}
		}
		pc.spawns = append(pc.spawns, site)
		return true
	})
}

// spawnedRegion resolves the fn argument of a spawn call to its region: a
// function literal's own region, or the region of a statically named
// function or method value.
func (pc *procContext) spawnedRegion(r *procRegion, call *ast.CallExpr, method string) *procRegion {
	idx := 1
	if method == "SpawnAt" || method == "SpawnStepAt" {
		idx = 2
	}
	if len(call.Args) <= idx {
		return nil
	}
	arg := ast.Unparen(call.Args[idx])
	if lit, ok := arg.(*ast.FuncLit); ok {
		return pc.byLit[lit]
	}
	var obj types.Object
	switch arg := arg.(type) {
	case *ast.Ident:
		obj = r.pkg.Info.Uses[arg]
	case *ast.SelectorExpr:
		obj = r.pkg.Info.Uses[arg.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		if n := pc.g.byObj[fn]; n != nil {
			return pc.byNode[n]
		}
	}
	return nil
}

// linkEdges precomputes a region's static edges.
func (pc *procContext) linkEdges(r *procRegion, spawnArg map[*ast.FuncLit]bool) {
	info := r.pkg.Info
	seen := map[*procRegion]bool{}
	inspectRegion(r.body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if callee := pc.g.calleeOf(info, node); callee != nil {
				if cr := pc.byNode[callee]; cr != nil && !seen[cr] {
					seen[cr] = true
					r.callees = append(r.callees, cr)
				}
			}
		case *ast.FuncLit:
			if cr := pc.byLit[node]; cr != nil && !spawnArg[node] {
				r.children = append(r.children, cr)
			}
		}
		return true
	})
}

// recvTypeName extracts the bare receiver type name from a receiver type,
// unwrapping pointers.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// describeFunc renders a node as pkg.Func or pkg.(Recv).Func for messages.
func describeFunc(n *funcNode) string {
	short := n.pkg.Path
	if i := strings.LastIndexByte(short, '/'); i >= 0 {
		short = short[i+1:]
	}
	if sig, ok := n.obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return short + ".(" + recvTypeName(sig.Recv().Type()) + ")." + n.obj.Name()
	}
	return short + "." + n.obj.Name()
}
