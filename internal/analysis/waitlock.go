package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WaitLock flags a sync.Mutex or sync.RWMutex held across a simulated wait
// point in model code. When a process parks on Proc.Sleep / Signal.Wait /
// a channel handoff while holding a real lock, any other process that
// touches the same lock blocks the *host* goroutine instead of parking in
// virtual time — the scheduler's single-owner handoff deadlocks (the parked
// owner can only be resumed by the scheduler the blocked goroutine is
// starving), and even when it survives, wake-up order now depends on the Go
// runtime rather than the event heap. The analysis is module-wide: a call
// to a function that transitively reaches a wait point (per the call graph)
// counts as waiting. Package main and internal/sim itself (whose parking
// primitives ARE the engine) are exempt.
var WaitLock = &Analyzer{
	Name:      "waitlock",
	Doc:       "sync.Mutex/RWMutex held across a simulated wait point (Proc.Sleep, Signal.Wait, channel handoff)",
	RunModule: runWaitLock,
}

func runWaitLock(mp *ModulePass) {
	g := callGraphFor(mp.Module)
	g.computeMayWait()

	for _, n := range g.nodes {
		if n.pkg.Name == "main" || strings.HasSuffix(n.pkg.Path, "/internal/sim") {
			continue
		}
		checkWaitLock(mp, g, n)
	}
}

// lockSpan is one critical section: from the Lock/RLock call to the first
// matching Unlock on the same lock object (or the end of the function for
// deferred unlocks).
type lockSpan struct {
	key      string // canonical receiver chain, e.g. "s.mu"
	name     string // Lock or RLock
	lockPos  token.Pos
	from, to token.Pos
}

func checkWaitLock(mp *ModulePass, g *callGraph, n *funcNode) {
	info := n.pkg.Info
	body := n.decl.Body

	var spans []lockSpan
	ast.Inspect(body, func(node ast.Node) bool {
		// defer mu.Unlock() holds to the end of the function; handled by
		// matching below (no explicit Unlock call position inside body).
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, lname := range []string{"Lock", "RLock"} {
			if key, ok := syncMutexRecv(info, call, lname); ok {
				spans = append(spans, lockSpan{key: key, name: lname, lockPos: call.Pos(), from: call.End(), to: body.End()})
			}
		}
		return true
	})
	if len(spans) == 0 {
		return
	}

	// Close each span at the first non-deferred Unlock/RUnlock of the same
	// object after the Lock.
	ast.Inspect(body, func(node ast.Node) bool {
		if _, isDefer := node.(*ast.DeferStmt); isDefer {
			return false // a deferred unlock runs at return; span stays open
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		for i := range spans {
			uname := "Unlock"
			if spans[i].name == "RLock" {
				uname = "RUnlock"
			}
			if key, ok := syncMutexRecv(info, call, uname); ok && key == spans[i].key && call.Pos() > spans[i].from && call.Pos() < spans[i].to {
				spans[i].to = call.Pos()
			}
		}
		return true
	})

	// Any wait point inside a span is a finding.
	ast.Inspect(body, func(node ast.Node) bool {
		var pos token.Pos
		var what string
		switch node := node.(type) {
		case *ast.CallExpr:
			if w, ok := simWaitPoint(info, node); ok {
				pos, what = node.Pos(), w
			} else if callee := g.calleeOf(info, node); callee != nil && callee.mayWait {
				pos, what = node.Pos(), callee.obj.Pkg().Name()+"."+callee.obj.Name()+" (reaches a wait point)"
			}
		case *ast.SendStmt:
			pos, what = node.Arrow, "channel send"
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				pos, what = node.Pos(), "channel receive"
			}
		case *ast.SelectStmt:
			pos, what = node.Pos(), "select"
		case *ast.FuncLit:
			return false // a literal's body runs elsewhere (or is its own node)
		}
		if what == "" {
			return true
		}
		for _, s := range spans {
			if pos > s.from && pos < s.to {
				lockLine := mp.Module.Fset.Position(s.lockPos).Line
				mp.Reportf(pos, "%s while holding sync.%s acquired on line %d: a parked process holding a real lock starves the scheduler; release the lock before waiting or use sim primitives", what, s.name, lockLine)
				return true
			}
		}
		return true
	})
}

// syncMutexRecv reports whether call is x.<name>() resolving to
// sync.Mutex/sync.RWMutex, returning a canonical key for the receiver chain
// (same chain → same key) so Lock and Unlock sites pair up.
func syncMutexRecv(info *types.Info, call *ast.CallExpr, name string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return "", false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return "", false
	}
	if pkg := s.Obj().Pkg(); pkg == nil || pkg.Path() != "sync" {
		return "", false
	}
	recv := s.Recv().String()
	if !strings.Contains(recv, "sync.Mutex") && !strings.Contains(recv, "sync.RWMutex") {
		return "", false
	}
	key := lockExprKey(info, sel.X)
	return key, key != ""
}

// lockExprKey canonicalizes a lock receiver expression: the root
// identifier's object identity plus the field path, so s.mu in one
// statement keys identically to s.mu in another. Receivers with calls or
// indexing in the chain get no key (we cannot prove two mentions alias).
func lockExprKey(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return ""
		}
		return fmt.Sprintf("%p", obj)
	case *ast.SelectorExpr:
		base := lockExprKey(info, e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		return lockExprKey(info, e.X)
	}
	return ""
}
