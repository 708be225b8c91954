// Package poolrace guards the worker-pool contract (determinism
// invariant I3): callbacks passed to pool.Pool.Do run concurrently, so a
// callback may only write to state it owns per invocation. Writes to
// variables captured from the enclosing scope are flagged unless the
// destination is a slice/array slot addressed by a callback-local index
// (the per-chunk discipline the delta scan and covers use), or the write is
// preceded by a mutex Lock inside the callback. Captured map writes are
// always flagged — concurrent map writes fault even with distinct keys.
//
// Callbacks need not be literal arguments: a function literal bound to a
// variable or struct field and later handed to Do is resolved through
// the package's assignments and checked the same way.
package poolrace

import (
	"go/ast"
	"go/token"
	"go/types"

	"eulerfd/internal/analysis"
	"eulerfd/internal/analysis/dataflow"
)

// Analyzer is the poolrace check.
var Analyzer = &analysis.Analyzer{
	Name: "poolrace",
	Doc:  "flag writes to captured variables inside pool.Pool worker callbacks",
	Run:  run,
}

const poolPath = "eulerfd/internal/pool"

func run(pass *analysis.Pass) error {
	bindings := closureBindings(pass)
	checked := make(map[*ast.FuncLit]bool)
	check := func(lit *ast.FuncLit) {
		if !checked[lit] {
			checked[lit] = true
			checkCallback(pass, lit)
		}
	}
	analysis.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		_, recvType, name, ok := analysis.MethodCall(pass.TypesInfo, call)
		if !ok || name != "Do" || !analysis.IsNamed(recvType, poolPath, "Pool") {
			return
		}
		for _, arg := range call.Args {
			switch arg := analysis.Unparen(arg).(type) {
			case *ast.FuncLit:
				check(arg)
			case *ast.Ident:
				for _, lit := range bindings[pass.TypesInfo.ObjectOf(arg)] {
					check(lit)
				}
			case *ast.SelectorExpr:
				for _, lit := range bindings[pass.TypesInfo.ObjectOf(arg.Sel)] {
					check(lit)
				}
			}
		}
	})
	return nil
}

// closureBindings maps every variable or struct field to the function
// literals assigned to it anywhere in the package, so a closure that
// reaches pool.Do through a name is checked like a literal argument.
func closureBindings(pass *analysis.Pass) map[types.Object][]*ast.FuncLit {
	bindings := make(map[types.Object][]*ast.FuncLit)
	bind := func(obj types.Object, rhs ast.Expr) {
		if obj == nil || rhs == nil {
			return
		}
		if lit, ok := analysis.Unparen(rhs).(*ast.FuncLit); ok {
			bindings[obj] = append(bindings[obj], lit)
		}
	}
	for _, f := range pass.Files {
		dataflow.VisitAssignments(pass.TypesInfo, f, bind)
		// VisitAssignments resolves identifier targets; field stores
		// (w.cb = func(...){...}) and composite literals need the field
		// object from the selector or key.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					if sel, ok := analysis.Unparen(lhs).(*ast.SelectorExpr); ok {
						bind(pass.TypesInfo.ObjectOf(sel.Sel), n.Rhs[i])
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							bind(pass.TypesInfo.ObjectOf(key), kv.Value)
						}
					}
				}
			}
			return true
		})
	}
	return bindings
}

func checkCallback(pass *analysis.Pass, lit *ast.FuncLit) {
	locks := lockPositions(pass.TypesInfo, lit)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // nested closures are not run by the pool here
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				checkWrite(pass, lit, lhs, s.Pos(), locks)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, lit, s.X, s.Pos(), locks)
		}
		return true
	})
}

// checkWrite flags lhs when it writes to captured state without a
// per-index slot or a preceding lock.
func checkWrite(pass *analysis.Pass, lit *ast.FuncLit, lhs ast.Expr, pos token.Pos, locks []token.Pos) {
	lhs = analysis.Unparen(lhs)
	info := pass.TypesInfo

	switch x := lhs.(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := info.ObjectOf(x)
		if obj == nil || analysis.DeclaredWithin(obj, lit) {
			return
		}
		if lockedBefore(locks, pos) {
			return
		}
		pass.Reportf(pos, "pool.Do callback writes to %q captured from the enclosing scope; use a per-index slot or guard with a mutex (invariant I3)", x.Name)
	case *ast.IndexExpr:
		root := rootIdent(x.X)
		if root == nil {
			return
		}
		obj := info.ObjectOf(root)
		if obj == nil || analysis.DeclaredWithin(obj, lit) {
			return
		}
		tv, ok := info.Types[x.X]
		if !ok {
			return
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			if lockedBefore(locks, pos) {
				return
			}
			pass.Reportf(pos, "pool.Do callback writes to captured map %q; concurrent map writes fault — shard per worker or guard with a mutex (invariant I3)", root.Name)
			return
		}
		// Slice/array slot: fine when the index is derived from
		// callback-local state (typically the chunk index parameter).
		if analysis.MentionsLocalOf(info, x.Index, lit) {
			return
		}
		if lockedBefore(locks, pos) {
			return
		}
		pass.Reportf(pos, "pool.Do callback writes to captured %q at an index not derived from the callback's own parameters; concurrent callbacks may collide (invariant I3)", root.Name)
	case *ast.SelectorExpr:
		root := rootIdent(x)
		if root == nil {
			return
		}
		obj := info.ObjectOf(root)
		if obj == nil || analysis.DeclaredWithin(obj, lit) {
			return
		}
		// s.chunks[k].field = v is the per-chunk discipline: the path to
		// the field crosses a slot addressed by callback-local state.
		if crossesLocalIndexedSlot(info, x, lit) {
			return
		}
		if lockedBefore(locks, pos) {
			return
		}
		pass.Reportf(pos, "pool.Do callback writes to a field of captured %q; confine writes to per-index state or guard with a mutex (invariant I3)", root.Name)
	case *ast.StarExpr:
		root := rootIdent(x.X)
		if root == nil {
			return
		}
		obj := info.ObjectOf(root)
		if obj == nil || analysis.DeclaredWithin(obj, lit) {
			return
		}
		if lockedBefore(locks, pos) {
			return
		}
		pass.Reportf(pos, "pool.Do callback writes through captured pointer %q; confine writes to per-index state or guard with a mutex (invariant I3)", root.Name)
	}
}

// lockPositions collects positions of mutex Lock calls inside the
// callback; a write lexically after a Lock is treated as guarded. This is
// a lexical approximation, but pool callbacks in this codebase are short
// and straight-line, and the race detector backstops it.
func lockPositions(info *types.Info, lit *ast.FuncLit) []token.Pos {
	var locks []token.Pos
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, _, name, ok := analysis.MethodCall(info, call); ok && name == "Lock" {
			locks = append(locks, call.Pos())
		}
		return true
	})
	return locks
}

func lockedBefore(locks []token.Pos, pos token.Pos) bool {
	for _, l := range locks {
		if l < pos {
			return true
		}
	}
	return false
}

// crossesLocalIndexedSlot reports whether the selector/index chain of e
// passes through an index expression whose index is derived from state
// declared inside lit (the per-chunk slot pattern).
func crossesLocalIndexedSlot(info *types.Info, e ast.Expr, lit *ast.FuncLit) bool {
	for {
		switch x := analysis.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			if analysis.MentionsLocalOf(info, x.Index, lit) {
				return true
			}
			e = x.X
		default:
			return false
		}
	}
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := analysis.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
