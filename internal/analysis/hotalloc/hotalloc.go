// Package hotalloc statically enforces the allocation-free steady-state
// contract of functions marked
//
//	//fdlint:hotpath
//
// (the PR 6 kernels: AgreeWindowWords, ProductWith, RefineWith,
// CountViolationsWith, Score) and of everything they call inside the
// module. It is the static complement of the AllocsPerRun assertions,
// which only witness the exact shapes the benchmarks drive.
//
// Not every allocation is a violation — the kernels allocate retained
// output (the partition they return) and grow-once scratch (JoinScratch
// buffers stored back into fields). The dividing line is escape: an
// allocation whose value provably outlives the call (returned, stored
// through a field or captured target, passed to a callee) is output or
// reused state and passes; one that stays in function-local garbage is
// per-call churn and is flagged. On top of the escape rule, some
// constructs are flagged unconditionally on hot paths: fmt calls,
// string concatenation, interface boxing of non-pointer-shaped values
// (a pointer in an interface is just a word; a struct or int is a heap
// copy), and function literals stored to escaping targets or returned
// (a literal merely passed to a callee — ForEach visitors — stays on
// the stack). Arguments of panic calls are exempt everywhere: the
// panic path is not the steady state.
//
// Per-function summaries (transient sites + in-module callees) are
// exported as facts, so a hotpath root in one package is checked
// against the bodies of the helpers it calls in another. Indirect
// calls (function values, interface and type-parameter methods) are
// not followed; keep hot paths direct. This is allocation invariant I6
// in DESIGN.md.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"eulerfd/internal/analysis"
	"eulerfd/internal/analysis/dataflow"
	"eulerfd/internal/analysis/facts"
)

const name = "hotalloc"

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "forbid transient allocation in //fdlint:hotpath functions and everything they call in-module",
	Run:  run,
}

// site is one transient-allocation site inside a function.
type site struct {
	Pos  string `json:"pos"`  // short file:line:col, for cross-package messages
	What string `json:"what"` // construct description
}

// funcSummary is the exported fact for one function.
type funcSummary struct {
	Hot       bool     `json:"hot,omitempty"`
	Transient []site   `json:"transient,omitempty"`
	Callees   []string `json:"callees,omitempty"`
}

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), "eulerfd") && !strings.Contains(pass.Pkg.Path(), "testdata") {
		return nil
	}
	// Pass 1: summarize every declared function and export the facts.
	// localSites keeps real token positions for same-package reporting.
	localSites := make(map[facts.FuncID][]localSite)
	var roots []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			id := facts.IDOfDecl(pass.TypesInfo, fd)
			if id == "" {
				continue
			}
			sum, local := summarize(pass, fd)
			localSites[id] = local
			if sum.Hot {
				roots = append(roots, fd)
			}
			if sum.Hot || len(sum.Transient) > 0 || len(sum.Callees) > 0 {
				_ = pass.Facts.Set(name, string(id), sum)
			}
		}
	}
	// Pass 2: from every hotpath root declared here, walk the in-module
	// call closure and report each transient site once.
	reported := make(map[string]bool)
	for _, root := range roots {
		checkRoot(pass, root, localSites, reported)
	}
	return nil
}

type localSite struct {
	pos  token.Pos
	what string
}

// isHotpath reports the //fdlint:hotpath marker on a declaration.
func isHotpath(d *ast.FuncDecl) bool {
	if d.Doc == nil {
		return false
	}
	for _, c := range d.Doc.List {
		if c.Text == "//fdlint:hotpath" || strings.HasPrefix(c.Text, "//fdlint:hotpath ") {
			return true
		}
	}
	return false
}

// summarize computes one function's allocation summary.
func summarize(pass *analysis.Pass, fd *ast.FuncDecl) (funcSummary, []localSite) {
	sum := funcSummary{Hot: isHotpath(fd)}
	esc := dataflow.NewEscapes(pass.TypesInfo, fd)
	var local []localSite
	callees := make(map[string]bool)

	add := func(pos token.Pos, what string) {
		local = append(local, localSite{pos: pos, what: what})
		sum.Transient = append(sum.Transient, site{Pos: shortPos(pass.Fset, pos), What: what})
	}

	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if inPanicArgs(stack) {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			summarizeCall(pass, n, stack, esc, add, callees)
		case *ast.CompositeLit:
			summarizeComposite(pass, n, stack, esc, add)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypesInfo, n) {
				add(n.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass.TypesInfo, n.Lhs[0]) {
				add(n.Pos(), "string concatenation")
			}
		case *ast.FuncLit:
			summarizeFuncLit(pass, n, stack, esc, add)
		}
		return true
	})

	for c := range callees {
		sum.Callees = append(sum.Callees, c)
	}
	sort.Strings(sum.Callees)
	sort.Slice(sum.Transient, func(i, j int) bool { return sum.Transient[i].Pos < sum.Transient[j].Pos })
	sort.Slice(local, func(i, j int) bool { return local[i].pos < local[j].pos })
	return sum, local
}

// summarizeCall handles make/new/append, fmt, boxing, and callee edges.
func summarizeCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, esc *dataflow.Escapes, add func(token.Pos, string), callees map[string]bool) {
	if id, ok := analysis.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				if !esc.ExprEscapes(stack) {
					add(call.Pos(), id.Name+" of transient "+typeString(pass.TypesInfo, call))
				}
			case "append":
				if !esc.ExprEscapes(stack) {
					add(call.Pos(), "append to a transient slice")
				}
			}
			return
		}
	}
	if pkg, fname, ok := analysis.PkgFuncCall(pass.TypesInfo, call); ok && pkg == "fmt" {
		add(call.Pos(), "fmt."+fname+" call")
		return
	}
	checkBoxing(pass, call, add)
	if fn := facts.Callee(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil {
		p := fn.Pkg().Path()
		if strings.HasPrefix(p, "eulerfd") || strings.Contains(p, "testdata") {
			if id := facts.IDOf(fn); id != "" {
				callees[string(id)] = true
			}
		}
	}
}

// summarizeComposite flags slice and map literals (always heap-backed)
// and address-taken struct literals, subject to the escape sanction.
func summarizeComposite(pass *analysis.Pass, lit *ast.CompositeLit, stack []ast.Node, esc *dataflow.Escapes, add func(token.Pos, string)) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	heapy := false
	what := ""
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		heapy, what = true, "slice literal"
	case *types.Map:
		heapy, what = true, "map literal"
	default:
		if len(stack) >= 2 {
			if u, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && u.Op == token.AND {
				heapy, what = true, "address-taken composite literal"
			}
		}
	}
	if !heapy {
		return
	}
	if !esc.ExprEscapes(stack) {
		add(lit.Pos(), "transient "+what)
	}
}

// summarizeFuncLit flags literals whose closure must be materialized on
// the heap: returned, or stored to an escaping target. A literal passed
// directly as a call argument (ForEach visitors) is the sanctioned
// shape.
func summarizeFuncLit(pass *analysis.Pass, lit *ast.FuncLit, stack []ast.Node, esc *dataflow.Escapes, add func(token.Pos, string)) {
	if len(stack) < 2 {
		return
	}
	switch p := stack[len(stack)-2].(type) {
	case *ast.ReturnStmt:
		add(lit.Pos(), "returned closure")
	case *ast.AssignStmt, *ast.ValueSpec, *ast.KeyValueExpr:
		if esc.ExprEscapes(stack) {
			add(lit.Pos(), "closure stored to an escaping target")
		}
		_ = p
	}
}

// checkBoxing flags arguments converted to interface parameters when
// the concrete value is not pointer-shaped (those conversions copy the
// value to the heap). fmt is already flagged wholesale; this catches
// the rest (sort.Slice-style any parameters, error wrapping).
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr, add func(token.Pos, string)) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil || at.IsNil() {
			continue
		}
		if pointerShaped(at.Type) {
			continue
		}
		if _, isIface := at.Type.Underlying().(*types.Interface); isIface {
			continue
		}
		add(arg.Pos(), fmt.Sprintf("interface boxing of %s", at.Type.String()))
	}
}

// pointerShaped reports types whose interface representation is the
// value itself (one word, no heap copy).
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}

// inPanicArgs reports whether the current node sits inside the argument
// list of a panic call — the failure path is exempt.
func inPanicArgs(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			// Only counts if we came through the arguments, not the Fun.
			for _, a := range call.Args {
				if containsNode(a, stack[i+1]) {
					return true
				}
			}
		}
	}
	return false
}

func containsNode(root, n ast.Node) bool {
	return root.Pos() <= n.Pos() && n.End() <= root.End()
}

// checkRoot walks the in-module call closure of one hotpath function
// and reports every transient site it reaches. Same-package sites are
// reported at their true position; cross-package sites at the root's
// declaration, naming the offending function and site.
func checkRoot(pass *analysis.Pass, root *ast.FuncDecl, localSites map[facts.FuncID][]localSite, reported map[string]bool) {
	rootID := facts.IDOfDecl(pass.TypesInfo, root)
	visited := map[facts.FuncID]bool{rootID: true}
	queue := []facts.FuncID{rootID}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		var sum funcSummary
		if !pass.Facts.Get(name, string(id), &sum) {
			continue
		}
		if local, ok := localSites[id]; ok {
			for _, s := range local {
				key := fmt.Sprintf("%d|%s", s.pos, s.what)
				if reported[key] {
					continue
				}
				reported[key] = true
				if id == rootID {
					pass.Reportf(s.pos, "%s on the //fdlint:hotpath steady state of %s (invariant I6)", s.what, root.Name.Name)
				} else {
					pass.Reportf(s.pos, "%s inside %s, reached from //fdlint:hotpath %s (invariant I6)", s.what, shortID(id), root.Name.Name)
				}
			}
		} else {
			for _, s := range sum.Transient {
				key := s.Pos + "|" + s.What
				if reported[key] {
					continue
				}
				reported[key] = true
				pass.Reportf(root.Name.Pos(), "//fdlint:hotpath %s reaches %s, which has %s at %s (invariant I6)", root.Name.Name, shortID(id), s.What, s.Pos)
			}
		}
		for _, c := range sum.Callees {
			cid := facts.FuncID(c)
			if !visited[cid] {
				visited[cid] = true
				queue = append(queue, cid)
			}
		}
	}
}

// shortID trims the module prefix off a FuncID for messages.
func shortID(id facts.FuncID) string {
	return strings.TrimPrefix(string(id), "eulerfd/internal/")
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}

func typeString(info *types.Info, call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return "value"
	}
	if tv, ok := info.Types[call.Args[0]]; ok && tv.Type != nil {
		return tv.Type.String()
	}
	return "value"
}

func isString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
