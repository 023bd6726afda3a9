package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicUseFact marks a struct field as atomically accessed somewhere in
// its declaring package, so a dependent package's plain access to the
// (necessarily exported) field is flagged without re-analysis.
type atomicUseFact struct {
	Atomic bool
}

func (*atomicUseFact) AFact() {}

// AtomicField enforces all-or-nothing atomicity: a struct field accessed
// through sync/atomic anywhere (atomic.LoadInt64(&x.f), ...) must be
// accessed through sync/atomic everywhere. One plain read racing a
// concurrent atomic writer is still a data race — the mixed pattern is a
// bug every time, and it hides from the race detector until a test
// happens to interleave the two. (Fields typed atomic.Int64 etc. are
// immune by construction; this analyzer polices the pointer-style
// form.) The atomic-use set travels across packages as an object fact on
// the field, so a plain access to an exported counter from a dependent
// package is caught too.
var AtomicField = &Analyzer{
	Name:      "atomicfield",
	Doc:       "fields accessed via sync/atomic must be accessed atomically everywhere",
	Run:       runAtomicField,
	FactTypes: []Fact{(*atomicUseFact)(nil)},
}

func runAtomicField(pass *Pass) error {
	// Pass 1: find fields that appear as &x.f in a sync/atomic call, and
	// remember the selector nodes so pass 2 does not re-flag them.
	atomicFields := make(map[*types.Var]bool)
	blessed := make(map[*ast.SelectorExpr]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if f := fieldOf(pass.Info, sel); f != nil {
					atomicFields[f] = true
					blessed[sel] = true
				}
			}
			return true
		})
	}
	// Fields atomically used in this package are facts for dependents;
	// the shared loader keeps object identity stable, so the fact lands
	// on the same *types.Var a dependent's selector resolves to.
	for f := range atomicFields {
		pass.ExportObjectFact(f, &atomicUseFact{Atomic: true})
	}

	// Pass 2: every other access to those fields — including fields whose
	// declaring package exported an atomic-use fact — is a violation.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || blessed[sel] {
				return true
			}
			f := fieldOf(pass.Info, sel)
			if f == nil {
				return true
			}
			if !atomicFields[f] {
				var fact atomicUseFact
				if f.Pkg() == pass.Pkg || !pass.ImportObjectFact(f, &fact) || !fact.Atomic {
					return true
				}
			}
			pass.Reportf(sel.Pos(), "non-atomic access to field %s, which is accessed via sync/atomic elsewhere", f.Name())
			return true
		})
	}
	return nil
}

// fieldOf returns the struct field a selector denotes, or nil.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}
