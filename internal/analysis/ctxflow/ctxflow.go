// Package ctxflow enforces the PR 4 cancellation contract: below the
// driver layer, context flows through explicit parameters, never by
// minting fresh root contexts mid-pipeline.
//
// Two checks:
//
//   - In internal/experiments, internal/serve and cmd/*, a call to a
//     function or method that has a "...Context" counterpart (same name +
//     "Context" suffix,
//     first parameter context.Context) must use the counterpart. Two
//     structural exemptions keep the repo's deliberate patterns legal:
//     the body of a convenience wrapper (a function that itself has a
//     ...Context sibling — its entire purpose is to delegate with a
//     default context), and calls on receivers that expose
//     SetBaseContext(context.Context) (the runner's base-context
//     mechanism, which threads sweep-wide cancellation to no-context
//     entry points by design).
//
//   - In internal/experiments and internal/serve, context.Background() /
//     context.TODO() must not be created: the sweep context arrives from
//     the driver.
//     The same convenience-wrapper exemption applies.
package ctxflow

import (
	"go/ast"
	"go/types"
	"regexp"

	"repro/internal/analysis"
)

// CallScope matches the packages where ...Context counterparts are
// mandatory.
var CallScope = regexp.MustCompile(`(^|/)internal/(experiments|serve)(/|$)|(^|/)cmd/`)

// RootScope matches the packages where minting root contexts is
// forbidden (the driver layer, cmd/*, legitimately creates them). The
// serving layer is in scope: topomapd's evaluation contexts must descend
// from the serve context (via context.WithoutCancel for drain-surviving
// work), never from a fresh root that would detach in-flight cells from
// the force-cancel on drain timeout.
var RootScope = regexp.MustCompile(`(^|/)internal/(experiments|serve)(/|$)`)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "require ...Context call variants where they exist and forbid context.Background()/TODO() " +
		"below the driver layer, so sweep-wide cancellation reaches every cell",
	Run: run,
}

func run(pass *analysis.Pass) error {
	checkCalls := CallScope.MatchString(pass.PkgPath)
	checkRoots := RootScope.MatchString(pass.PkgPath)
	if !checkCalls && !checkRoots {
		return nil
	}
	analysis.WalkFiles(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		if inConvenienceWrapper(pass, stack) {
			return true
		}
		if checkRoots && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
			(fn.Name() == "Background" || fn.Name() == "TODO") {
			pass.Reportf(call.Pos(), "context.%s() below the driver layer: thread the sweep context through parameters (or SetBaseContext) instead of minting a root context", fn.Name())
			return true
		}
		if !checkCalls {
			return true
		}
		if counterpart := contextCounterpart(fn); counterpart != nil && !hasBaseContextMechanism(fn) {
			pass.Reportf(call.Pos(), "call to %s ignores its context-aware variant %s: use it so cancellation and budgets reach this cell", fn.Name(), counterpart.Name())
		}
		return true
	})
	return nil
}

// calleeFunc resolves the called function or method, or nil for builtins,
// function values and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// contextCounterpart returns the sibling <Name>Context function or method
// taking a context first, or nil.
func contextCounterpart(fn *types.Func) *types.Func {
	name := fn.Name()
	if len(name) > 7 && name[len(name)-7:] == "Context" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var candidate types.Object
	if recv := sig.Recv(); recv != nil {
		named := namedOf(recv.Type())
		if named == nil {
			return nil
		}
		candidate = lookupMethod(named, name+"Context")
	} else if fn.Pkg() != nil {
		candidate = fn.Pkg().Scope().Lookup(name + "Context")
	}
	cfn, ok := candidate.(*types.Func)
	if !ok {
		return nil
	}
	csig, ok := cfn.Type().(*types.Signature)
	if !ok || csig.Params().Len() == 0 {
		return nil
	}
	if !isContextType(csig.Params().At(0).Type()) {
		return nil
	}
	return cfn
}

// hasBaseContextMechanism reports whether the method's receiver type also
// provides SetBaseContext(context.Context) — the runner pattern where
// no-context entry points inherit sweep-wide cancellation by design.
func hasBaseContextMechanism(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return false
	}
	set, ok := lookupMethod(named, "SetBaseContext").(*types.Func)
	if !ok {
		return false
	}
	ssig, ok := set.Type().(*types.Signature)
	return ok && ssig.Params().Len() == 1 && isContextType(ssig.Params().At(0).Type())
}

// inConvenienceWrapper reports whether the call site sits inside a
// function that itself has a ...Context sibling — the delegation shim the
// counterpart rule exists to produce.
func inConvenienceWrapper(pass *analysis.Pass, stack []ast.Node) bool {
	fd, ok := analysis.EnclosingFunc(stack).(*ast.FuncDecl)
	if !ok || fd == nil {
		return false
	}
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	return contextCounterpart(fn) != nil
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func lookupMethod(named *types.Named, name string) types.Object {
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

func isContextType(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}
