// Package detcheck holds the six repo-specific contract checks that
// cmd/detlint runs over the module. Each analyzer turns one of the
// repo's dynamically-enforced determinism or hot-path contracts into
// a static check that covers every code path at compile time:
//
//	wallclock — no wall-clock time in the deterministic packages
//	detrand   — no ambient randomness in the deterministic packages
//	maporder  — no map iteration feeding traces, emitters or accounting
//	spawn     — no goroutine launches outside the bounded conc pool
//	hotpath   — no math/big, fmt or interface boxing on the EC hot path
//	ctscalar  — no secret-dependent branch or index on the constant-time
//	            path, and no secret scalar in a variable-time multiplication
//
// The dynamic gates (byte-compare CI runs, allocation budgets) stay:
// they prove the contracts hold end to end, while these checks prove
// no code path exists that could violate them — including paths no
// scenario exercises yet. Escapes use //detlint:allow annotations
// (see internal/analysis), so every exception is a documented,
// build-enforced contract.
//
// All six analyzers inspect only non-test files: tests are allowed
// wall clocks, ambient randomness and naked goroutines because their
// output feeds assertions, not the byte-compared artifacts the
// determinism contract protects.
package detcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzers returns the full detlint suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Wallclock,
		Detrand,
		Maporder,
		Spawn,
		Hotpath,
		Ctscalar,
	}
}

// deterministicPkgs is the schedule-invariance kernel: the packages
// whose observable behaviour must be a pure function of inputs and
// seeds. wallclock and detrand scope themselves to these import
// paths.
var deterministicPkgs = map[string]bool{
	"repro/internal/canbus":    true,
	"repro/internal/cantp":     true,
	"repro/internal/transport": true,
	"repro/internal/scenario":  true,
	"repro/internal/fleet":     true,
	"repro/internal/security":  true,
}

// funcInfo is one function or method declaration plus the static
// call edges leaving it.
type funcInfo struct {
	decl *ast.FuncDecl
	obj  types.Object
	// callees lists the objects of every statically-resolved call in
	// the body, in source order, same-package and foreign alike.
	callees []types.Object
}

// packageFuncs collects every function and method declaration in the
// pass's package with its outgoing static call edges. Calls through
// function values or interfaces do not resolve to a declaration and
// contribute no edge — the checks built on this graph are therefore
// deliberately under-approximate and lean on the dynamic gates for
// the rest.
func packageFuncs(pass *analysis.Pass) map[types.Object]*funcInfo {
	funcs := map[types.Object]*funcInfo{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			fi := &funcInfo{decl: fd, obj: obj}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeOf(pass, call); callee != nil {
					fi.callees = append(fi.callees, callee)
				}
				return true
			})
			funcs[obj] = fi
		}
	}
	return funcs
}

// calleeOf resolves a call expression to the object it invokes, or
// nil for calls through unnamed function values, builtins and type
// conversions.
func calleeOf(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}

// reachable returns the set of functions from which any function in
// seeds can be reached over same-package static call edges, seeds
// included (i.e. the inverse-reachability closure of seeds).
func reachable(funcs map[types.Object]*funcInfo, seeds map[types.Object]bool) map[types.Object]bool {
	// Reverse edges within the package.
	callers := map[types.Object][]types.Object{}
	for obj, fi := range funcs {
		for _, callee := range fi.callees {
			if _, ok := funcs[callee]; ok {
				callers[callee] = append(callers[callee], obj)
			}
		}
	}
	reach := map[types.Object]bool{}
	var queue []types.Object
	for obj := range seeds {
		reach[obj] = true
		queue = append(queue, obj)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, caller := range callers[cur] {
			if !reach[caller] {
				reach[caller] = true
				queue = append(queue, caller)
			}
		}
	}
	return reach
}

// forward returns the set of functions reachable from seeds over
// same-package static call edges, seeds included.
func forward(funcs map[types.Object]*funcInfo, seeds map[types.Object]bool) map[types.Object]bool {
	reach := map[types.Object]bool{}
	var queue []types.Object
	for obj := range seeds {
		reach[obj] = true
		queue = append(queue, obj)
	}
	for len(queue) > 0 {
		fi, ok := funcs[queue[0]]
		queue = queue[1:]
		if !ok {
			continue
		}
		for _, callee := range fi.callees {
			if _, local := funcs[callee]; local && !reach[callee] {
				reach[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return reach
}

// pkgPathOf returns the import path of the package an object belongs
// to, or "" for universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// namedTypeName unwraps pointers and aliases and returns the name of
// the underlying named type, or "" when the type is unnamed.
func namedTypeName(t types.Type) string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u.Obj().Name()
		default:
			return ""
		}
	}
}

// accountingType reports whether a named type name denotes one of the
// repo's accounting structures — the measurement records whose field
// values end up in byte-compared output.
func accountingType(name string) bool {
	return strings.HasSuffix(name, "Account") ||
		strings.HasSuffix(name, "Accounting") ||
		strings.HasSuffix(name, "Stats") ||
		strings.HasSuffix(name, "Cost")
}
