package detcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Ctscalar is the static half of the constant-time contract on secret
// scalars. It has two rules.
//
//  1. Inside internal/ec and internal/ec/fp, no branch and no table
//     index may depend on a secret. The roots are the constant-time
//     cores: ctScalarMult and ctBaseMult in ec, and the field
//     operations they run on in fp. Every parameter of a root is
//     secret. Taint flows through assignments, range values, call
//     arguments into same-package callees' parameters, and into every
//     pointer or slice argument of a call that receives a secret
//     (the callee may write it there). len and cap of a secret are
//     public. In every function reachable from a root, an if, for or
//     switch condition, or an index or slice bound, that mentions a
//     secret is a finding.
//
//  2. Everywhere except internal/security (whose attack models
//     compute with stolen keys on purpose), no secret scalar may reach
//     the variable-time multiplications: the ScalarMult, ScalarBaseMult,
//     ScalarMultNaive and CombinedMult methods of Curve and MultTable.
//     Secrets are private-key fields (Priv, priv, D, k), parameters
//     named priv, d, k, x or nonce, and the results of RandomScalar,
//     RandomScalarBytes and GenerateKeyPair, all of type *big.Int or
//     []byte, followed through the assignments of one function.
//
// Both rules are per package and under-approximate: calls through
// interfaces or function values add no edge, and rule 2 does not
// follow a secret into another function's parameters. The dynamic
// differential tests and the secret-path design (scalars cross into
// internal/ec only as bytes, through SecretKey) cover the rest.
var Ctscalar = &analysis.Analyzer{
	Name: "ctscalar",
	Doc: "flags branches and table indexes on secret-derived values in the constant-time " +
		"scalar-multiplication cores of internal/ec and internal/ec/fp, and secret scalars " +
		"passed to the variable-time ScalarMult/ScalarBaseMult/CombinedMult anywhere",
	Run: runCtscalar,
}

// ctscalarRoots names the constant-time cores per package: every
// parameter of a root is secret.
var ctscalarRoots = map[string]map[string]bool{
	"repro/internal/ec": {
		"ctScalarMult": true,
		"ctBaseMult":   true,
	},
	"repro/internal/ec/fp": {
		"Add":      true,
		"Sub":      true,
		"Dbl":      true,
		"Neg":      true,
		"Mul":      true,
		"Sqr":      true,
		"Inv":      true,
		"CondMove": true,
	},
}

// ctscalarExempt is exempt from rule 2.
var ctscalarExempt = map[string]bool{
	"repro/internal/security": true,
}

// variableTimeMults are the variable-time multiplications rule 2
// guards, by receiver type and method name, with the indexes of their
// scalar arguments.
var variableTimeMults = map[string]map[string][]int{
	"Curve": {
		"ScalarMult":      {1},
		"ScalarBaseMult":  {0},
		"ScalarMultNaive": {1},
		"CombinedMult":    {1, 2},
	},
	"MultTable": {
		"ScalarMult":   {0},
		"CombinedMult": {0, 1},
	},
}

// Rule 2's secrets, all of type *big.Int or []byte: the private-key
// fields, the parameters named like a private key or nonce, and the
// results of the scalar draws (matched case-insensitively, so a
// wrapper such as randomScalar counts too).
var (
	secretFields  = map[string]bool{"Priv": true, "priv": true, "D": true, "k": true}
	secretParams  = map[string]bool{"priv": true, "d": true, "k": true, "x": true, "nonce": true}
	secretSources = []string{"RandomScalar", "RandomScalarBytes", "GenerateKeyPair"}
)

func runCtscalar(pass *analysis.Pass) error {
	if roots, ok := ctscalarRoots[pass.Path]; ok {
		reportSecretBranches(pass, roots)
	}
	if !ctscalarExempt[pass.Path] {
		reportSecretMults(pass)
	}
	return nil
}

// taint is the set of secret variables of one analysis. Rule 1 and
// rule 2 differ in their sources and in where a call writes a secret:
// the fp and ec cores write through pointer arguments, math/big writes
// into the method receiver.
type taint struct {
	pass *analysis.Pass
	vars map[types.Object]bool
	// sources selects rule 2: private-key fields and RandomScalar
	// results are secret, and a call with a secret argument taints its
	// receiver.
	sources bool
	// public are the method receivers of rule 1 (the curve or field
	// context), which a secret argument never taints.
	public map[types.Object]bool
}

// mentions reports whether e reads a secret: a secret variable, or
// with sources set a private-key field or a secret-producing call.
// len and cap of anything are public.
func (t *taint) mentions(e ast.Node) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := t.pass.TypesInfo.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
					return false
				}
			}
			if t.sources {
				if callee := calleeOf(t.pass, n); callee != nil && isSecretSource(callee.Name()) {
					found = true
				}
			}
		case *ast.SelectorExpr:
			if t.sources && t.secretField(n) {
				found = true
			}
		case *ast.Ident:
			if obj := t.pass.TypesInfo.Uses[n]; obj != nil && t.vars[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

func isSecretSource(name string) bool {
	for _, s := range secretSources {
		if strings.EqualFold(name, s) {
			return true
		}
	}
	return false
}

// secretField reports whether sel reads a private-key field.
func (t *taint) secretField(sel *ast.SelectorExpr) bool {
	v, ok := t.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	return ok && v.IsField() && secretFields[v.Name()] && isScalarType(v.Type())
}

// isScalarType reports whether ty can hold a scalar: *big.Int or a
// byte slice.
func isScalarType(ty types.Type) bool {
	switch ty := ty.(type) {
	case *types.Pointer:
		return namedTypeName(ty) == "Int"
	case *types.Slice:
		b, ok := ty.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	}
	return false
}

// mark taints the variable an assignment target or argument
// ultimately names (x in x, x.f, x[i], *x, &x), reporting whether
// that changed anything.
func (t *taint) mark(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := t.pass.TypesInfo.Defs[x]
			if obj == nil {
				obj = t.pass.TypesInfo.Uses[x]
			}
			if obj == nil || t.vars[obj] || t.public[obj] {
				return false
			}
			if _, ok := obj.(*types.Var); !ok {
				return false
			}
			t.vars[obj] = true
			return true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return false
			}
			e = x.X
		default:
			return false
		}
	}
}

// propagate runs one pass of taint propagation over body, calling
// onCall for every call with a secret argument, and reports whether
// the taint set grew.
func (t *taint) propagate(body ast.Node, onCall func(*ast.CallExpr, []bool)) bool {
	changed := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				if t.mentions(rhs) {
					changed = t.mark(lhs) || changed
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) && t.mentions(n.Values[i]) ||
					len(n.Values) == 1 && len(n.Names) > 1 && t.mentions(n.Values[0]) {
					changed = t.mark(name) || changed
				}
			}
		case *ast.RangeStmt:
			if n.Value != nil && t.mentions(n.X) {
				changed = t.mark(n.Value) || changed
			}
		case *ast.CallExpr:
			secret := make([]bool, len(n.Args))
			hasSecret := false
			for i, arg := range n.Args {
				secret[i] = t.mentions(arg)
				hasSecret = hasSecret || secret[i]
			}
			sel, method := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if method && t.mentions(sel.X) {
				hasSecret = true
			}
			if !hasSecret {
				return true
			}
			if t.sources {
				if method {
					changed = t.mark(sel.X) || changed // z.Mul(x, secret) writes z
				}
			} else {
				// The callee may store the secret through any pointer
				// or slice it was handed.
				for _, arg := range n.Args {
					if isReference(t.pass, arg) {
						changed = t.mark(arg) || changed
					}
				}
			}
			if onCall != nil {
				onCall(n, secret)
			}
		}
		return true
	})
	return changed
}

// isReference reports whether e is a pointer or slice the callee can
// write through.
func isReference(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Slice:
		return true
	}
	return false
}

// reportSecretBranches applies rule 1.
func reportSecretBranches(pass *analysis.Pass, roots map[string]bool) {
	funcs := packageFuncs(pass)
	t := &taint{pass: pass, vars: map[types.Object]bool{}, public: map[types.Object]bool{}}
	seeds := map[types.Object]bool{}
	for obj, fi := range funcs {
		if fi.decl.Recv != nil {
			for _, name := range fi.decl.Recv.List[0].Names {
				t.public[pass.TypesInfo.Defs[name]] = true
			}
		}
		if !roots[fi.decl.Name.Name] {
			continue
		}
		seeds[obj] = true
		for _, field := range fi.decl.Type.Params.List {
			for _, name := range field.Names {
				t.mark(name)
			}
		}
	}
	reach := forward(funcs, seeds)

	// Secret arguments taint the matching parameters of same-package
	// callees; iterate to a fixed point.
	intoCallee := func(call *ast.CallExpr, secret []bool) {
		callee := calleeOf(pass, call)
		fi, ok := funcs[callee]
		if !ok {
			return
		}
		var params []*ast.Ident
		for _, field := range fi.decl.Type.Params.List {
			params = append(params, field.Names...)
		}
		for i, s := range secret {
			if !s || len(params) == 0 {
				continue
			}
			p := params[len(params)-1] // variadic tail
			if i < len(params) {
				p = params[i]
			}
			t.mark(p)
		}
	}
	for changed := true; changed; {
		changed = false
		for obj := range reach {
			before := len(t.vars)
			t.propagate(funcs[obj].decl.Body, intoCallee)
			changed = changed || len(t.vars) != before
		}
	}

	for obj := range reach {
		fi := funcs[obj]
		name := fi.decl.Name.Name
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			var cond ast.Node
			what := ""
			switch n := n.(type) {
			case *ast.IfStmt:
				cond, what = n.Cond, "if condition"
			case *ast.ForStmt:
				cond, what = n.Cond, "loop condition"
			case *ast.SwitchStmt:
				cond, what = n.Tag, "switch tag"
				if n.Tag == nil {
					for _, s := range n.Body.List {
						for _, e := range s.(*ast.CaseClause).List {
							if t.mentions(e) {
								pass.Reportf(e.Pos(), "switch case depends on a secret scalar (in %s): branch-free code only on the constant-time path", name)
							}
						}
					}
				}
			case *ast.IndexExpr:
				cond, what = n.Index, "index"
			case *ast.SliceExpr:
				for _, b := range []ast.Expr{n.Low, n.High, n.Max} {
					if b != nil && t.mentions(b) {
						pass.Reportf(b.Pos(), "slice bound depends on a secret scalar (in %s): select by masked moves over every entry instead", name)
					}
				}
			}
			if cond != nil && t.mentions(cond) {
				pass.Reportf(cond.Pos(), "%s depends on a secret scalar (in %s): branch-free code and masked selects only on the constant-time path", what, name)
			}
			return true
		})
	}
}

// reportSecretMults applies rule 2.
func reportSecretMults(pass *analysis.Pass) {
	for _, fi := range packageFuncs(pass) {
		t := &taint{pass: pass, vars: map[types.Object]bool{}, sources: true}
		for _, field := range fi.decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil && secretParams[name.Name] && isScalarType(obj.Type()) {
					t.vars[obj] = true
				}
			}
		}
		for t.propagate(fi.decl.Body, nil) {
			// until the function's taint set stops growing
		}
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, ok := calleeOf(pass, call).(*types.Func)
			if !ok {
				return true
			}
			recv := callee.Type().(*types.Signature).Recv()
			if recv == nil {
				return true
			}
			for _, i := range variableTimeMults[namedTypeName(recv.Type())][callee.Name()] {
				if i < len(call.Args) && t.mentions(call.Args[i]) {
					pass.Reportf(call.Args[i].Pos(),
						"secret scalar passed to variable-time %s (in %s): use ec.SecretKey / SecretBaseMult",
						callee.Name(), fi.decl.Name.Name)
				}
			}
			return true
		})
	}
}
