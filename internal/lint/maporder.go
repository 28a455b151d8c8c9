package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map inside the deterministic protocol
// packages when the loop body does something order-sensitive: appends to a
// variable that outlives the loop, sends on a channel, assigns a loop
// variable outward, returns a loop variable, or calls a function/method
// with a loop variable (signing, hashing, wire-writing and multicasting all
// arrive through calls). A variable the body declares with := from a loop
// variable counts as one. Go randomizes map iteration order per run, so any
// such loop makes two replays of the same seed diverge — the bug class
// behind Coin.OnSeed's replay order (PR 3) and pvss.AggShares /
// ThresholdKey.Combine share selection (PR 4).
//
// Not flagged: pure reads, writes into a map, writes into a slice indexed
// by the loop key (each key lands at its own position), commutative integer
// accumulation (+= |= &= ^= on integers, counters), and the collect-keys
// idiom — appending keys to a slice that is passed to sort.* / slices.Sort*
// later in the same function. Prefer order.SortedKeys (internal/order) over
// a suppression: ranging the sorted slice never triggers this analyzer.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "range over a map with an order-sensitive body breaks seed-replay determinism",
	AppliesTo: ScopeUnder(
		"repro/internal/core",
		"repro/internal/proto",
		"repro/internal/sim",
		"repro/internal/pki",
		"repro/internal/crypto",
		"repro/internal/baseline",
		"repro/internal/adversary",
		"repro/internal/kinds",
		"repro/internal/exp",
	),
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		// Pair every map-range statement with its innermost enclosing
		// function body (the search scope for the later-sort exemption).
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isMapType(info.TypeOf(rng.X)) {
				return true
			}
			if reason := mapOrderViolation(info, rng, enclosingBody(stack)); reason != "" {
				pass.Reportf(rng.For, "range over map %s: loop body %s; iterate sorted keys (order.SortedKeys) or justify with //reprolint:ok",
					render(rng.X), reason)
			}
			return true
		})
	}
}

// enclosingBody returns the body of the innermost FuncDecl/FuncLit on the
// stack (excluding the node itself at the top).
func enclosingBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		switch d := stack[i].(type) {
		case *ast.FuncDecl:
			return d.Body
		case *ast.FuncLit:
			return d.Body
		}
	}
	return nil
}

// mapOrderViolation reports why the loop body is order-sensitive, or "".
func mapOrderViolation(info *types.Info, rng *ast.RangeStmt, fnBody *ast.BlockStmt) string {
	loopVars := taintDerived(info, rng.Body, objectsOf(info, rng.Key, rng.Value))
	reason := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch s := n.(type) {
		case *ast.SendStmt:
			reason = "sends on a channel"
			return false
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if uses(info, r, loopVars) {
					reason = "returns a loop variable (an arbitrary map element)"
					return false
				}
			}
		case *ast.AssignStmt:
			if r := assignViolation(info, s, rng, fnBody, loopVars); r != "" {
				reason = r
				return false
			}
		case *ast.CallExpr:
			if r := callViolation(info, s, loopVars); r != "" {
				reason = r
				return false
			}
		}
		return true
	})
	return reason
}

// taintDerived adds to vars every variable the body declares with := from
// an expression that uses vars, to a fixpoint: `cand := m[k]; best = cand`
// carries the arbitrary element out as surely as `best = m[k]` does.
func taintDerived(info *types.Info, body *ast.BlockStmt, vars map[types.Object]bool) map[types.Object]bool {
	for grew := true; grew; {
		grew = false
		ast.Inspect(body, func(n ast.Node) bool {
			s, ok := n.(*ast.AssignStmt)
			if !ok || s.Tok != token.DEFINE {
				return true
			}
			for _, r := range s.Rhs {
				if !uses(info, r, vars) {
					continue
				}
				for o := range objectsOf(info, s.Lhs...) {
					if !vars[o] {
						vars[o], grew = true, true
					}
				}
			}
			return true
		})
	}
	return vars
}

// assignViolation classifies one assignment inside a map-range body.
func assignViolation(info *types.Info, s *ast.AssignStmt, rng *ast.RangeStmt, fnBody *ast.BlockStmt, loopVars map[types.Object]bool) string {
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else {
			rhs = s.Rhs[0] // multi-value call
		}
		// x = append(x, ...) — order-sensitive when x outlives the loop and
		// is not sorted afterwards.
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
			if id, isID := lhs.(*ast.Ident); isID {
				obj := info.ObjectOf(id)
				if obj == nil || id.Name == "_" || declaredWithin(obj, rng) {
					continue
				}
			} else if !uses(info, call, loopVars) {
				continue
			}
			if sortedAfter(info, render(lhs), rng, fnBody) {
				continue // collect-keys-then-sort idiom
			}
			return "appends to " + render(lhs) + " (outlives the loop, never sorted)"
		}
		// Writes keyed by a loop variable land deterministically.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if uses(info, ix.Index, loopVars) {
				continue
			}
			if rhs != nil && uses(info, rhs, loopVars) {
				return "writes a loop variable through an index that is not the loop key"
			}
			continue
		}
		// Commutative integer accumulation is order-insensitive.
		if isCommutativeIntAssign(info, s, lhs) {
			continue
		}
		if id, ok := lhs.(*ast.Ident); ok {
			obj := info.ObjectOf(id)
			if obj == nil || id.Name == "_" || declaredWithin(obj, rng) {
				continue
			}
			if rhs != nil && uses(info, rhs, loopVars) {
				return "assigns a loop variable to " + id.Name + " (declared outside the loop)"
			}
			continue
		}
		// Selector/star targets outside the loop carrying loop state out.
		if rhs != nil && uses(info, rhs, loopVars) && !uses(info, lhs, loopVars) {
			return "assigns a loop variable to " + render(lhs)
		}
	}
	return ""
}

// callViolation classifies one call inside a map-range body.
func callViolation(info *types.Info, call *ast.CallExpr, loopVars map[types.Object]bool) string {
	// Type conversions and order-insensitive builtins.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return ""
	}
	if isAnyBuiltin(info, call) {
		return ""
	}
	// append is handled at its assignment site.
	if isBuiltin(info, call, "append") {
		return ""
	}
	if recv, name, ok := methodCall(info, call); ok {
		argsUse := false
		for _, a := range call.Args {
			if uses(info, a, loopVars) {
				argsUse = true
				break
			}
		}
		if argsUse {
			return "calls " + render(recv) + "." + name + " with a loop variable"
		}
		return ""
	}
	// Plain function / func-value / package-level calls.
	for _, a := range call.Args {
		if uses(info, a, loopVars) {
			return "calls " + render(call.Fun) + " with a loop variable"
		}
	}
	return ""
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// sortedAfter reports whether the appended-to expression (by rendered
// spelling) is passed to a sort call after the loop in the same function
// body.
func sortedAfter(info *types.Info, target string, rng *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	if fnBody == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() {
			return true
		}
		path, name, ok := pkgFuncCall(info, call)
		if !ok || len(call.Args) == 0 {
			return true
		}
		isSort := (path == "sort" && (name == "Ints" || name == "Strings" || name == "Float64s" ||
			name == "Slice" || name == "SliceStable" || name == "Sort" || name == "Stable")) ||
			(path == "slices" && (name == "Sort" || name == "SortFunc" || name == "SortStableFunc"))
		if !isSort {
			return true
		}
		if render(call.Args[0]) == target {
			found = true
			return false
		}
		return true
	})
	return found
}

// isCommutativeIntAssign reports += |= &= ^= *= on integer-typed lhs.
func isCommutativeIntAssign(info *types.Info, s *ast.AssignStmt, lhs ast.Expr) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
	default:
		return false
	}
	t := info.TypeOf(lhs)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.ObjectOf(id).(*types.Builtin)
	return isB
}

// isAnyBuiltin reports whether the call's callee is any predeclared
// builtin except append (append is classified at its assignment).
func isAnyBuiltin(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if _, isB := info.ObjectOf(id).(*types.Builtin); !isB {
		return false
	}
	return id.Name != "append"
}
