package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatCmp forbids == and != on floating-point operands outside the
// approved helpers in internal/fp. Exact float equality is almost never
// what numeric code means; where it is (sentinel checks, bit-exact replay
// assertions), route through fp.Zero or fp.Exact or suppress with a
// reasoned //lint:ignore; a tolerance check compares math.Abs of the
// difference with <=. Comparisons where both operands are compile-time
// constants are allowed, as are _test.go files: determinism tests assert
// bit-identical replay by design.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "forbid ==/!= on floating-point operands outside the internal/fp helpers",
	Run:  runFloatCmp,
}

func runFloatCmp(p *Pass) {
	if pathHasSuffix(p.PkgPath, "internal/fp") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			tx, okx := p.Info.Types[be.X]
			ty, oky := p.Info.Types[be.Y]
			if !okx || !oky || !isFloat(tx.Type) && !isFloat(ty.Type) {
				return true
			}
			if tx.Value != nil && ty.Value != nil {
				return true // constant folding: decided at compile time
			}
			if p.InTestFile(be.Pos()) {
				return true
			}
			p.Reportf(be.Pos(), "floating-point %s comparison: use internal/fp (fp.Zero, fp.Exact), a math.Abs tolerance, or math.IsNaN/math.IsInf", be.Op)
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
