// Package fp holds the project's approved floating-point comparison
// helpers. The floatcmp analyzer (cmd/pbolint) forbids raw == and != on
// float operands everywhere else, so every float comparison in the
// codebase names its intent: an exact sentinel or sparsity test (Zero),
// or deliberate bit-level equality (Exact). Tolerance checks compare
// math.Abs of the difference against a bound, which needs no helper.
package fp

// Zero reports x == 0 exactly (either sign of zero). Use it for sentinel
// "unset" checks and sparsity skips where only true zero qualifies.
func Zero(x float64) bool { return x == 0 }

// Exact reports a == b bitwise-as-compared (IEEE ==, so -0 == +0 and
// NaN != NaN). It exists so intentional exact equality — incumbent
// identity, replay assertions, degenerate-range guards — is named and
// reviewable instead of hiding behind a raw operator.
func Exact(a, b float64) bool { return a == b }
