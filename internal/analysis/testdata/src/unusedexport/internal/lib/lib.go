// Package lib is the unusedexport fixture's library: each exported
// identifier below either has a consumer elsewhere in the fixture module
// or is reported.
package lib

import "strconv"

// Used is called from cmd/app.
func Used() int { return 1 }

// Table is read from cmd/app.
var Table = []int{1, 2, 3}

// Dead has no reference at all.
func Dead() {}

// OwnTestOnly is referenced only by this package's own test.
func OwnTestOnly() int { return 2 }

// Seam is referenced only by another package's test: a cross-package
// test seam is a real consumer.
func Seam() int { return 3 }

// Countdown refers only to itself; recursion is no consumer.
func Countdown(n int) int {
	if n <= 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Answer is an unreferenced constant.
const Answer = 42

//lint:ignore unusedexport documents the zero value a caller gets by default
const Zero = 0

// Shape is used by cmd/app, which calls Area through it; nothing calls
// Perimeter.
type Shape interface {
	Area() float64
	Perimeter() float64
}

// Square implements Shape.
type Square struct{ Side float64 }

// Area implements the used Shape.Area.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter implements only the unused Shape.Perimeter.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// String implements fmt.Stringer, a standard-library interface whose
// callers cannot be seen.
func (s Square) String() string { return "square " + strconv.FormatFloat(s.Side, 'g', -1, 64) }

// Scale is called only by this package's test.
func (s Square) Scale(k float64) Square { return Square{Side: s.Side * k} }
