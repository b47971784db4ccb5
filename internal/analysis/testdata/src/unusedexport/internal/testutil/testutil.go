// Package testutil is exempt from unusedexport by path: its exports
// exist for tests.
package testutil

// Fixture has no consumer, and is not reported.
func Fixture() int { return 5 }
