// Package other consumes lib only from its test.
package other

// Helper is called from cmd/app.
func Helper() int { return 4 }
