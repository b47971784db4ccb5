// Command app is the fixture module's non-test consumer.
package main

import (
	"os"

	"uxfix/internal/lib"
	"uxfix/internal/other"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	total := lib.Used() + other.Helper() + len(lib.Table) + int(s.Area())
	os.Exit(total % 2)
}
