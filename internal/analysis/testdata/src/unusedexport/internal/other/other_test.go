package other

import (
	"testing"

	"uxfix/internal/lib"
)

func TestSeam(t *testing.T) {
	if lib.Seam() != 3 {
		t.Fatal("seam")
	}
}
