package lib

import "testing"

func TestOwn(t *testing.T) {
	if OwnTestOnly() != 2 || (Square{Side: 1}).Scale(2).Side != 2 {
		t.Fatal("lib")
	}
}
