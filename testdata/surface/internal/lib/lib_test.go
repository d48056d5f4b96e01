package lib

import "testing"

func TestOnly(t *testing.T) {
	if testOnly() != 2 || Shade(0).String() != "shade" {
		t.Fatal("fixture")
	}
}
