package lib

import "testing"

func TestOnly(t *testing.T) {
	if testOnly() != 2 || Shade(0).String() != "shade" || (&Options{TestSet: 1}).Apply() != 4 {
		t.Fatal("fixture")
	}
}
