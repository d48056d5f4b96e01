package stats

import (
	"math"
	"testing"

	"wormcontain/internal/rng"
)

func TestAccumulatorMatchesSummarize(t *testing.T) {
	src := rng.NewSplitMix64(99)
	xs := make([]float64, 1000)
	var acc Accumulator
	for i := range xs {
		xs[i] = 100*src.Float64() - 50
		acc.Add(xs[i])
	}
	want, err := summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := acc.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N {
		t.Fatalf("N = %d, want %d", got.N, want.N)
	}
	if got.Min != want.Min || got.Max != want.Max {
		t.Errorf("min/max = %v/%v, want %v/%v", got.Min, got.Max, want.Min, want.Max)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean", got.Mean, want.Mean},
		{"variance", got.Variance, want.Variance},
		{"std", got.Std, want.Std},
	} {
		if math.Abs(c.got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestAccumulatorSingleObservation(t *testing.T) {
	var acc Accumulator
	acc.AddInt(7)
	s, err := acc.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 1 || s.Mean != 7 || s.Min != 7 || s.Max != 7 || s.Variance != 0 || s.Std != 0 {
		t.Errorf("summary = %+v", s)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var acc Accumulator
	if _, err := acc.Summary(); err == nil {
		t.Error("expected error for empty accumulator")
	}
	if acc.n != 0 || acc.mean != 0 {
		t.Errorf("empty accumulator N=%d Mean=%v", acc.n, acc.mean)
	}
}
