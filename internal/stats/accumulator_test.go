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

func TestAccumulatorMergeEqualsSerial(t *testing.T) {
	// Split one sample across several partial accumulators in uneven
	// chunks; merging the partials must reproduce the serial moments —
	// the property the parallel engine's per-worker reduction relies on.
	src := rng.NewSplitMix64(7)
	xs := make([]float64, 997)
	var serial Accumulator
	for i := range xs {
		xs[i] = src.Float64() * float64(i%13)
		serial.Add(xs[i])
	}
	parts := []Accumulator{{}, {}, {}, {}}
	for i, x := range xs {
		parts[(i*i)%len(parts)].Add(x)
	}
	var merged Accumulator
	for i := range parts {
		merged.merge(&parts[i])
	}
	ws, err := serial.Summary()
	if err != nil {
		t.Fatal(err)
	}
	gs, err := merged.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if gs.N != ws.N || gs.Min != ws.Min || gs.Max != ws.Max {
		t.Fatalf("merged N/min/max %d/%v/%v, want %d/%v/%v",
			gs.N, gs.Min, gs.Max, ws.N, ws.Min, ws.Max)
	}
	if math.Abs(gs.Mean-ws.Mean) > 1e-9 || math.Abs(gs.Variance-ws.Variance) > 1e-6 {
		t.Errorf("merged mean/var %v/%v, want %v/%v", gs.Mean, gs.Variance, ws.Mean, ws.Variance)
	}
}

func TestAccumulatorMergeEmptyCases(t *testing.T) {
	var a, b Accumulator
	b.Add(3)
	b.Add(5)
	a.merge(&b) // empty <- nonempty adopts b wholesale
	s, err := a.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 2 || s.Mean != 4 {
		t.Errorf("adopted summary %+v", s)
	}
	var empty Accumulator
	a.merge(&empty) // nonempty <- empty is a no-op
	s2, _ := a.Summary()
	if s2 != s {
		t.Errorf("merge with empty changed %+v to %+v", s, s2)
	}
}
