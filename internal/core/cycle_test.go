package core

import (
	"math"
	"testing"
	"time"
)

func TestCyclePlannerValidation(t *testing.T) {
	cases := []struct {
		p       CyclePlanner
		wantErr bool
	}{
		{CyclePlanner{M: 5000, CheckFraction: 0.9, Tolerance: 0.01}, false},
		{CyclePlanner{M: 0, CheckFraction: 0.9, Tolerance: 0.01}, true},
		{CyclePlanner{M: 10, CheckFraction: 0, Tolerance: 0.01}, true},
		{CyclePlanner{M: 10, CheckFraction: 1.5, Tolerance: 0.01}, true},
		{CyclePlanner{M: 10, CheckFraction: 0.5, Tolerance: 1}, true},
		{CyclePlanner{M: 10, CheckFraction: 0.5, Tolerance: -0.1}, true},
	}
	for _, c := range cases {
		if err := c.p.validate(); (err != nil) != c.wantErr {
			t.Errorf("%+v: err = %v, wantErr = %v", c.p, err, c.wantErr)
		}
	}
}

func TestRecommendBasicSizing(t *testing.T) {
	// Every host generates 1 new distinct destination per hour; budget
	// is f·M = 0.9·720 = 648, so the cycle should be 648 hours (within
	// bounds).
	p := CyclePlanner{M: 720, CheckFraction: 0.9, Tolerance: 0}
	rates := make([]float64, 100)
	for i := range rates {
		rates[i] = 1
	}
	cycle, err := p.Recommend(rates, time.Hour, 10000*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	want := 648 * time.Hour
	if d := (cycle - want).Abs(); d > time.Minute {
		t.Errorf("cycle = %v, want %v", cycle, want)
	}
}

func TestRecommendToleranceIgnoresOutliers(t *testing.T) {
	// 99 quiet hosts and one extreme scanner; with 2% tolerance the
	// scanner is ignored and the quiet rate sizes the cycle.
	p := CyclePlanner{M: 1000, CheckFraction: 0.5, Tolerance: 0.02}
	rates := make([]float64, 100)
	for i := range rates {
		rates[i] = 0.5
	}
	rates[0] = 1e6
	cycle, err := p.Recommend(rates, time.Hour, 100000*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(0.5 * 1000 / 0.5 * float64(time.Hour)) // 1000h
	if d := (cycle - want).Abs(); d > time.Minute {
		t.Errorf("cycle = %v, want %v", cycle, want)
	}
	// With zero tolerance the outlier dominates and forces minCycle.
	p.Tolerance = 0
	cycle, err = p.Recommend(rates, time.Hour, 100000*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if cycle != time.Hour {
		t.Errorf("cycle = %v, want the minimum (outlier dominates)", cycle)
	}
}

func TestRecommendBoundsClamping(t *testing.T) {
	p := CyclePlanner{M: 10, CheckFraction: 0.5, Tolerance: 0}
	// Very fast hosts: unclamped cycle would be tiny.
	cycle, err := p.Recommend([]float64{1e9}, time.Hour, time.Hour*24)
	if err != nil {
		t.Fatal(err)
	}
	if cycle != time.Hour {
		t.Errorf("cycle = %v, want clamp to min", cycle)
	}
	// All-zero rates: any cycle works; expect the max.
	cycle, err = p.Recommend([]float64{0, 0}, time.Hour, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if cycle != 24*time.Hour {
		t.Errorf("cycle = %v, want clamp to max", cycle)
	}
}

func TestRecommendErrors(t *testing.T) {
	p := CyclePlanner{M: 10, CheckFraction: 0.5, Tolerance: 0}
	if _, err := p.Recommend(nil, time.Hour, 2*time.Hour); err == nil {
		t.Error("expected error for empty rates")
	}
	if _, err := p.Recommend([]float64{1}, 0, time.Hour); err == nil {
		t.Error("expected error for zero min bound")
	}
	if _, err := p.Recommend([]float64{1}, 2*time.Hour, time.Hour); err == nil {
		t.Error("expected error for max < min")
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := p.Recommend([]float64{bad}, time.Hour, 2*time.Hour); err == nil {
			t.Errorf("expected error for rate %v", bad)
		}
	}
	bad := CyclePlanner{M: 0, CheckFraction: 0.5, Tolerance: 0}
	if _, err := bad.Recommend([]float64{1}, time.Hour, 2*time.Hour); err == nil {
		t.Error("expected validation error")
	}
}
