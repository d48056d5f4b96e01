package core

import (
	"math"
	"testing"
)

func TestPresetsAllValid(t *testing.T) {
	presets := Presets(5000, 10)
	if len(presets) != 7 {
		t.Fatalf("presets = %d, want 7", len(presets))
	}
	names := map[string]bool{}
	for _, w := range presets {
		if err := w.validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if names[w.Name] {
			t.Errorf("duplicate preset name %s", w.Name)
		}
		names[w.Name] = true
		if w.M != 5000 || w.I0 != 10 {
			t.Errorf("%s: M/I0 not threaded through", w.Name)
		}
	}
}

func TestPresetThresholds(t *testing.T) {
	// Sanity anchors: Witty's sparse population has the largest
	// threshold; Sasser's the smallest.
	witty := witty(0, 1)
	if th := witty.ExtinctionThreshold(); math.Abs(th-357913.9) > 1 {
		t.Errorf("Witty 1/p = %v, want ≈357914", th)
	}
	sasser := sasser(0, 1)
	if th := sasser.ExtinctionThreshold(); math.Abs(th-4294.97) > 0.1 {
		t.Errorf("Sasser 1/p = %v, want ≈4295", th)
	}
	if witty.ExtinctionThreshold() <= sasser.ExtinctionThreshold() {
		t.Error("threshold ordering broken")
	}
}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"codered", "slammer", "codered2", "nimda", "blaster", "witty", "sasser"} {
		w, ok := PresetByName(name, 1000, 5)
		if !ok {
			t.Errorf("preset %q not found", name)
			continue
		}
		if w.M != 1000 || w.I0 != 5 {
			t.Errorf("%q: parameters not threaded", name)
		}
	}
	if _, ok := PresetByName("iloveyou", 1, 1); ok {
		t.Error("unknown preset should report !ok")
	}
}

func TestSasserThresholdImplication(t *testing.T) {
	// The denser the population, the tighter the admissible M: Sasser
	// at M = 5000 is already supercritical.
	w := sasser(5000, 10)
	if w.GuaranteedExtinction() {
		t.Error("Sasser at M=5000 has λ > 1; guarantee must not hold")
	}
	if _, err := w.TotalInfections(); err == nil {
		t.Error("expected error: total-infection law undefined at λ > 1")
	}
}
