package topo

import (
	"testing"
	"time"
)

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

// TestTopoInfectionTreeMetrics reduces a hand-built lineage and checks
// every reported metric. Seeds 0,1; the tree:
//
//	0 -> 2 -> 4        generations: [2, 2, 2]
//	1 -> 3 -> 5        children:    0:1 1:1 2:1 3:1 4:0 5:0
func TestTopoInfectionTreeMetrics(t *testing.T) {
	events := []InfectionEvent{
		{Parent: 0, Child: 2, At: ms(10)},
		{Parent: 1, Child: 3, At: ms(20)},
		{Parent: 2, Child: 4, At: ms(30)},
		{Parent: 3, Child: 5, At: ms(40)},
	}
	m, err := AnalyzeInfectionTree(2, events)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != 6 || m.Seeds != 2 || m.MaxDepth != 2 || m.MaxChildren != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	for g, want := range []int{2, 2, 2} {
		if m.GenerationSizes[g] != want {
			t.Fatalf("generation sizes = %v", m.GenerationSizes)
		}
	}
	// Degree histogram: two leaves with 0 children, four nodes with 1.
	if m.DegreeHistogram[0] != 2 || m.DegreeHistogram[1] != 4 {
		t.Fatalf("degree histogram = %v", m.DegreeHistogram)
	}
	if got := m.TailFraction(1); got != 4.0/6 {
		t.Fatalf("TailFraction(1) = %v, want %v", got, 4.0/6)
	}
	if got := m.TailFraction(2); got != 0 {
		t.Fatalf("TailFraction(2) = %v, want 0", got)
	}
}

// TestTopoInfectionTreeSeedsOnly covers the no-spread corner.
func TestTopoInfectionTreeSeedsOnly(t *testing.T) {
	m, err := AnalyzeInfectionTree(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != 3 || m.MaxDepth != 0 || len(m.GenerationSizes) != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.TailFraction(0) != 1 {
		t.Fatalf("TailFraction(0) = %v, want 1", m.TailFraction(0))
	}
	var empty TreeMetrics
	if empty.TailFraction(0) != 0 {
		t.Fatal("zero-value metrics should report tail 0")
	}
}

// TestTopoInfectionTreeErrors sweeps the forest-validation paths:
// orphan parents, double infection, seeds as children, time travel.
func TestTopoInfectionTreeErrors(t *testing.T) {
	cases := []struct {
		name   string
		seeds  int
		events []InfectionEvent
	}{
		{"no seeds", 0, nil},
		{"orphan parent", 1, []InfectionEvent{{Parent: 5, Child: 2, At: ms(1)}}},
		{"seed as child", 2, []InfectionEvent{{Parent: 0, Child: 1, At: ms(1)}}},
		{"double infection", 1, []InfectionEvent{
			{Parent: 0, Child: 2, At: ms(1)}, {Parent: 0, Child: 2, At: ms(2)}}},
		{"child before parent", 1, []InfectionEvent{
			{Parent: 0, Child: 2, At: ms(10)}, {Parent: 2, Child: 3, At: ms(5)}}},
	}
	for _, c := range cases {
		if _, err := AnalyzeInfectionTree(c.seeds, c.events); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TailFraction returns the fraction of infected hosts whose infection-
// tree degree is at least d — the heavy-tail probe the property tests
// compare across topologies.
func (m *TreeMetrics) TailFraction(d int) float64 {
	if m.Total == 0 {
		return 0
	}
	count := 0
	for deg := d; deg < len(m.DegreeHistogram); deg++ {
		count += m.DegreeHistogram[deg]
	}
	return float64(count) / float64(m.Total)
}
