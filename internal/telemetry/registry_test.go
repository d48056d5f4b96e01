package telemetry

import "testing"

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", "requests")
	b := r.Counter("requests_total", "requests")
	if a != b {
		t.Error("same name should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("aliased counters out of sync")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x_total", "")
}

func TestRegistryLabelMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("y_total", "", "verdict")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on label mismatch")
		}
	}()
	r.CounterVec("y_total", "", "decision")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid name")
		}
	}()
	r.Counter("bad name", "")
}

func TestCounterVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("conns_total", "connections", "decision")
	v.With("allow").Add(3)
	v.With("deny").Inc()
	v.With("allow").Inc()

	s := r.Snapshot()
	if got, ok := s.Value("conns_total", "allow"); !ok || got != 4 {
		t.Errorf("allow = %v (ok=%v), want 4", got, ok)
	}
	if got, ok := s.Value("conns_total", "deny"); !ok || got != 1 {
		t.Errorf("deny = %v (ok=%v), want 1", got, ok)
	}
	if _, ok := s.Value("conns_total", "nope"); ok {
		t.Error("unknown series should not resolve")
	}
}

func TestFuncMetricsEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry()
	val := 1.0
	r.GaugeFunc("depth", "", func() float64 { return val })
	r.CounterFunc("total", "", func() float64 { return 2 * val })
	if got, _ := r.Snapshot().Value("depth"); got != 1 {
		t.Errorf("depth = %v", got)
	}
	val = 7
	s := r.Snapshot()
	if got, _ := s.Value("depth"); got != 7 {
		t.Errorf("depth after change = %v", got)
	}
	if got, _ := s.Value("total"); got != 14 {
		t.Errorf("total = %v", got)
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "")
	r.Counter("aaa_total", "")
	r.Gauge("mmm", "")
	s := r.Snapshot()
	for i := 1; i < len(s.Families); i++ {
		if s.Families[i-1].Name >= s.Families[i].Name {
			t.Fatalf("families out of order: %q >= %q", s.Families[i-1].Name, s.Families[i].Name)
		}
	}
}
