package des

import (
	"testing"
	"time"

	"wormcontain/internal/telemetry"
)

func TestInstrumentCountsEventsAndDepth(t *testing.T) {
	s := New()
	reg := telemetry.NewRegistry()
	s.Instrument(reg)

	for i := 0; i < 5; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() {})
	}
	if v, _ := reg.Snapshot().Value("des_queue_depth"); v != 0 {
		// Depth updates per Step; before any step it holds the value at
		// Instrument time.
		t.Errorf("initial depth = %v, want 0", v)
	}

	s.Step()
	snap := reg.Snapshot()
	if v, _ := snap.Value("des_events_executed_total"); v != 1 {
		t.Errorf("events after one step = %v, want 1", v)
	}
	if v, _ := snap.Value("des_queue_depth"); v != 4 {
		t.Errorf("depth after one step = %v, want 4", v)
	}

	s.RunUntil(MaxTime, nil)
	snap = reg.Snapshot()
	if v, _ := snap.Value("des_events_executed_total"); v != 5 {
		t.Errorf("events after drain = %v, want 5", v)
	}
	if v, _ := snap.Value("des_queue_depth"); v != 0 {
		t.Errorf("depth after drain = %v, want 0", v)
	}
	if s.Fired() != 5 {
		t.Errorf("Fired = %d, want 5", s.Fired())
	}
}

func TestInstrumentSeesHandlerScheduledEvents(t *testing.T) {
	s := New()
	reg := telemetry.NewRegistry()
	s.Instrument(reg)

	s.Schedule(0, func() {
		s.Schedule(time.Second, func() {})
		s.Schedule(2*time.Second, func() {})
	})
	s.Step()
	if v, _ := reg.Snapshot().Value("des_queue_depth"); v != 2 {
		t.Errorf("depth after fan-out handler = %v, want 2", v)
	}
}

func TestUninstrumentedSimulatorRegistersNothing(t *testing.T) {
	s := New()
	s.Schedule(0, func() {})
	s.RunUntil(MaxTime, nil) // must not panic without instruments
	if s.Fired() != 1 {
		t.Errorf("Fired = %d, want 1", s.Fired())
	}
}
