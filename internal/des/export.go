package des

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Kernel-neutral checkpoint support (DESIGN.md §15).
//
// A simulation checkpoint must capture the pending-event set so a
// restored kernel reproduces the exact (time, seq) fire order. Rather
// than serializing backend internals (heap arrays, wheel buckets,
// occupancy bitmaps), ExportPending flattens the live events of either
// backend into one canonical (at, seq)-sorted slice, and Restore
// re-admits such a slice through the ScheduleBatch path. Sequence
// numbers need not survive the round trip: ScheduleBatch assigns fresh
// ascending seqs in slice order, which preserves the exported relative
// order, and any event scheduled *after* the restore receives a larger
// seq — exactly the tie-break position it would have had in the
// uninterrupted run, where it would also have been scheduled later.
// That is what makes the export format kernel-neutral: a heap
// checkpoint restores onto a wheel (and vice versa) bit-identically.

// ExportedEvent is one pending event in canonical exported form.
// Only argument-form events (Emit/EmitAt/ScheduleBatch) are
// exportable: the Fn value must be mapped to a serializable identity
// by the caller, which owns the (small, fixed) set of handler
// functions it schedules with.
type ExportedEvent struct {
	At  time.Duration
	Fn  ArgHandler
	Arg int
}

// errUnexportable reports a pending closure-form event (ScheduleAt): a captured closure has no serializable identity,
// so a simulation that wants checkpointing must schedule exclusively
// through the argument forms.
var errUnexportable = errors.New("des: pending closure-form event cannot be exported")

// ExportPending returns every live pending event in (at, seq) fire
// order — the canonical kernel-neutral checkpoint of the queue.
// Canceled events are skipped (they would never fire); a pending
// closure-form event returns an error.
func (s *Simulator) ExportPending() ([]ExportedEvent, error) {
	type keyed struct {
		at  time.Duration
		seq uint64
		fn  ArgHandler
		arg int
	}
	evs := make([]keyed, 0, s.Pending())
	add := func(at time.Duration, seq uint64, fn Handler, argFn ArgHandler, arg int) error {
		if fn != nil {
			return fmt.Errorf("%w (at %v)", errUnexportable, at)
		}
		evs = append(evs, keyed{at: at, seq: seq, fn: argFn, arg: arg})
		return nil
	}
	if s.kind == KernelWheel {
		w := &s.wheel
		entry := func(e wheelEntry) error {
			if e.t != nil {
				if e.t.canceled {
					return nil
				}
				return add(e.at, e.seq, e.t.fn, e.t.argFn, e.t.arg)
			}
			return add(e.at, e.seq, nil, e.argFn, e.arg)
		}
		for _, e := range w.due {
			if err := entry(e); err != nil {
				return nil, err
			}
		}
		for _, e := range w.overflow {
			if err := entry(e); err != nil {
				return nil, err
			}
		}
		for _, sl := range w.slots {
			for c, n := sl.head, sl.n; c != nil; c, n = c.next, wheelChunkCap {
				for i := int32(0); i < n; i++ {
					if err := entry(c.evs[i]); err != nil {
						return nil, err
					}
				}
			}
		}
	} else {
		for _, t := range s.heap {
			if t.canceled {
				continue
			}
			if err := add(t.at, t.seq, t.fn, t.argFn, t.arg); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].seq < evs[j].seq
	})
	out := make([]ExportedEvent, len(evs))
	for i, e := range evs {
		out[i] = ExportedEvent{At: e.at, Fn: e.fn, Arg: e.arg}
	}
	return out, nil
}

// Restore reinitializes the simulator to a checkpointed position: clock
// at now, fired events executed so far, and the given pending set
// (canonically ordered or not — ScheduleBatch order only needs to match
// the exported order for bit-identical continuation). The kernel
// configuration (Configure) is unchanged; the node pool is retained.
func (s *Simulator) Restore(now time.Duration, fired uint64, evs []BatchEvent) {
	if now < 0 {
		panic(fmt.Sprintf("des: restore to negative time %v", now))
	}
	s.Reset()
	s.now = now
	if s.kind == KernelWheel {
		s.wheel.cur = uint64(now) >> s.tickShift
	}
	s.fired = fired
	s.ScheduleBatch(evs)
}

// NextEventAt reports the timestamp of the earliest live pending event;
// ok is false when the queue holds none. It is the public peek used by
// checkpoint-driven run loops to find cut points between events.
func (s *Simulator) NextEventAt() (at time.Duration, ok bool) {
	return s.peek()
}

// Stopped reports whether Stop has been called since the last Run,
// RunUntil or Restore — the state a Step-driven loop checks to honor
// in-handler Stop requests the way Run does.
func (s *Simulator) Stopped() bool { return s.stopped }

// ClearStop resets the Stop latch. Run and RunUntil clear it on entry;
// a Step-driven loop calls this once at its own entry to mirror them
// (it matters when event admission before the loop — outbreak seeding,
// say — already tripped a Stop).
func (s *Simulator) ClearStop() { s.stopped = false }

// AdvanceTo moves the clock forward to t without firing any events,
// mirroring RunUntil's deadline semantics for Step-driven loops: a
// checkpointing runner that stops stepping (deadline reached, or a
// handler called Stop) uses it to land the clock exactly where
// RunUntil would have. Earlier times are a no-op; pending events are
// untouched, even ones with timestamps <= t.
func (s *Simulator) AdvanceTo(t time.Duration) {
	if t > s.now {
		s.now = t
	}
}
