package core

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wormcontain/internal/rng"
)

// randomExactHistory drives an exact limiter through a seeded history
// that leaves every kind of state behind: spilled distinct sets,
// removals, flags, reinstates, multi-cycle rolls and fleet alerts.
func randomExactHistory(t testing.TB, seed uint64) *Limiter {
	t.Helper()
	r := rng.NewPCG64(seed, 42)
	cfg := LimiterConfig{
		M:             int(3 + r.Uint64()%100), // crosses the inline capacity: spilled sets
		Cycle:         time.Duration(1+r.Uint64()%30) * time.Second,
		CheckFraction: float64(r.Uint64()%11) / 10, // includes 0 (disabled) and 1
	}
	start := time.UnixMilli(int64(r.Uint64() % (1 << 41))).UTC()
	l, err := NewLimiter(cfg, start)
	if err != nil {
		t.Fatalf("seed %d: NewLimiter: %v", seed, err)
	}
	now := start
	for i := 0; i < 5000; i++ {
		now = now.Add(time.Duration(r.Uint64()%20_000_000) * time.Nanosecond)
		src := uint32(r.Uint64() % 16)
		l.Observe(src, uint32(r.Uint64()%256), now)
		switch r.Uint64() % 100 {
		case 0:
			l.Reinstate(src)
		case 1:
			l.ApplyAlert(Alert{Origin: r.Uint64() % 3, Seq: r.Uint64() % 40, Src: uint32(r.Uint64() % 24), UnixMs: now.UnixMilli()})
		}
	}
	// Whatever the last cycle roll erased, the snapshot holds a host
	// flagged and removed at its budget, one removed by alert and one
	// mid-budget.
	for dst := uint32(0); !l.Removed(200); dst++ {
		l.Observe(200, dst, now)
	}
	l.Observe(201, 1, now)
	l.ApplyAlert(Alert{Origin: 9, Seq: 1, Src: 202, UnixMs: now.UnixMilli()})
	if s := l.Snapshot(); s.RemovedHosts < 2 || s.FlaggedHosts == 0 && cfg.CheckFraction > 0 {
		t.Fatalf("seed %d: history left no removed or flagged host behind: %+v", seed, s)
	}
	return l
}

// randomSketchHistory is randomExactHistory's sketch-backend twin, with
// failure observations filling the failure registers.
func randomSketchHistory(t testing.TB, seed uint64) *SketchLimiter {
	t.Helper()
	r := rng.NewPCG64(seed, 43)
	cfg := SketchConfig{
		LimiterConfig: LimiterConfig{
			M:             int(20 + r.Uint64()%300), // 64- and 128-bit contact sketches
			Cycle:         time.Duration(1+r.Uint64()%30) * time.Second,
			CheckFraction: float64(r.Uint64()%11) / 10,
		},
		FailureM: int(5 + r.Uint64()%20),
	}
	start := time.UnixMilli(int64(r.Uint64() % (1 << 41))).UTC()
	l, err := NewSketchLimiter(cfg, start)
	if err != nil {
		t.Fatalf("seed %d: NewSketchLimiter: %v", seed, err)
	}
	now := start
	for i := 0; i < 5000; i++ {
		now = now.Add(time.Duration(r.Uint64()%20_000_000) * time.Nanosecond)
		src, dst := uint32(r.Uint64()%16), uint32(r.Uint64())
		l.Observe(src, dst, now)
		switch r.Uint64() % 100 {
		case 0:
			l.Reinstate(src)
		case 1:
			l.ApplyAlert(Alert{Origin: r.Uint64() % 3, Seq: r.Uint64() % 40, Src: uint32(r.Uint64() % 24), UnixMs: now.UnixMilli()})
		case 2, 3, 4, 5, 6, 7, 8, 9:
			l.ObserveFailure(src, dst, now)
		}
	}
	// As in randomExactHistory, plus a host with failure registers set.
	for dst := uint32(0); !l.Removed(200); dst++ {
		l.Observe(200, dst, now)
	}
	l.Observe(201, 1, now)
	l.ObserveFailure(201, 1, now)
	l.ApplyAlert(Alert{Origin: 9, Seq: 1, Src: 202, UnixMs: now.UnixMilli()})
	if s := l.Snapshot(); s.RemovedHosts < 2 || l.failureCount(201) == 0 || s.FlaggedHosts == 0 && cfg.CheckFraction > 0 {
		t.Fatalf("seed %d: history left no removed, flagged or failing host behind: %+v", seed, s)
	}
	return l
}

// TestLimiterSnapshotRoundTripRandomHistories is the durability
// property test: MarshalState → Restore → MarshalState is byte-identical
// across randomized limiter histories of both backends, and the
// restored limiter decides the next observation like the live one.
func TestLimiterSnapshotRoundTripRandomHistories(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1905} {
		for name, l := range map[string]Backend{
			"exact":  randomExactHistory(t, seed),
			"sketch": randomSketchHistory(t, seed),
		} {
			first := mustMarshal(t, l)
			restored, err := RestoreAnyLimiter(first)
			if err != nil {
				t.Fatalf("seed %d %s: restore: %v", seed, name, err)
			}
			if second := mustMarshal(t, restored); !bytes.Equal(first, second) {
				t.Fatalf("seed %d %s: round trip not byte-identical:\nfirst:  %x\nsecond: %x", seed, name, first, second)
			}
			if l.Snapshot() != restored.Snapshot() {
				t.Fatalf("seed %d %s: stats diverge: %+v vs %+v", seed, name, l.Snapshot(), restored.Snapshot())
			}
			if !slices.Equal(l.Alerts(), restored.Alerts()) {
				t.Fatalf("seed %d %s: alert ledgers diverge", seed, name)
			}
			// Behaviorally live, not just serializable: both copies
			// decide fresh traffic the same way, in this cycle and the
			// next, and end in the same state.
			probe := epochOf(restored)
			for i := 0; i < 400; i++ {
				at := probe.Add(time.Duration(i) * l.Config().Cycle / 300)
				src, dst := uint32(i%20), uint32(999+i/3)
				if a, b := l.Observe(src, dst, at), restored.Observe(src, dst, at); a != b {
					t.Fatalf("seed %d %s: decision %d diverged: live %v, restored %v", seed, name, i, a, b)
				}
			}
			if !bytes.Equal(mustMarshal(t, l), mustMarshal(t, restored)) {
				t.Fatalf("seed %d %s: states diverged after identical traffic", seed, name)
			}
		}
	}
}

// walkStats counts a limiter's tracked, removed and flagged hosts (and an
// exact limiter's destinations) the slow way, from the per-host state
// Snapshot no longer reads.
func walkStats(l Backend) (active, removed, flagged, dsts int) {
	switch l := l.(type) {
	case *Limiter:
		l.lockAll()
		defer l.unlockAll()
		for i := range l.stripes {
			tab := &l.stripes[i].hosts
			for j := range tab.slots {
				h := &tab.slots[j]
				if !h.live() {
					continue
				}
				active++
				dsts += len(tab.destinations(h, nil))
				if h.removed() {
					removed++
				}
				if h.flagged() {
					flagged++
				}
			}
		}
	case *SketchLimiter:
		l.lockAll()
		defer l.unlockAll()
		for i := range l.stripes {
			for _, h := range l.stripes[i].hosts.slots {
				if !h.live() {
					continue
				}
				active++
				if h.removed() {
					removed++
				}
				if h.flagged() {
					flagged++
				}
			}
		}
	}
	return
}

// TestSnapshotCountersEqualWalk: Snapshot's ActiveHosts, RemovedHosts and
// FlaggedHosts are counters kept where the marks change — budget
// removal, failure removal, flag, Reinstate, alert removal, cycle roll,
// restore — and they equal a walk of the per-host state after every
// stretch of a random history, across a restore and after it, on both
// backends. So do the exact stripes' destination totals, which size a
// snapshot's copy-out.
func TestSnapshotCountersEqualWalk(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1905} {
		cfg := LimiterConfig{M: 20, Cycle: 40 * time.Second, CheckFraction: 0.5}
		exact := newTestLimiter(t, cfg)
		sketch := newTestSketch(t, SketchConfig{LimiterConfig: cfg, FailureM: 6})
		for name, l := range map[string]Backend{"exact": exact, "sketch": sketch} {
			check := func(when string) {
				t.Helper()
				active, removed, flagged, dsts := walkStats(l)
				st := l.Snapshot()
				if st.ActiveHosts != active || st.RemovedHosts != removed || st.FlaggedHosts != flagged {
					t.Fatalf("seed %d %s %s: Snapshot counts %d active, %d removed, %d flagged; a walk finds %d, %d, %d",
						seed, name, when, st.ActiveHosts, st.RemovedHosts, st.FlaggedHosts, active, removed, flagged)
				}
				if ex, ok := l.(*Limiter); ok {
					total := 0
					for i := range ex.stripes {
						total += ex.stripes[i].hosts.dsts
					}
					if total != dsts {
						t.Fatalf("seed %d %s %s: stripes count %d destinations, a walk finds %d", seed, name, when, total, dsts)
					}
				}
			}
			r := rng.NewPCG64(seed, 49)
			now := sketchStart
			reinstates := 0
			for step := 0; step < 12000; step++ {
				now = now.Add(time.Duration(r.Uint64()%20) * time.Millisecond) // a roll every 4000 steps or so
				src, dst := uint32(r.Uint64()%40), uint32(r.Uint64()%64)
				l.Observe(src, dst, now)
				switch r.Uint64() % 50 {
				case 0:
					if l.Reinstate(src) {
						reinstates++
					}
				case 1:
					l.ApplyAlert(Alert{Origin: seed, Seq: uint64(step), Src: uint32(r.Uint64() % 60), UnixMs: now.UnixMilli()})
				case 2, 3, 4, 5, 6, 7, 8, 9:
					if fo, ok := l.(FailureObserver); ok {
						fo.ObserveFailure(src, dst, now)
					}
				}
				if step%500 == 499 {
					check("live")
				}
				if step == 7000 {
					restored, err := RestoreAnyLimiter(mustMarshal(t, l))
					if err != nil {
						t.Fatalf("seed %d %s: restore: %v", seed, name, err)
					}
					l = restored
					check("restored")
				}
			}
			// Every kind of transition must have happened.
			st := l.Snapshot()
			if l.CycleIndex() < 2 || st.TotalRemovals == 0 || st.AlertRemovals == 0 || st.TotalFlags == 0 || reinstates == 0 ||
				name == "sketch" && st.FailureRemovals == 0 {
				t.Fatalf("seed %d %s: history too thin: cycle %d, %d reinstates, %+v", seed, name, l.CycleIndex(), reinstates, st)
			}
		}
	}
}

// epochOf reads the current cycle's start.
func epochOf(l Backend) time.Time {
	switch l := l.(type) {
	case *Limiter:
		return l.epochNow()
	case *SketchLimiter:
		return l.epochNow()
	}
	panic("unknown backend")
}

func (l *limiter[T, P]) epochNow() time.Time {
	l.stripes[0].mu.Lock()
	defer l.stripes[0].mu.Unlock()
	return l.epoch
}

// TestLimiterSnapshotCanonical is the one-state-one-byte-string
// property: limiters that reach the same state along different paths —
// sources interleaved in a different order, alerts applied in a
// different order, hence different map layouts and sketch slot
// assignments, or fed from eight goroutines at once — marshal to
// identical bytes.
func TestLimiterSnapshotCanonical(t *testing.T) {
	type event struct {
		src, dst uint32
		failure  bool
	}
	for _, seed := range []uint64{1, 7, 1905} {
		r := rng.NewPCG64(seed, 44)
		const sources = 24
		perSource := make([][]event, sources)
		for s := range perSource {
			n := int(r.Uint64() % 200)
			for i := 0; i < n; i++ {
				perSource[s] = append(perSource[s], event{uint32(s), uint32(r.Uint64() % 512), r.Uint64()%4 == 0})
			}
		}
		alerts := make([]Alert, 12)
		for i := range alerts {
			alerts[i] = Alert{Origin: uint64(i % 3), Seq: uint64(1 + i/3), Src: 1000 + uint32(r.Uint64()%8), UnixMs: t0.UnixMilli()}
		}
		// A host's state depends only on its own events in order, so
		// any interleaving of the sources reaches the same state; the
		// alerts remove hosts that send nothing.
		forward := func(apply func(event), alert func(Alert)) {
			for s := 0; s < sources; s++ {
				for _, e := range perSource[s] {
					apply(e)
				}
			}
			for _, a := range alerts {
				alert(a)
			}
		}
		interleaved := func(apply func(event), alert func(Alert)) {
			for i := len(alerts) - 1; i >= 0; i-- {
				alert(alerts[i])
			}
			for i := 0; i < 200; i++ {
				for s := sources - 1; s >= 0; s-- {
					if i < len(perSource[s]) {
						apply(perSource[s][i])
					}
				}
			}
		}
		// The same inputs from eight goroutines: source s belongs to
		// goroutine s mod 8, the alerts to a ninth.
		concurrent := func(apply func(event), alert func(Alert)) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for s := g; s < sources; s += 8 {
						for _, e := range perSource[s] {
							apply(e)
						}
					}
				}(g)
			}
			for _, a := range alerts {
				alert(a)
			}
			wg.Wait()
		}
		for _, backend := range []string{"exact", "sketch"} {
			var states [][]byte
			for _, order := range []func(func(event), func(Alert)){forward, interleaved, concurrent} {
				var l Backend
				cfg := LimiterConfig{M: 90, Cycle: time.Hour, CheckFraction: 0.5}
				if backend == "sketch" {
					l = newTestSketch(t, SketchConfig{LimiterConfig: cfg, FailureM: 20})
				} else {
					l = newTestLimiter(t, cfg)
				}
				order(func(e event) {
					if fo, ok := l.(FailureObserver); ok && e.failure {
						fo.ObserveFailure(e.src, e.dst, t0)
					}
					l.Observe(e.src, e.dst, t0)
				}, func(a Alert) { l.ApplyAlert(a) })
				states = append(states, mustMarshal(t, l))
			}
			if !bytes.Equal(states[0], states[1]) {
				t.Errorf("seed %d %s: the same state reached along two paths marshals differently", seed, backend)
			}
			if !bytes.Equal(states[0], states[2]) {
				t.Errorf("seed %d %s: the same inputs fed from 1 and from 8 goroutines marshal differently", seed, backend)
			}
		}
	}
}

// TestSortDestinations checks the counting sort against the library
// sort on both sides of its size cutoff.
func TestSortDestinations(t *testing.T) {
	r := rng.NewPCG64(1905, 45)
	var scratch []uint32 // grown by the calls that need it
	for _, n := range []int{0, 1, 255, 256, 257, 5000, 300} {
		d := make([]uint32, n)
		for i := range d {
			d[i] = uint32(r.Uint64())
			if i%7 == 0 {
				d[i] &= 0xff00ff // shared digits
			}
		}
		want := slices.Clone(d)
		slices.Sort(want)
		sortDestinations(d, &scratch)
		if !slices.Equal(d, want) {
			t.Fatalf("n=%d: counting sort disagrees with slices.Sort", n)
		}
	}
}

// TestRestoreLimiterRejectsCheckFractionLikeValidate pins the
// construction/restore validation parity: a snapshot with an
// out-of-range CheckFraction is rejected with the same Validate error a
// direct construction gets.
func TestRestoreLimiterRejectsCheckFractionLikeValidate(t *testing.T) {
	for _, f := range []float64{-0.1, 1.0001, 2, -7} {
		cfg := LimiterConfig{M: 5, Cycle: time.Hour, CheckFraction: f}
		wantErr := cfg.Validate()
		if wantErr == nil {
			t.Fatalf("CheckFraction %v: Validate accepted, test premise broken", f)
		}
		if _, err := NewLimiter(cfg, time.Unix(0, 0)); err == nil {
			t.Fatalf("CheckFraction %v: NewLimiter accepted", f)
		}
		for _, spec := range []snapSpec{exactSpec(), sketchSpecValid()} {
			spec.checkFraction = f
			_, err := RestoreAnyLimiter(spec.encode())
			if err == nil {
				t.Fatalf("CheckFraction %v: restore accepted out-of-range snapshot", f)
			}
			if !strings.Contains(err.Error(), wantErr.Error()) {
				t.Fatalf("CheckFraction %v: restore error %q does not carry Validate error %q",
					f, err, wantErr)
			}
		}
	}
}
