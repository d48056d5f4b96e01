package core

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"wormcontain/internal/rng"
)

// refLimiter is the Section IV scheme spelled sequentially — one map of
// destination sets, no stripes, no small-set representation — the
// reference the striped Limiter is compared against.
type refLimiter struct {
	cfg     LimiterConfig
	epoch   time.Time
	cycle   uint64
	sets    map[uint32]map[uint32]bool
	removed map[uint32]bool
	flagged map[uint32]bool
	totals  Stats // the four cumulative counters only
}

func newRefLimiter(cfg LimiterConfig, start time.Time) *refLimiter {
	r := &refLimiter{cfg: cfg, epoch: start}
	r.clear()
	return r
}

func (r *refLimiter) clear() {
	r.sets = map[uint32]map[uint32]bool{}
	r.removed = map[uint32]bool{}
	r.flagged = map[uint32]bool{}
}

func (r *refLimiter) observe(src, dst uint32, t time.Time) Decision {
	for !t.Before(r.epoch.Add(r.cfg.Cycle)) {
		r.epoch = r.epoch.Add(r.cfg.Cycle)
		r.cycle++
		r.clear()
	}
	r.totals.TotalObserved++
	if r.sets[src] == nil {
		r.sets[src] = map[uint32]bool{}
	}
	switch {
	case r.removed[src]:
		r.totals.TotalDenied++
		return Deny
	case r.sets[src][dst]:
		return Allow
	case len(r.sets[src]) >= r.cfg.M:
		r.removed[src] = true
		r.totals.TotalRemovals++
		r.totals.TotalDenied++
		return Deny
	}
	r.sets[src][dst] = true
	if f := r.cfg.CheckFraction; f > 0 && !r.flagged[src] && float64(len(r.sets[src])) >= f*float64(r.cfg.M) {
		r.flagged[src] = true
		r.totals.TotalFlags++
		return AllowAndCheck
	}
	return Allow
}

func (r *refLimiter) reinstate(src uint32) bool {
	if !r.removed[src] {
		return false
	}
	r.sets[src] = map[uint32]bool{}
	r.removed[src], r.flagged[src] = false, false
	return true
}

// stats is the reference's Snapshot.
func (r *refLimiter) stats() Stats {
	s := r.totals
	s.ActiveHosts = len(r.sets)
	for src := range r.sets {
		if r.removed[src] {
			s.RemovedHosts++
		}
		if r.flagged[src] {
			s.FlaggedHosts++
		}
	}
	return s
}

func (s Stats) plus(o Stats) Stats {
	s.ActiveHosts += o.ActiveHosts
	s.RemovedHosts += o.RemovedHosts
	s.FlaggedHosts += o.FlaggedHosts
	s.TotalObserved += o.TotalObserved
	s.TotalRemovals += o.TotalRemovals
	s.TotalFlags += o.TotalFlags
	s.TotalDenied += o.TotalDenied
	return s
}

// TestStripeLayout pins what the padding is for — the fields of two
// stripes are more than a cache line apart at any alignment — and that
// the hash spreads sequential addresses over every stripe.
func TestStripeLayout(t *testing.T) {
	var s stripe
	if size, fields := unsafe.Sizeof(s), unsafe.Offsetof(s.denied)+unsafe.Sizeof(s.denied); size-fields < 64 {
		t.Errorf("stripe is %d bytes with %d of fields: neighbours can share a cache line", size, fields)
	}
	var hit [stripeCount]int
	for src := uint32(0); src < 64*stripeCount; src++ {
		hit[stripeIndex(0x0A000000+src)]++
	}
	for i, n := range hit {
		if n < 32 || n > 128 {
			t.Errorf("stripe %d gets %d of %d sequential sources, want about 64", i, n, 64*stripeCount)
		}
	}
}

// TestShardedSemanticsMatchSingle: the striped limiter is
// observationally identical to the sequential reference on a workload
// of many sources across every stripe, with repeats, removals,
// reinstates and cycle rolls (including skipped cycles).
func TestShardedSemanticsMatchSingle(t *testing.T) {
	cfg := LimiterConfig{M: 4, Cycle: time.Hour, CheckFraction: 0.5}
	for _, seed := range []uint64{1, 7, 1905} {
		l := newTestLimiter(t, cfg)
		ref := newRefLimiter(cfg, t0)
		r := rng.NewPCG64(seed, 46)
		at := t0
		for step := 0; step < 20000; step++ {
			// Mostly seconds apart; now and then a jump past one or
			// several cycle boundaries.
			at = at.Add(time.Duration(r.Uint64()%3000) * time.Millisecond)
			if r.Uint64()%4000 == 0 {
				at = at.Add(time.Duration(1+r.Uint64()%3) * cfg.Cycle)
			}
			src := uint32(r.Uint64() % 700)
			dst := uint32(r.Uint64() % 7)
			if got, want := l.Observe(src, dst, at), ref.observe(src, dst, at); got != want {
				t.Fatalf("seed %d step %d: Observe(%d, %d) = %v, reference %v", seed, step, src, dst, got, want)
			}
			if r.Uint64()%16 == 0 {
				if got, want := l.Reinstate(src), ref.reinstate(src); got != want {
					t.Fatalf("seed %d step %d: Reinstate(%d) = %v, reference %v", seed, step, src, got, want)
				}
			}
			if got, want := l.Removed(src), ref.removed[src]; got != want {
				t.Fatalf("seed %d step %d: Removed(%d) = %v, reference %v", seed, step, src, got, want)
			}
			if got, want := l.DistinctCount(src), len(ref.sets[src]); got != want {
				t.Fatalf("seed %d step %d: DistinctCount(%d) = %d, reference %d", seed, step, src, got, want)
			}
		}
		if got, want := l.CycleIndex(), ref.cycle; got != want || want == 0 {
			t.Errorf("seed %d: cycle index %d, reference %d (want > 0)", seed, got, want)
		}
		if got, want := l.Snapshot(), ref.stats(); got != want {
			t.Errorf("seed %d: stats diverge:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestShardedConcurrentThroughput drives the limiter from 8 goroutines
// on disjoint sources. A source's verdicts depend on its own
// observations alone, so each goroutine checks every verdict against a
// reference of its own, and the totals must add up.
func TestShardedConcurrentThroughput(t *testing.T) {
	cfg := LimiterConfig{M: 6, Cycle: time.Hour, CheckFraction: 0.5}
	l := newTestLimiter(t, cfg)
	const workers = 8
	refs := make([]*refLimiter, workers)
	var wg sync.WaitGroup
	for w := range refs {
		refs[w] = newRefLimiter(cfg, t0)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.NewPCG64(uint64(w), 47)
			for i := 0; i < 5000; i++ {
				src := uint32(w*100000) + uint32(r.Uint64()%100)
				dst := uint32(r.Uint64() % 9)
				if got, want := l.Observe(src, dst, t0), refs[w].observe(src, dst, t0); got != want {
					t.Errorf("worker %d step %d: Observe(%d, %d) = %v, reference %v", w, i, src, dst, got, want)
					return
				}
				if i%64 == 0 && l.Reinstate(src) != refs[w].reinstate(src) {
					t.Errorf("worker %d step %d: Reinstate(%d) disagrees with the reference", w, i, src)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var want Stats
	for _, ref := range refs {
		want = want.plus(ref.stats())
	}
	if got := l.Snapshot(); got != want {
		t.Errorf("stats diverge:\n got %+v\nwant %+v", got, want)
	}
	if want.ActiveHosts != workers*100 || want.RemovedHosts == 0 {
		t.Errorf("workload too thin: %+v", want)
	}
}
