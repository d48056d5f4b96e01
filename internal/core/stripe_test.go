package core

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"wormcontain/internal/rng"
)

// refLimiter is the Section IV scheme spelled sequentially — one map of
// destination sets, no stripes, no host table, no inline or spilled
// representation — the reference the Limiter is compared against.
type refLimiter struct {
	cfg     LimiterConfig
	epoch   time.Time
	cycle   uint64
	sets    map[uint32]map[uint32]bool
	fails   map[uint32]map[uint32]bool // refSketch's failure bits
	removed map[uint32]bool
	flagged map[uint32]bool
	totals  Stats // the cumulative counters only
}

func newRefLimiter(cfg LimiterConfig, start time.Time) *refLimiter {
	r := &refLimiter{cfg: cfg, epoch: start}
	r.clear()
	return r
}

func (r *refLimiter) clear() {
	r.sets = map[uint32]map[uint32]bool{}
	r.fails = map[uint32]map[uint32]bool{}
	r.removed = map[uint32]bool{}
	r.flagged = map[uint32]bool{}
}

// roll advances the cycle to contain t.
func (r *refLimiter) roll(t time.Time) {
	for !t.Before(r.epoch.Add(r.cfg.Cycle)) {
		r.epoch = r.epoch.Add(r.cfg.Cycle)
		r.cycle++
		r.clear()
	}
}

// track starts src's state on first contact.
func (r *refLimiter) track(src uint32) {
	if r.sets[src] == nil {
		r.sets[src] = map[uint32]bool{}
	}
}

func (r *refLimiter) observe(src, dst uint32, t time.Time) Decision {
	r.roll(t)
	r.totals.TotalObserved++
	r.track(src)
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
	delete(r.fails, src)
	r.removed[src], r.flagged[src] = false, false
	return true
}

// alert is ApplyAlert of an alert not applied before.
func (r *refLimiter) alert(src uint32, t time.Time) {
	r.roll(t)
	r.totals.TotalAlerts++
	if t.Before(r.epoch) {
		return // raised in a cycle that has ended
	}
	r.track(src)
	if !r.removed[src] {
		r.removed[src] = true
		r.totals.AlertRemovals++
	}
}

// state is what the reference says of src: removed, and the size of
// its set and of its failure set.
func (r *refLimiter) state(src uint32) (removed bool, n, fails int) {
	return r.removed[src], len(r.sets[src]), len(r.fails[src])
}

func (r *refLimiter) cycleIndex() uint64 { return r.cycle }

// refSketch is the sketch backend spelled sequentially on refLimiter:
// its sets hold the indices of a host's set contact bits, its fails
// those of its set failure bits, and the thresholds are set-bit counts.
// No stripes, slots, slabs or registers.
type refSketch struct {
	*refLimiter
	cfg                  SketchConfig
	deny, flag, failDeny int
}

func newRefSketch(cfg SketchConfig, start time.Time) *refSketch {
	cfg = cfg.normalize()
	r := &refSketch{refLimiter: newRefLimiter(cfg.LimiterConfig, start), cfg: cfg,
		deny: sketchThresholdBits(cfg.Bits, float64(cfg.M)),
		flag: sketchThresholdBits(cfg.Bits, cfg.CheckFraction*float64(cfg.M)),
	}
	if cfg.FailureM > 0 {
		r.failDeny = sketchThresholdBits(cfg.FailureBits, float64(cfg.FailureM))
	}
	return r
}

func (r *refSketch) observe(src, dst uint32, t time.Time) Decision {
	r.roll(t)
	r.totals.TotalObserved++
	r.track(src)
	bit := uint32(sketchHash(src, dst, sketchContactSalt)) % uint32(r.cfg.Bits)
	switch {
	case r.removed[src]:
		r.totals.TotalDenied++
		return Deny
	case r.sets[src][bit]:
		return Allow
	case len(r.sets[src]) >= r.deny:
		r.removed[src] = true
		r.totals.TotalRemovals++
		r.totals.TotalDenied++
		return Deny
	}
	r.sets[src][bit] = true
	if r.flag > 0 && !r.flagged[src] && len(r.sets[src]) >= r.flag {
		r.flagged[src] = true
		r.totals.TotalFlags++
		return AllowAndCheck
	}
	return Allow
}

// fail is ObserveFailure: Deny exactly when this failure removes src.
func (r *refSketch) fail(src, dst uint32, t time.Time) Decision {
	if r.cfg.FailureM == 0 {
		return Allow
	}
	r.roll(t)
	r.totals.TotalFailures++
	r.track(src)
	bit := uint32(sketchHash(src, dst, sketchFailureSalt)) % uint32(r.cfg.FailureBits)
	switch {
	case r.removed[src], r.fails[src][bit]:
		return Allow
	case len(r.fails[src]) >= r.failDeny:
		r.removed[src] = true
		r.totals.TotalRemovals++
		r.totals.FailureRemovals++
		return Deny
	}
	if r.fails[src] == nil {
		r.fails[src] = map[uint32]bool{}
	}
	r.fails[src][bit] = true
	return Allow
}

// model is a sequential reference: refLimiter for the exact backend,
// refSketch for the sketch.
type model interface {
	observe(src, dst uint32, t time.Time) Decision
	reinstate(src uint32) bool
	alert(src uint32, t time.Time)
	state(src uint32) (removed bool, n, fails int)
	stats() Stats
	cycleIndex() uint64
}

// testBackends are the backends the striped-limiter tests run on.
var testBackends = []string{"exact", "sketch"}

// newBackend returns a limiter of the named backend for cfg, starting
// at t0; the sketch's has a failure threshold too.
func newBackend(t testing.TB, backend string, cfg LimiterConfig) Backend {
	t.Helper()
	var l Backend
	var err error
	if backend == "sketch" {
		l, err = NewSketchLimiter(SketchConfig{LimiterConfig: cfg, FailureM: 3}, t0)
	} else {
		l, err = NewLimiter(cfg, t0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// newModel returns the reference for newBackend(backend, cfg).
func newModel(backend string, cfg LimiterConfig) model {
	if backend == "sketch" {
		return newRefSketch(SketchConfig{LimiterConfig: cfg, FailureM: 3}, t0)
	}
	return newRefLimiter(cfg, t0)
}

// liveState is model.state read from a limiter: the sketch's set sizes
// are its set contact and failure bits.
func liveState(l Backend, src uint32) (removed bool, n, fails int) {
	switch l := l.(type) {
	case *Limiter:
		return l.Removed(src), l.DistinctCount(src), 0
	case *SketchLimiter:
		n, fails = l.bitsSet(src)
		return l.Removed(src), n, fails
	}
	panic("unknown backend")
}

// topCounts is the reference's TopCounts(n) for n past the host count.
func (r *refLimiter) topCounts() []int {
	counts := make([]int, 0, len(r.sets))
	for _, set := range r.sets {
		counts = append(counts, len(set))
	}
	slices.Sort(counts)
	slices.Reverse(counts)
	return counts
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
	s.TotalFailures += o.TotalFailures
	s.FailureRemovals += o.FailureRemovals
	return s
}

// sourcesWithHashPrefix returns the first n sources whose SourceHash
// starts with the given bits: stripeBits of them pin the stripe, more pin
// the home slot too, in every table no longer than the rest can index.
func sourcesWithHashPrefix(n int, bits uint, prefix uint32) []uint32 {
	out := make([]uint32, 0, n)
	for src := uint32(0); len(out) < n; src++ {
		if SourceHash(src)>>(32-bits) == prefix {
			out = append(out, src)
		}
	}
	return out
}

// hashSuccessor returns the source whose SourceHash is src's plus one:
// the same stripe and, short of a carry, the same home slot.
func hashSuccessor(src uint32) uint32 {
	inv := uint32(0x9e3779b9) // of SourceHash's multiplier; a Newton step doubles the correct low bits
	for i := 0; i < 5; i++ {
		inv *= 2 - 0x9e3779b9*inv
	}
	return src + inv
}

// TestStripeLayout pins what the layout is for, in both backends. A
// stripe's fields take 168 bytes (mutex 8, four counters 32, host table
// 128) at a stride of 256, so the fields of two stripes are 88 bytes
// apart — more than a cache line at any alignment. An exact host slot
// is one line, a sketch slot a quarter of one, and neither holds a
// pointer, so the collector skips the tables. The hash spreads
// sequential addresses over every stripe, and within a stripe over the
// table.
func TestStripeLayout(t *testing.T) {
	var ex stripe[hostTable]
	var sk stripe[sketchTable]
	for _, s := range []struct {
		name              string
		size, fields, hot uintptr
	}{
		{"exact", unsafe.Sizeof(ex), unsafe.Offsetof(ex.hosts) + unsafe.Sizeof(ex.hosts), unsafe.Offsetof(ex.hosts) + unsafe.Offsetof(ex.hosts.shift) + 1},
		{"sketch", unsafe.Sizeof(sk), unsafe.Offsetof(sk.hosts) + unsafe.Sizeof(sk.hosts), unsafe.Offsetof(sk.hosts) + unsafe.Offsetof(sk.hosts.shift) + 1},
	} {
		if s.size != 256 || s.size-s.fields < 64 {
			t.Errorf("%s stripe is %d bytes with %d of fields: want a 256-byte stride whose neighbours cannot share a cache line", s.name, s.size, s.fields)
		}
		if s.hot > 72 {
			t.Errorf("%s: the fields every decision reads end at byte %d of the stripe, want within 72", s.name, s.hot)
		}
	}
	var h hostSlot
	if size := unsafe.Sizeof(h); size != 64 {
		t.Errorf("hostSlot is %d bytes, want one 64-byte cache line", size)
	}
	if got := (unsafe.Sizeof(h) - unsafe.Offsetof(h.rec) - unsafe.Offsetof(h.rec.dsts)) / 4; got != inlineDsts {
		t.Errorf("inlineDsts = %d, but %d destinations fill the line", inlineDsts, got)
	}
	if size := unsafe.Sizeof(sketchSlot{}); size != 16 {
		t.Errorf("sketchSlot is %d bytes, want 16: four to a cache line", size)
	}
	var pointerFree func(typ reflect.Type)
	pointerFree = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Uint8, reflect.Uint16, reflect.Uint32:
			case reflect.Struct:
				pointerFree(f.Type)
			case reflect.Array:
				if f.Type.Elem().Kind() != reflect.Uint32 {
					t.Errorf("%v.%s: array of %v", typ, f.Name, f.Type.Elem())
				}
			default:
				t.Errorf("%v.%s is a %v: slots must stay pointer-free", typ, f.Name, f.Type.Kind())
			}
		}
	}
	pointerFree(reflect.TypeOf(h))
	pointerFree(reflect.TypeOf(sketchSlot{}))

	var hit [stripeCount]int
	for src := uint32(0); src < 64*stripeCount; src++ {
		hit[stripeIndex(0x0A000000+src)]++
	}
	for i, n := range hit {
		if n < 32 || n > 128 {
			t.Errorf("stripe %d gets %d of %d sequential sources, want about 64", i, n, 64*stripeCount)
		}
	}
	// 100 000 sequential sources, the repository benchmark's population:
	// in a table at most three quarters full a host sits within a slot or
	// so of its home when the slot index uses hash bits the stripe index
	// did not.
	l := newTestLimiter(t, LimiterConfig{M: 1, Cycle: time.Hour})
	for src := uint32(0); src < 100_000; src++ {
		l.Observe(0x0A000000+src, 1, t0)
	}
	hosts, displaced := 0, 0
	for i := range l.stripes {
		tab := &l.stripes[i].hosts
		if 4*tab.live > 3*len(tab.slots) {
			t.Errorf("stripe %d: %d hosts in %d slots, want at most three quarters full", i, tab.live, len(tab.slots))
		}
		for j := range tab.slots {
			if h := &tab.slots[j]; h.live() {
				home := SourceHash(h.src) << stripeBits >> tab.shift
				hosts++
				displaced += (j - int(home)) & (len(tab.slots) - 1)
			}
		}
	}
	if hosts != 100_000 || displaced > hosts/2 {
		t.Errorf("%d hosts sit %d slots from home in total, want under half a slot each", hosts, displaced)
	}
}

// TestShardedSemanticsMatchSingle: the limiter is observationally
// identical to the sequential reference — verdicts, Removed,
// DistinctCount, CycleIndex, Snapshot, TopCounts — on workloads with
// repeats, removals, reinstates, alerts (half of them on sources never
// seen) and cycle rolls (including skipped cycles), and stays so when it
// is swapped for its own snapshot's restore twice along the way. The
// cases aim at the host table's edges.
func TestShardedSemanticsMatchSingle(t *testing.T) {
	sequential := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(i)
		}
		return out
	}
	// Home slot = the table's last, at every length up to 1<<10: the
	// probe chain wraps to slot 0 and holds every host of the case.
	oneSlot := sourcesWithHashPrefix(40, stripeBits+10, 37<<10|1<<10-1)
	cases := []semanticsCase{
		// Source 0 included; 11 hosts a stripe, tables grow 4 → 16.
		{name: "many sources", cfg: LimiterConfig{M: 4, Cycle: time.Hour, CheckFraction: 0.5},
			srcs: sequential(700), dsts: 7, steps: 20000, rolls: true},
		// Every host on one stripe and one home slot.
		{name: "one home slot", cfg: LimiterConfig{M: 4, Cycle: time.Hour, CheckFraction: 0.5},
			srcs: oneSlot, dsts: 7, steps: 6000, rolls: true, oneHome: true},
		// One stripe's table grows 4 → 4096 as the stream goes, and every
		// host it moved must still be found.
		{name: "growth mid-stream", cfg: LimiterConfig{M: 3, Cycle: time.Hour, CheckFraction: 1},
			srcs: sourcesWithHashPrefix(3000, stripeBits, 11), dsts: 5, steps: 20000},
		// The budget at, below and just past what a slot holds inline.
		{name: "M=1", cfg: LimiterConfig{M: 1, Cycle: time.Hour, CheckFraction: 1},
			srcs: sequential(50), dsts: 3, steps: 4000, rolls: true},
		{name: "M=inline", cfg: LimiterConfig{M: inlineDsts, Cycle: time.Hour, CheckFraction: 0.9},
			srcs: sequential(50), dsts: 2 * inlineDsts, steps: 12000, rolls: true},
		{name: "M=inline+1", cfg: LimiterConfig{M: inlineDsts + 1, Cycle: time.Hour, CheckFraction: 0.9},
			srcs: sequential(50), dsts: 2 * inlineDsts, steps: 12000, rolls: true},
		// Spilled sets that grow several times, are released by Reinstate
		// and spill again, on colliding hosts.
		{name: "spilled", cfg: LimiterConfig{M: 150, Cycle: time.Hour, CheckFraction: 0.5},
			srcs: oneSlot[:12], dsts: 400, steps: 30000, oneHome: true},
	}
	for _, tc := range cases {
		for _, backend := range testBackends {
			for _, seed := range []uint64{1, 7, 1905} {
				tc.run(t, backend, seed)
			}
		}
	}
}

type semanticsCase struct {
	name    string
	cfg     LimiterConfig
	srcs    []uint32
	dsts    uint64 // destinations are drawn below this, plus 0 and 2³²−1
	steps   int
	rolls   bool
	oneHome bool
}

// run runs the case on one backend; the sketch's failures are one more
// input, drawn only on it.
func (tc semanticsCase) run(t *testing.T, backend string, seed uint64) {
	edgeDsts := []uint32{0, 1<<32 - 1}
	name, cfg, srcs, steps := tc.name+"/"+backend, tc.cfg, tc.srcs, tc.steps
	l, ref := newBackend(t, backend, cfg), newModel(backend, cfg)
	r := rng.NewPCG64(seed, 46)
	at := t0
	for step := 0; step < steps; step++ {
		// Mostly seconds apart; now and then a jump past one or
		// several cycle boundaries.
		at = at.Add(time.Duration(r.Uint64()%3000) * time.Millisecond)
		if tc.rolls && r.Uint64()%4000 == 0 {
			at = at.Add(time.Duration(1+r.Uint64()%3) * cfg.Cycle)
		}
		src := srcs[r.Uint64()%uint64(len(srcs))]
		dst := uint32(r.Uint64() % tc.dsts)
		if int(dst) < len(edgeDsts) {
			dst = edgeDsts[dst]
		}
		if got, want := l.Observe(src, dst, at), ref.observe(src, dst, at); got != want {
			t.Fatalf("%s seed %d step %d: Observe(%d, %d) = %v, reference %v", name, seed, step, src, dst, got, want)
		}
		if fo, ok := l.(FailureObserver); ok && r.Uint64()%8 == 0 {
			if got, want := fo.ObserveFailure(src, dst, at), ref.(*refSketch).fail(src, dst, at); got != want {
				t.Fatalf("%s seed %d step %d: ObserveFailure(%d, %d) = %v, reference %v", name, seed, step, src, dst, got, want)
			}
		}
		if r.Uint64()%16 == 0 {
			if got, want := l.Reinstate(src), ref.reinstate(src); got != want {
				t.Fatalf("%s seed %d step %d: Reinstate(%d) = %v, reference %v", name, seed, step, src, got, want)
			}
		}
		if r.Uint64()%256 == 0 {
			// A tracked source or, as often, its never-seen neighbour
			// in the hash order: same stripe, same probe chain.
			victim := src
			if r.Uint64()%2 == 0 {
				victim = hashSuccessor(src)
			}
			// One alert in four was raised a cycle ago and reaches this
			// limiter late: it enters the ledger and removes nothing.
			raised := at
			if r.Uint64()%4 == 0 {
				raised = at.Add(-cfg.Cycle)
			}
			if !l.ApplyAlert(Alert{Origin: seed, Seq: uint64(step), Src: victim, UnixMs: raised.UnixMilli()}) {
				t.Fatalf("%s seed %d step %d: fresh alert turned away", name, seed, step)
			}
			ref.alert(victim, raised)
			want, _, _ := ref.state(victim)
			if got := l.RemovedAt(victim, at); got != want {
				t.Fatalf("%s seed %d step %d: alerted source %d removed %v, want %v", name, seed, step, victim, got, want)
			}
		}
		gotRemoved, gotN, gotFails := liveState(l, src)
		if wantRemoved, wantN, wantFails := ref.state(src); gotRemoved != wantRemoved || gotN != wantN || gotFails != wantFails {
			t.Fatalf("%s seed %d step %d: source %d removed %v with sets of %d and %d, reference %v, %d, %d",
				name, seed, step, src, gotRemoved, gotN, gotFails, wantRemoved, wantN, wantFails)
		}
		if step == steps/3 || step == 2*steps/3 {
			state := mustMarshal(t, l)
			restored, err := RestoreAnyLimiter(state)
			if err != nil {
				t.Fatalf("%s seed %d step %d: restore: %v", name, seed, step, err)
			}
			if !bytes.Equal(mustMarshal(t, restored), state) {
				t.Fatalf("%s seed %d step %d: restore → marshal changed the snapshot", name, seed, step)
			}
			l = restored
		}
	}
	if got, want := l.CycleIndex(), ref.cycleIndex(); got != want || tc.rolls && want == 0 {
		t.Errorf("%s seed %d: cycle index %d, reference %d (want > 0 when rolling)", name, seed, got, want)
	}
	if got, want := l.Snapshot(), ref.stats(); got != want {
		t.Errorf("%s seed %d: stats diverge:\n got %+v\nwant %+v", name, seed, got, want)
	}
	if ex, ok := l.(*Limiter); ok {
		if got, want := ex.topCounts(1<<30), ref.(*refLimiter).topCounts(); !slices.Equal(got, want) {
			t.Errorf("%s seed %d: TopCounts diverge:\n got %v\nwant %v", name, seed, got, want)
		}
	}
	if tc.oneHome {
		for _, src := range srcs {
			if !homedLast(l, src) {
				t.Fatalf("%s: source %d is not homed at the last slot of stripe %d's table", name, src, stripeIndex(srcs[0]))
			}
		}
	}
}

// homedLast reports whether src is tracked and its home is the last slot
// of its stripe's table.
func homedLast(l Backend, src uint32) bool {
	home := func(shift uint8) uint32 { return SourceHash(src) << stripeBits >> shift }
	switch l := l.(type) {
	case *Limiter:
		tab := &l.stripeOf(src).hosts
		return tab.find(src) != nil && home(tab.shift) == uint32(len(tab.slots)-1)
	case *SketchLimiter:
		tab := &l.stripeOf(src).hosts
		return tab.find(src) != nil && home(tab.shift) == uint32(len(tab.slots)-1)
	}
	return false
}

// TestSpillBoundary walks one host across the inline capacity by hand:
// capacity destinations sit in the slot, the next one moves them all to
// a spilled set, Reinstate releases the set, and a second spill reuses
// its place. Destination 0 and the all-ones destination are members like
// any other on both sides.
func TestSpillBoundary(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 1000, Cycle: time.Hour})
	src, other := uint32(0), hashSuccessor(0) // source 0 is a source like any other
	tab := &l.stripeOf(src).hosts
	if stripeIndex(other) != stripeIndex(src) {
		t.Fatalf("sources %d and %d were meant to share a stripe", src, other)
	}
	dsts := []uint32{0, 1<<32 - 1}
	for d := uint32(1); len(dsts) < 40; d++ {
		dsts = append(dsts, d*2654435761)
	}
	fill := func(src uint32, n int) {
		t.Helper()
		for i, d := range dsts[:n] {
			if dec := l.Observe(src, d, t0); dec != Allow {
				t.Fatalf("source %d destination %d: %v, want allow", src, i, dec)
			}
		}
		for _, d := range dsts[:n] {
			if l.Observe(src, d, t0); l.DistinctCount(src) != n {
				t.Fatalf("source %d: repeat of %d changed the count to %d, want %d", src, d, l.DistinctCount(src), n)
			}
		}
	}
	fill(src, inlineDsts)
	if h := tab.find(src); h.rec.spill != 0 || int(h.rec.n) != inlineDsts {
		t.Fatalf("%d destinations: slot %+v, want them inline", inlineDsts, *h)
	}
	fill(src, inlineDsts+1)
	if h := tab.find(src); h.rec.spill != 1 || len(tab.spilled) != 1 {
		t.Fatalf("%d destinations: slot %+v with %d spilled sets, want the first spilled set", inlineDsts+1, *h, len(tab.spilled))
	}
	fill(src, 40) // the set grows twice
	fill(other, inlineDsts+1)
	if h := tab.find(other); h.rec.spill != 2 {
		t.Fatalf("second spilled host: slot %+v, want spilled set 2", *h)
	}

	// Removed by alert, reinstated: back to an empty inline set, the
	// spilled set released.
	l.ApplyAlert(Alert{Origin: 1, Seq: 1, Src: src, UnixMs: t0.UnixMilli()})
	if !l.Reinstate(src) {
		t.Fatal("reinstate failed")
	}
	if h := tab.find(src); h.rec.spill != 0 || h.rec.n != 0 || tab.spilled[0].keys != nil || len(tab.free) != 1 {
		t.Fatalf("after reinstate: slot %+v, %d free sets", *h, len(tab.free))
	}
	if got := l.Snapshot(); got.ActiveHosts != 2 || got.RemovedHosts != 0 || tab.dsts != inlineDsts+1 {
		t.Fatalf("after reinstate: %+v, %d destinations in the stripe", got, tab.dsts)
	}
	fill(src, inlineDsts+2)
	if h := tab.find(src); h.rec.spill != 1 || len(tab.spilled) != 2 || len(tab.free) != 0 {
		t.Fatalf("second spill: slot %+v, %d sets, %d free: want set 1 reused", *h, len(tab.spilled), len(tab.free))
	}
	if got := l.DistinctCount(other); got != inlineDsts+1 {
		t.Fatalf("the other host's count moved to %d", got)
	}
}

// TestRepeatContactDoesNotAllocate: deciding a repeat contact of a known
// host — the fast path nine observations in ten take — allocates nothing,
// whichever representation the host's set is in.
func TestRepeatContactDoesNotAllocate(t *testing.T) {
	l := newTestLimiter(t, LimiterConfig{M: 5000, Cycle: time.Hour, CheckFraction: 0.9})
	for d := uint32(0); d < 8; d++ {
		l.Observe(1, d, t0) // inline
	}
	for d := uint32(0); d < 200; d++ {
		l.Observe(2, d, t0) // spilled
	}
	for _, src := range []uint32{1, 2} {
		if n := testing.AllocsPerRun(1000, func() { l.Observe(src, 5, t0) }); n != 0 {
			t.Errorf("repeat contact of host %d: %v allocs per call, want 0", src, n)
		}
	}
}

// TestFlagThreshold: the integer threshold computed once gives, for every
// count a host can have, the verdict of the float comparison the scheme
// is specified by.
func TestFlagThreshold(t *testing.T) {
	for _, m := range []int{1, 3, 10, 4500, 10000} {
		for _, f := range []float64{0.1, 0.5, 0.9, 1} {
			at := flagThreshold(LimiterConfig{M: m, CheckFraction: f})
			for count := 1; count <= m; count++ {
				if got, want := count >= at, float64(count) >= f*float64(m); got != want {
					t.Fatalf("M=%d f=%v: count %d flags = %v with threshold %d, the float predicate says %v", m, f, count, got, at, want)
				}
			}
		}
		if at := flagThreshold(LimiterConfig{M: m}); at != 0 {
			t.Errorf("M=%d f=0: threshold %d, want 0 (off)", m, at)
		}
	}
}

// TestShardedConcurrentThroughput drives each backend from 8 goroutines
// on disjoint sources. A source's verdicts depend on its own
// observations alone, so each goroutine checks every verdict against a
// reference of its own, and the totals must add up.
func TestShardedConcurrentThroughput(t *testing.T) {
	cfg := LimiterConfig{M: 6, Cycle: time.Hour, CheckFraction: 0.5}
	for _, backend := range testBackends {
		l := newBackend(t, backend, cfg)
		const workers = 8
		refs := make([]model, workers)
		var wg sync.WaitGroup
		for w := range refs {
			refs[w] = newModel(backend, cfg)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rng.NewPCG64(uint64(w), 47)
				for i := 0; i < 5000; i++ {
					src := uint32(w*100000) + uint32(r.Uint64()%100)
					dst := uint32(r.Uint64() % 9)
					if got, want := l.Observe(src, dst, t0), refs[w].observe(src, dst, t0); got != want {
						t.Errorf("%s worker %d step %d: Observe(%d, %d) = %v, reference %v", backend, w, i, src, dst, got, want)
						return
					}
					if fo, ok := l.(FailureObserver); ok && i%8 == 0 && fo.ObserveFailure(src, dst, t0) != refs[w].(*refSketch).fail(src, dst, t0) {
						t.Errorf("%s worker %d step %d: ObserveFailure(%d, %d) disagrees with the reference", backend, w, i, src, dst)
						return
					}
					if i%64 == 0 && l.Reinstate(src) != refs[w].reinstate(src) {
						t.Errorf("%s worker %d step %d: Reinstate(%d) disagrees with the reference", backend, w, i, src)
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
			t.Errorf("%s: stats diverge:\n got %+v\nwant %+v", backend, got, want)
		}
		if want.ActiveHosts != workers*100 || want.RemovedHosts == 0 {
			t.Errorf("%s: workload too thin: %+v", backend, want)
		}
	}
}

// TestConcurrentTableGrowth: on each backend, eight goroutines start
// tracking thousands of hosts each — every stripe's table doubles many
// times under them — while they revisit the hosts they already have, a
// ninth applies alerts on sources nobody has seen (inserts with the
// world stopped) and a tenth cuts snapshots and statistics (walks of
// every table). Each goroutine checks every verdict against a reference
// of its own; the totals must add up and the last snapshot must restore
// to the same bytes.
func TestConcurrentTableGrowth(t *testing.T) {
	for _, backend := range testBackends {
		concurrentTableGrowth(t, backend)
	}
}

func concurrentTableGrowth(t *testing.T, backend string) {
	cfg := LimiterConfig{M: inlineDsts + 3, Cycle: time.Hour, CheckFraction: 0.5}
	l := newBackend(t, backend, cfg)
	const workers, hostsEach, alerts = 8, 3000, 200
	refs := make([]model, workers+1)
	var work, walker sync.WaitGroup
	for w := 0; w < workers; w++ {
		refs[w] = newModel(backend, cfg)
		work.Add(1)
		go func(w int) {
			defer work.Done()
			r := rng.NewPCG64(uint64(w), 48)
			for i := 0; i < 4*hostsEach; i++ {
				// A new host every fourth step, else one seen before.
				host := uint32(i / 4)
				if i%4 != 0 {
					host = uint32(r.Uint64() % uint64(i/4+1))
				}
				src, dst := uint32(w)<<24|host, uint32(r.Uint64()%(2*inlineDsts))
				if got, want := l.Observe(src, dst, t0), refs[w].observe(src, dst, t0); got != want {
					t.Errorf("%s worker %d step %d: Observe(%d, %d) = %v, reference %v", backend, w, i, src, dst, got, want)
					return
				}
				if fo, ok := l.(FailureObserver); ok && i%8 == 0 && fo.ObserveFailure(src, dst, t0) != refs[w].(*refSketch).fail(src, dst, t0) {
					t.Errorf("%s worker %d step %d: ObserveFailure(%d, %d) disagrees with the reference", backend, w, i, src, dst)
					return
				}
			}
		}(w)
	}
	refs[workers] = newModel(backend, cfg)
	work.Add(1)
	go func() {
		defer work.Done()
		for i := 0; i < alerts; i++ {
			src := uint32(workers)<<24 | uint32(i)
			l.ApplyAlert(Alert{Origin: 1, Seq: uint64(i + 1), Src: src, UnixMs: t0.UnixMilli()})
			refs[workers].alert(src, t0)
		}
	}()
	stop := make(chan struct{})
	walker.Add(1)
	go func() {
		defer walker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := l.Snapshot()
			switch l := l.(type) {
			case *Limiter:
				if top := l.topCounts(3); len(top) > 0 && top[0] > cfg.M {
					t.Errorf("TopCounts %v past M=%d", top, cfg.M)
					return
				}
			case *SketchLimiter:
				if m := l.Memory(); m.TrackedHosts < st.ActiveHosts || m.RegisterBytes < m.TrackedHosts*m.BytesPerHost {
					t.Errorf("sketch memory %+v after statistics saw %d hosts", m, st.ActiveHosts)
					return
				}
			}
			hdr, err := ReadSnapshotHeader(mustMarshal(t, l))
			if err != nil || hdr.Hosts < st.ActiveHosts {
				t.Errorf("%s: snapshot of %d hosts (%v) cut after statistics saw %d", backend, hdr.Hosts, err, st.ActiveHosts)
				return
			}
		}
	}()
	work.Wait()
	close(stop)
	walker.Wait()

	var want Stats
	for _, ref := range refs {
		want = want.plus(ref.stats())
	}
	want.TotalAlerts, want.AlertRemovals = alerts, alerts
	if got := l.Snapshot(); got != want {
		t.Errorf("%s: stats diverge:\n got %+v\nwant %+v", backend, got, want)
	}
	if want.ActiveHosts != workers*hostsEach+alerts || want.RemovedHosts <= alerts {
		t.Errorf("%s: workload too thin: %+v", backend, want)
	}
	state := mustMarshal(t, l)
	restored, err := RestoreAnyLimiter(state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, restored), state) {
		t.Errorf("%s: restore → marshal changed the snapshot", backend)
	}
}
