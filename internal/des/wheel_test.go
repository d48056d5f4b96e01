package des

import (
	"fmt"
	"testing"
	"time"

	"wormcontain/internal/telemetry"
)

// newWheel returns a wheel-backed simulator with a deliberately coarse
// tick so tests exercise multi-event buckets and cascades.
func newWheel(tick time.Duration) *Simulator {
	return NewWithConfig(Config{Kernel: KernelWheel, WheelTick: tick})
}

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"heap", KernelHeap, true},
		{"wheel", KernelWheel, true},
		{"", KernelHeap, true},
		{"Wheel", 0, false},
		{"calendar", 0, false},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseKind(%q) succeeded; want error", c.in)
		}
	}
	if KernelHeap.String() != "heap" || KernelWheel.String() != "wheel" {
		t.Errorf("Kind.String round-trip broken: %v %v", KernelHeap, KernelWheel)
	}
}

func TestConfigureRejectsPendingEvents(t *testing.T) {
	s := New()
	s.Schedule(time.Second, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("Configure with pending events did not panic")
		}
	}()
	s.Configure(Config{Kernel: KernelWheel})
}

func TestWheelTickRoundsDownToPowerOfTwo(t *testing.T) {
	s := newWheel(3 * time.Microsecond) // 3000ns -> 2048ns
	if got := s.wheelTick(); got != 2048 {
		t.Fatalf("WheelTick = %v, want 2048ns", got)
	}
	if New().wheelTick() != 0 {
		t.Fatal("heap backend should report zero wheel tick")
	}
	if d := NewWithConfig(Config{Kernel: KernelWheel}).wheelTick(); d != DefaultWheelTick {
		t.Fatalf("default wheel tick = %v, want %v", d, DefaultWheelTick)
	}
}

// TestWheelOrderWithinBucket packs many events into one coarse bucket
// in scrambled insertion order: delivery must still be (time, seq)
// sorted, exactly like the heap.
func TestWheelOrderWithinBucket(t *testing.T) {
	s := newWheel(time.Millisecond) // all events below share buckets
	var got []int
	// Scrambled times within a handful of ticks, several exact ties.
	delays := []time.Duration{700, 100, 400, 100, 900, 400, 50, 700}
	for i, d := range delays {
		i := i
		s.Schedule(d*time.Microsecond, func() { got = append(got, i) })
	}
	s.Run()
	want := []int{6, 1, 3, 2, 5, 0, 7, 4} // by (at, insertion order)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fire order = %v, want %v", got, want)
	}
}

// TestWheelFarFutureOverflow schedules events beyond the wheel's 48-bit
// tick horizon (the overflow heap) interleaved with near events, and
// checks both order and clock.
func TestWheelFarFutureOverflow(t *testing.T) {
	s := newWheel(time.Nanosecond) // shift 0: 2^48 ns horizon ≈ 3.2 days
	far := 10 * 24 * time.Hour     // well past the horizon
	var got []string
	s.EmitAt(far+time.Hour, closure(func() { got = append(got, "far+1h") }), 0)
	s.EmitAt(time.Second, closure(func() { got = append(got, "near") }), 0)
	s.EmitAt(far, closure(func() { got = append(got, "far") }), 0)
	s.Run()
	if fmt.Sprint(got) != "[near far far+1h]" {
		t.Fatalf("fire order = %v", got)
	}
	if s.Now() != far+time.Hour {
		t.Fatalf("Now = %v, want %v", s.Now(), far+time.Hour)
	}
}

// TestWheelResetRecyclesNodes loads every wheel structure, resets, and
// verifies the simulator is reusable with the chunk pool intact.
func TestWheelResetRecyclesNodes(t *testing.T) {
	s := newWheel(time.Microsecond)
	for i := 0; i < 100; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	s.EmitAt(MaxTime/2, closure(func() {}), 0) // overflow resident
	s.Step()                                   // populate the due heap mid-flight
	s.Reset()
	if s.Pending() != 0 || s.Now() != 0 || s.Fired() != 0 {
		t.Fatalf("Reset left pending=%d now=%v fired=%d", s.Pending(), s.Now(), s.Fired())
	}
	n := 0
	s.Schedule(time.Second, func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("post-Reset run fired %d events, want 1", n)
	}
}

// TestWheelSteadyStateChurnDoesNotAllocate mirrors the heap's
// zero-alloc guarantee: a self-rescheduling chain on the wheel backend,
// its ArgHandler bound once, must run allocation-free once the chunk
// pool and heaps are warm.
func TestWheelSteadyStateChurnDoesNotAllocate(t *testing.T) {
	s := newWheel(time.Microsecond)
	var chain ArgHandler
	n := 0
	chain = func(int) {
		if n++; n < 100 {
			s.Emit(37*time.Microsecond, chain, 0)
		}
	}
	s.Emit(time.Microsecond, chain, 0)
	s.Run() // warm the chunk pool and due heap
	allocs := testing.AllocsPerRun(50, func() {
		n = 0
		s.Emit(time.Microsecond, chain, 0)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocated %.1f allocs/run, want 0", allocs)
	}
}

// TestScheduleBatchMatchesSequential verifies that batch admission
// fires byte-identically to a loop of EmitAt on both backends,
// including bulk-heapify (batch larger than the standing queue) and
// incremental (small top-up) paths.
func TestScheduleBatchMatchesSequential(t *testing.T) {
	lcg := uint64(0x9E3779B97F4A7C15)
	next := func(n uint64) uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg % n
	}
	mkEvents := func(count int, record *[]int) []BatchEvent {
		evs := make([]BatchEvent, count)
		fn := func(arg int) { *record = append(*record, arg) }
		for i := range evs {
			evs[i] = BatchEvent{
				At:  time.Duration(next(1_000_000)) * time.Microsecond,
				Fn:  fn,
				Arg: i,
			}
		}
		return evs
	}
	noop := func(int) {}
	for _, kind := range []Kind{KernelHeap, KernelWheel} {
		for _, standing := range []int{0, 500} { // exercise both heap paths
			lcg = 12345
			var seqOrder, batchOrder []int
			seqEvs := mkEvents(200, &seqOrder)
			seq := NewWithConfig(Config{Kernel: kind, WheelTick: time.Microsecond})
			for i := 0; i < standing; i++ {
				seq.EmitAt(time.Duration(next(1_000_000))*time.Microsecond, noop, 0)
			}
			for _, ev := range seqEvs {
				seq.EmitAt(ev.At, ev.Fn, ev.Arg)
			}
			seq.Run()

			lcg = 12345
			batchEvs := mkEvents(200, &batchOrder)
			bat := NewWithConfig(Config{Kernel: kind, WheelTick: time.Microsecond})
			for i := 0; i < standing; i++ {
				bat.EmitAt(time.Duration(next(1_000_000))*time.Microsecond, noop, 0)
			}
			bat.ScheduleBatch(batchEvs)
			bat.Run()

			if fmt.Sprint(seqOrder) != fmt.Sprint(batchOrder) {
				t.Fatalf("kind=%v standing=%d: batch order diverges from sequential",
					kind, standing)
			}
		}
	}
}

func TestScheduleBatchValidates(t *testing.T) {
	s := New()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil handler", func() {
		s.ScheduleBatch([]BatchEvent{{At: time.Second}})
	})
	s2 := New()
	s2.Schedule(time.Second, func() {})
	s2.Run()
	mustPanic("past event", func() {
		s2.ScheduleBatch([]BatchEvent{{At: time.Millisecond, Fn: func(int) {}}})
	})
}

// TestEmitInterleavesWithSchedule pins Emit's ordering contract on
// both backends: every admission takes its sequence number from one
// counter, so ties at one instant fire in admission order regardless
// of which handler or call site admitted them.
func TestEmitInterleavesWithSchedule(t *testing.T) {
	for _, kind := range []Kind{KernelHeap, KernelWheel} {
		s := NewWithConfig(Config{Kernel: kind, WheelTick: time.Microsecond})
		var order []int
		fn := func(arg int) { order = append(order, arg) }
		s.Emit(time.Millisecond, fn, 0)
		s.Emit(time.Millisecond, fn, 1)
		s.Emit(time.Millisecond, fn, 2)
		s.Schedule(time.Millisecond, func() { order = append(order, 3) })
		s.Emit(0, fn, 4) // immediate, still after nothing queued at t=0
		s.Run()
		want := []int{4, 0, 1, 2, 3}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("%v: fire order %v, want %v", kind, order, want)
		}
	}
}

// TestEmitValidates pins Emit's argument checking to Schedule's.
func TestEmitValidates(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	for _, kind := range []Kind{KernelHeap, KernelWheel} {
		s := NewWithConfig(Config{Kernel: kind})
		mustPanic("nil handler", func() { s.Emit(time.Second, nil, 0) })
		mustPanic("negative delay", func() { s.Emit(-1, func(int) {}, 0) })
		s.Schedule(time.Second, func() {})
		s.Run()
		mustPanic("past event", func() { s.EmitAt(time.Millisecond, func(int) {}, 0) })
	}
}

// TestWheelEmitChurnDoesNotAllocate proves the wheel's Emit path is
// allocation-free in steady state: after the chunk pool warms, an
// Emit-per-fire churn loop performs zero allocations.
func TestWheelEmitChurnDoesNotAllocate(t *testing.T) {
	s := NewWithConfig(Config{Kernel: KernelWheel, WheelTick: time.Microsecond})
	var fn ArgHandler
	fn = func(arg int) { s.Emit(time.Duration(1+arg%7)*time.Millisecond, fn, arg+1) }
	for i := 0; i < 512; i++ {
		s.Emit(time.Duration(i)*time.Microsecond, fn, i)
	}
	for i := 0; i < 4096; i++ { // warm the chunk and heap pools
		s.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			s.Step()
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Emit churn allocates %.1f allocs per 64 events", allocs)
	}
}

// TestKernelEquivalenceRandomized drives both backends through an
// identical randomized workload — mixed delays spanning bucket, wheel
// and overflow ranges, exact-tie timestamps, RunUntil slices, and a
// Reset midway — and requires the byte-identical fire sequence.
func TestKernelEquivalenceRandomized(t *testing.T) {
	type fire struct {
		at  time.Duration
		arg int
	}
	run := func(kind Kind, seed uint64) []fire {
		lcg := seed
		next := func(n uint64) uint64 {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			return (lcg >> 11) % n
		}
		s := NewWithConfig(Config{Kernel: kind, WheelTick: 4 * time.Microsecond})
		var fires []fire
		fn := func(arg int) { fires = append(fires, fire{s.Now(), arg}) }
		inject := func(base int) {
			for i := 0; i < 400; i++ {
				var at time.Duration
				switch next(10) {
				case 0: // far future: deep cascades, and past the ~36-year
					// horizon of a 4µs tick into the overflow heap
					at = s.Now() + time.Duration(1+next(60))*time.Hour*24*365
				case 1, 2: // exact ties
					at = s.Now() + time.Duration(next(5))*time.Millisecond
				default: // dense near-term
					at = s.Now() + time.Duration(next(2_000_000))*time.Nanosecond
				}
				s.EmitAt(at, fn, base+i)
			}
		}
		inject(0)
		s.RunUntil(time.Millisecond)
		inject(10_000)
		s.RunUntil(500 * time.Hour * 24)
		inject(20_000)
		s.Run()
		fires = append(fires, fire{s.Now(), -1})
		s.Reset()
		inject(30_000)
		s.RunUntil(2 * time.Millisecond)
		s.Run()
		return fires
	}
	for _, seed := range []uint64{1, 7, 1905} {
		heapFires := run(KernelHeap, seed)
		wheelFires := run(KernelWheel, seed)
		if len(heapFires) != len(wheelFires) {
			t.Fatalf("seed %d: heap fired %d events, wheel %d",
				seed, len(heapFires), len(wheelFires))
		}
		for i := range heapFires {
			if heapFires[i] != wheelFires[i] {
				t.Fatalf("seed %d: divergence at event %d: heap %v wheel %v",
					seed, i, heapFires[i], wheelFires[i])
			}
		}
	}
}

// bucketShape reports how one wheel bucket is stored: the number of
// chunks in its chain and the head chunk's fill count.
func bucketShape(s *Simulator, level int, slot uint64) (chunks int, headN int32) {
	sl := s.wheel.slots[level*wheelSlots+int(slot)]
	for c := sl.head; c != nil; c = c.next {
		chunks++
	}
	return chunks, sl.n
}

// oneBucketTimes returns n scrambled timestamps, with exact ties, whose
// ticks (at a 1024 ns tick, from cur = 0) all file into slot 3 of the
// given level, every lower tick group nonzero — so a level-L record is
// re-filed exactly L times on its way to the due heap.
func oneBucketTimes(level, n int) []time.Duration {
	const shift = 10
	at := make([]time.Duration, n)
	for i := range at {
		tick := uint64(3) << (uint(level) * wheelLevelBits)
		for l := 0; l < level; l++ {
			tick |= uint64(1+(i*37+l*11)%(wheelSlots-1)) << (uint(l) * wheelLevelBits)
		}
		at[i] = time.Duration(tick<<shift | uint64(i*389%1024))
		if i%5 == 4 {
			at[i] = at[i-1] // exact tie: seq decides
		}
	}
	return at
}

// TestWheelChunkBoundaryMatchesHeap fills a single bucket to one below,
// exactly at and one above a chunk boundary (and the next boundary), at
// each level that holds events in practice, and requires the heap's
// fire sequence. The bucket's fill cursor lives in the slot array, not
// in the chunk: these are the counts where a wrong cursor hand-over
// between head and full chunks would drop, duplicate or reorder
// records. The cascade counter must read exactly level × events.
func TestWheelChunkBoundaryMatchesHeap(t *testing.T) {
	type fire struct {
		at  time.Duration
		arg int
	}
	for level := 0; level <= 2; level++ {
		for _, n := range []int{wheelChunkCap - 1, wheelChunkCap, wheelChunkCap + 1, 2 * wheelChunkCap, 2*wheelChunkCap + 1} {
			times := oneBucketTimes(level, n)
			run := func(kind Kind) ([]fire, float64) {
				s := NewWithConfig(Config{Kernel: kind, WheelTick: 1024})
				reg := telemetry.NewRegistry()
				s.Instrument(reg)
				var fires []fire
				fn := func(arg int) { fires = append(fires, fire{s.Now(), arg}) }
				for i, at := range times {
					s.EmitAt(at, fn, i)
				}
				if kind == KernelWheel {
					wantChunks := (n + wheelChunkCap - 1) / wheelChunkCap
					wantHead := int32(n - (wantChunks-1)*wheelChunkCap)
					if chunks, headN := bucketShape(s, level, 3); chunks != wantChunks || headN != wantHead {
						t.Fatalf("level %d n %d: bucket is %d chunk(s), head holds %d; want %d, %d",
							level, n, chunks, headN, wantChunks, wantHead)
					}
				}
				s.Run()
				cascades, _ := reg.Snapshot().Value("des_wheel_cascades_total")
				return fires, cascades
			}
			heapFires, heapCascades := run(KernelHeap)
			wheelFires, wheelCascades := run(KernelWheel)
			if len(heapFires) != n || len(wheelFires) != n {
				t.Fatalf("level %d n %d: heap fired %d, wheel fired %d", level, n, len(heapFires), len(wheelFires))
			}
			for i := range heapFires {
				if heapFires[i] != wheelFires[i] {
					t.Fatalf("level %d n %d: divergence at event %d: heap %v wheel %v",
						level, n, i, heapFires[i], wheelFires[i])
				}
			}
			if heapCascades != 0 || wheelCascades != float64(level*n) {
				t.Fatalf("level %d n %d: cascades heap %v wheel %v, want 0 and %d",
					level, n, heapCascades, wheelCascades, level*n)
			}
		}
	}
}

// TestWheelResetHalfFilledHeadThenRefill resets a bucket whose chain is
// a full chunk behind a half-filled head, then refills the same bucket
// past two boundaries from the recycled chunks: the slot's cursor must
// restart at zero, and the run must match the heap's.
func TestWheelResetHalfFilledHeadThenRefill(t *testing.T) {
	run := func(kind Kind) []int {
		s := NewWithConfig(Config{Kernel: kind, WheelTick: 1024})
		var fires []int
		fn := func(arg int) { fires = append(fires, arg) }
		for i, at := range oneBucketTimes(1, wheelChunkCap+wheelChunkCap/2) {
			s.EmitAt(at, fn, -1-i) // must never fire
		}
		s.Reset()
		if kind == KernelWheel {
			if chunks, headN := bucketShape(s, 1, 3); chunks != 0 || headN != 0 {
				t.Fatalf("Reset left %d chunk(s), cursor %d in the bucket", chunks, headN)
			}
		}
		const refill = 2*wheelChunkCap + 7
		for i, at := range oneBucketTimes(1, refill) {
			s.EmitAt(at, fn, i)
		}
		if kind == KernelWheel {
			if chunks, headN := bucketShape(s, 1, 3); chunks != 3 || headN != 7 {
				t.Fatalf("refilled bucket is %d chunk(s), head holds %d; want 3, 7", chunks, headN)
			}
		}
		s.Run()
		if len(fires) != refill {
			t.Fatalf("%v: fired %d events after refill, want %d", kind, len(fires), refill)
		}
		return fires
	}
	if heap, wheel := run(KernelHeap), run(KernelWheel); fmt.Sprint(heap) != fmt.Sprint(wheel) {
		t.Fatalf("fire order after Reset and refill differs:\nheap  %v\nwheel %v", heap, wheel)
	}
}
