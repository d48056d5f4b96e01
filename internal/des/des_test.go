package des

import (
	"runtime"
	"testing"
	"time"
)

// Schedule is the closure form these tests drive the kernel with: fn
// runs after delay of virtual time, emitted through closure. The
// wrapper allocates per call, so the allocation tests emit an
// ArgHandler bound once instead.
func (s *Simulator) Schedule(delay time.Duration, fn func()) {
	s.Emit(delay, closure(fn), 0)
}

// closure adapts fn to an ArgHandler that ignores its argument; nil
// stays nil, so the kernel's nil-handler check still sees it.
func closure(fn func()) ArgHandler {
	if fn == nil {
		return nil
	}
	return func(int) { fn() }
}

func TestScheduleAndRunOrder(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	s.RunUntil(MaxTime, nil)
	want := []int{1, 2, 3}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Errorf("clock = %v, want 3s", s.Now())
	}
	if s.Fired() != 3 {
		t.Errorf("fired = %d, want 3", s.Fired())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	s.RunUntil(MaxTime, nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order %v not FIFO", got)
		}
	}
}

func TestHandlersScheduleMoreEvents(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.Schedule(time.Second, tick)
		}
	}
	s.Schedule(time.Second, tick)
	s.RunUntil(MaxTime, nil)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("clock = %v, want 5s", s.Now())
	}
}

func TestZeroDelayFiresAfterQueuedSameInstant(t *testing.T) {
	s := New()
	var got []string
	s.Schedule(0, func() {
		got = append(got, "first")
		s.Schedule(0, func() { got = append(got, "third") })
	})
	s.Schedule(0, func() { got = append(got, "second") })
	s.RunUntil(MaxTime, nil)
	want := []string{"first", "second", "third"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Schedule(-time.Second, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	s := New()
	s.Schedule(time.Second, func() {})
	s.RunUntil(MaxTime, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.EmitAt(500*time.Millisecond, closure(func() {}), 0)
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Schedule(time.Second, nil)
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(5*time.Second, func() { got = append(got, 5) })
	if s.RunUntil(3*time.Second, nil) {
		t.Error("a run that reached its deadline reports a halt")
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	if s.Now() != time.Second {
		t.Errorf("clock = %v, want 1s (the last fired event)", s.Now())
	}
	s.AdvanceTo(3 * time.Second)
	if s.Now() != 3*time.Second {
		t.Errorf("clock = %v after AdvanceTo, want 3s (deadline)", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
	// Resume to completion.
	s.RunUntil(MaxTime, nil)
	if len(got) != 2 || got[1] != 5 {
		t.Fatalf("after resume got %v", got)
	}
}

func TestRunUntilInclusiveBoundary(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(2*time.Second, func() { fired = true })
	s.RunUntil(2*time.Second, nil)
	if !fired {
		t.Error("event exactly at deadline should fire")
	}
}

func TestStopInsideHandler(t *testing.T) {
	s := New()
	count := 0
	s.Schedule(1*time.Second, func() { count++; s.Stop() })
	s.Schedule(2*time.Second, func() { count++ })
	if !s.RunUntil(MaxTime, nil) {
		t.Error("a run stopped by its handler does not report a halt")
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1 (stopped)", count)
	}
	if s.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s (the stopping event)", s.Now())
	}
	s.RunUntil(MaxTime, nil) // resumes
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestStepOnEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Error("Step on empty queue should report false")
	}
}

func TestManyEventsHeapStress(t *testing.T) {
	s := New()
	const n = 20000
	var fired int
	lastTime := time.Duration(-1)
	// Pseudo-random but deterministic delays via a tiny LCG.
	state := uint64(12345)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		delay := time.Duration(state % uint64(10*time.Second))
		s.Schedule(delay, func() {
			if s.Now() < lastTime {
				t.Error("clock went backwards")
			}
			lastTime = s.Now()
			fired++
		})
	}
	s.RunUntil(MaxTime, nil)
	if fired != n {
		t.Errorf("fired %d of %d", fired, n)
	}
}

func TestScheduleArgOrderAndValues(t *testing.T) {
	s := New()
	var got []int
	record := func(arg int) { got = append(got, arg) }
	s.Emit(3*time.Second, record, 3)
	s.Emit(1*time.Second, record, 1)
	s.Emit(2*time.Second, record, 2)
	s.RunUntil(MaxTime, nil)
	want := []int{1, 2, 3}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestScheduleArgInterleavesWithClosures(t *testing.T) {
	// Mixed forms share one (time, seq) order.
	s := New()
	var got []string
	s.Schedule(time.Second, func() { got = append(got, "closure") })
	s.Emit(time.Second, func(int) { got = append(got, "arg") }, 0)
	s.RunUntil(MaxTime, nil)
	if len(got) != 2 || got[0] != "closure" || got[1] != "arg" {
		t.Fatalf("order = %v, want [closure arg]", got)
	}
}

func TestScheduleArgNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().Emit(time.Second, nil, 0)
}

func TestResetReusesPool(t *testing.T) {
	s := New()
	s.Schedule(time.Hour, func() {})
	s.Schedule(time.Second, func() {})
	s.RunUntil(MaxTime, nil)
	s.Stop()

	s.Reset()
	if s.Now() != 0 || s.Fired() != 0 || s.Pending() != 0 {
		t.Fatalf("after Reset: now=%v fired=%d pending=%d, want zeros",
			s.Now(), s.Fired(), s.Pending())
	}
	// The simulator is fully usable again and replays identically.
	var got []int
	s.Emit(2*time.Second, func(a int) { got = append(got, a) }, 2)
	s.Emit(1*time.Second, func(a int) { got = append(got, a) }, 1)
	s.RunUntil(MaxTime, nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("after Reset run order = %v, want [1 2]", got)
	}
	if s.Now() != 2*time.Second {
		t.Errorf("clock = %v, want 2s", s.Now())
	}
}

func TestSteadyStateChurnDoesNotAllocate(t *testing.T) {
	// The zero-allocation claim, pinned: once the heap's backing array
	// has grown, the schedule→fire cycle with an ArgHandler bound once
	// performs no heap allocation at all.
	s := New()
	tick := func(int) {}
	var reschedule ArgHandler
	reschedule = func(arg int) {
		tick(arg)
		s.Emit(time.Millisecond, reschedule, arg)
	}
	for i := 0; i < 8; i++ {
		s.Emit(time.Duration(i)*time.Microsecond, reschedule, i)
	}
	// Prime the heap's backing array.
	for i := 0; i < 1024; i++ {
		s.Step()
	}
	avg := testing.AllocsPerRun(1000, func() {
		s.Step()
	})
	if avg != 0 {
		t.Errorf("steady-state Step allocates %.2f allocs/op, want 0", avg)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	noop := func(int) {}
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.Emit(time.Duration(j)*time.Millisecond, noop, j)
		}
		s.RunUntil(MaxTime, nil)
	}
}

// BenchmarkEventKernelChurn measures the kernel's steady state — the
// workload a long simulation run presents: one simulator, a standing
// population of self-rescheduling event chains, one fire-and-forget
// Emit per fire (the form the sim engine's scan events use).
// ns/op is the cost of one event through the full schedule→queue→fire
// cycle. The pending axis is what separates the backends: the heap
// pays O(log n) per event and n=10M means ~23 cache-missing sift
// levels, while the wheel stays O(1) at any depth. The wheel tick is
// derived the same way the sim engine derives it: mean delay over 4×
// the standing population, so level-0 buckets hold O(1) events.
func BenchmarkEventKernelChurn(b *testing.B) {
	for _, kc := range []struct {
		name string
		kind Kind
	}{{"heap", KernelHeap}, {"wheel", KernelWheel}} {
		for _, pc := range []struct {
			name    string
			pending int
		}{{"1k", 1_000}, {"100k", 100_000}, {"10M", 10_000_000}} {
			b.Run("kernel="+kc.name+"/pending="+pc.name, func(b *testing.B) {
				benchChurn(b, kc.kind, pc.pending)
			})
		}
	}
}

func benchChurn(b *testing.B, kind Kind, pending int) {
	tick := time.Duration(1)
	if per := meanChurnDelay / time.Duration(4*pending); per > 1 {
		tick = per // Configure rounds down to a power of two
	}
	s := NewWithConfig(Config{Kernel: kind, WheelTick: tick})
	state := uint64(0x1905)
	nextDelay := func() time.Duration {
		state = state*6364136223846793005 + 1442695040888963407
		return time.Duration(1 + (state>>33)%uint64(2*meanChurnDelay))
	}
	var fn ArgHandler
	fn = func(arg int) { s.Emit(nextDelay(), fn, arg) }
	// Seed the standing population through batched admission, in
	// chunks so the staging slice stays small at pending=10M.
	const chunk = 1 << 16
	evs := make([]BatchEvent, 0, chunk)
	for seeded := 0; seeded < pending; {
		evs = evs[:0]
		for len(evs) < chunk && seeded < pending {
			evs = append(evs, BatchEvent{At: nextDelay(), Fn: fn, Arg: seeded})
			seeded++
		}
		s.ScheduleBatch(evs)
	}
	// Warm the queues to steady state, then let the GC finish marking
	// the seeded records so the measured loop (which allocates nothing)
	// isn't sharing the core with a concurrent mark of 10M records
	// triggered by the seeding phase.
	for i := 0; i < 10_000; i++ {
		if !s.Step() {
			b.Fatal("queue drained during warm-up")
		}
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Step() {
			b.Fatal("queue drained")
		}
	}
}

// meanChurnDelay is the churn benchmark's mean reschedule delay.
const meanChurnDelay = time.Millisecond
