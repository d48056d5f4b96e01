// Package des is a minimal deterministic discrete-event simulation
// kernel: a virtual clock and a priority queue of timestamped events.
// The worm simulator (package sim) schedules every scan as an event, so
// the paper's continuous-time propagation dynamics (Figs. 9–10) run
// with no wall-clock dependence and bit-exact reproducibility.
//
// Determinism contract: events fire in (time, scheduling order). Two
// events at the same virtual instant fire in the order they were
// scheduled, so a simulation is a pure function of its inputs and RNG
// seed. Both kernel backends honor the same contract bit-for-bit.
//
// Two backends implement the pending-event set (DESIGN.md §14):
//
//   - KernelHeap: a hand-rolled index-tracked binary (time, seq)
//     min-heap (no container/heap, no interface boxing). O(log n) per
//     event; the reference backend.
//
//   - KernelWheel: a hierarchical timing wheel (bucketed calendar
//     queue) — power-of-two tick granularity, 4096-slot levels with
//     occupancy bitmaps, buckets of chunked (at, seq, node) records
//     drawn from a pooled chunk free list, cascading overflow levels
//     for far-future timers. O(1) amortized per event, independent of
//     the pending-set size, which is what lets internet-scale
//     populations (10M+ hosts) simulate at full speed. See wheel.go.
//
// The kernel is engineered for zero steady-state allocation (DESIGN.md
// §9): a free-list node pool with a reuse-generation counter so stale
// Timer handles are always safe, lazy deletion of canceled timers at
// pop time, an argument-passing handler form (ArgHandler) that lets
// hot paths schedule events without allocating a closure per event, a
// fire-and-forget form (Emit) that skips the pooled node entirely on
// the wheel backend, and batched admission (ScheduleBatch) that seeds
// whole populations of timers in one amortized pass.
package des

import (
	"fmt"
	"math"
	"time"

	"wormcontain/internal/telemetry"
)

// Handler is the callback invoked when an event fires. It runs on the
// simulator's single logical thread; it may schedule further events.
type Handler func()

// ArgHandler is the allocation-free handler form: one function value
// (typically created once per simulation) shared by many events, each
// carrying its own integer argument — a host index in the worm
// simulator. Scheduling an ArgHandler avoids the per-event closure
// allocation the Handler form requires to capture state.
type ArgHandler func(arg int)

// Kind selects the kernel's pending-event backend.
type Kind uint8

const (
	// KernelHeap is the binary (time, seq) min-heap: O(log n) per
	// event, the reference backend and the zero value.
	KernelHeap Kind = iota
	// KernelWheel is the hierarchical timing wheel: O(1) amortized per
	// event regardless of pending-set depth. Event delivery order is
	// byte-identical to KernelHeap.
	KernelWheel
)

// String implements fmt.Stringer with the names ParseKind accepts.
func (k Kind) String() string {
	switch k {
	case KernelHeap:
		return "heap"
	case KernelWheel:
		return "wheel"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind parses a backend name as accepted on CLI flags.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "heap":
		return KernelHeap, nil
	case "wheel":
		return KernelWheel, nil
	default:
		return 0, fmt.Errorf("des: unknown kernel %q (heap, wheel)", s)
	}
}

// DefaultWheelTick is the wheel granularity used when Config.WheelTick
// is zero: fine enough that enterprise-scale runs keep O(1) buckets,
// coarse enough that a far-future timer cascades only a handful of
// times.
const DefaultWheelTick = 16384 * time.Nanosecond

// Config parameterizes a Simulator's kernel backend.
type Config struct {
	// Kernel selects the pending-event backend; the zero value is the
	// reference binary heap.
	Kernel Kind
	// WheelTick is the timing wheel's level-0 bucket width. It is
	// rounded down to a power of two nanoseconds; zero selects
	// DefaultWheelTick. Pick it near (mean event delay) / (pending-set
	// size) so level-0 buckets hold O(1) events; correctness never
	// depends on it. Ignored by the heap backend.
	WheelTick time.Duration
}

// timer is a pooled event node. Nodes are owned by the Simulator and
// recycled through a free list; user code only ever holds Timer
// handles, which carry the generation stamp that makes recycling safe.
type timer struct {
	at       time.Duration
	seq      uint64
	fn       Handler    // closure form (nil when argFn is set)
	argFn    ArgHandler // argument form
	arg      int
	gen      uint32 // incremented on every recycle; stale handles mismatch
	index    int32  // position in the heap, -1 once popped
	canceled bool
}

// Timer identifies a scheduled event and allows cancellation. It is a
// value handle onto a pooled node: holding one after the event fired
// (or was canceled) is always safe — the node's reuse-generation
// counter makes operations on stale handles inert no-ops, even after
// the node has been recycled for a different event.
type Timer struct {
	n   *timer
	gen uint32
	at  time.Duration
}

// cancel prevents the event from firing. Canceling an already-fired,
// already-canceled or zero-value timer is a no-op; it reports whether
// the call actually canceled a pending event. The canceled node stays
// queued (heap or wheel bucket) and is discarded lazily when it
// surfaces (lazy deletion), so cancel is O(1) on both backends.
func (t Timer) cancel() bool {
	n := t.n
	if n == nil || n.gen != t.gen || n.canceled {
		return false
	}
	n.canceled = true
	n.fn, n.argFn = nil, nil // release references early
	return true
}

// timerBlockSize is the node-pool slab size: when the free list runs
// dry, nodes are carved from a fresh slab of this many, so a simulation
// scheduling E events performs O(E / timerBlockSize) pool allocations
// instead of E.
const timerBlockSize = 256

// timerHeap is a binary min-heap over (at, seq): the heap backend's
// main queue. (The wheel backend's due/overflow heaps are entryHeap —
// same order, but over records that carry the key inline.)
type timerHeap []*timer

// less orders nodes by (at, seq): virtual time first, scheduling order
// as the deterministic tie-break. seq is unique, so the order is a
// strict total order — pop sequences depend only on the multiset of
// queued nodes, never on internal heap arrangement. That is what makes
// bulk heapify (ScheduleBatch) observationally identical to sequential
// pushes.
func less(a, b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends t and restores the heap invariant (sift-up).
func (h *timerHeap) push(t *timer) {
	s := *h
	i := int32(len(s))
	t.index = i
	s = append(s, t)
	for i > 0 {
		parent := (i - 1) / 2
		if !less(t, s[parent]) {
			break
		}
		s[i] = s[parent]
		s[i].index = i
		i = parent
	}
	s[i] = t
	t.index = i
	*h = s
}

// pop removes and returns the heap's minimum node (sift-down).
func (h *timerHeap) pop() *timer {
	s := *h
	root := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	if n > 0 {
		s[0] = last
		last.index = 0
		s.siftDown(0)
	}
	root.index = -1
	return root
}

// siftDown re-seats the node at position i against its descendants.
func (h timerHeap) siftDown(i int32) {
	n := len(h)
	t := h[i]
	for {
		left := 2*i + 1
		if int(left) >= n {
			break
		}
		child := left
		if right := left + 1; int(right) < n && less(h[right], h[left]) {
			child = right
		}
		if !less(h[child], t) {
			break
		}
		h[i] = h[child]
		h[i].index = i
		i = child
	}
	h[i] = t
	t.index = i
}

// heapify restores the heap invariant over the whole slice in O(n):
// the bulk-admission path for ScheduleBatch on the heap backend.
func (h timerHeap) heapify() {
	for i := int32(len(h))/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Simulator is the event loop. The zero value is not usable; construct
// with New or NewWithConfig. A Simulator is not safe for concurrent
// use: the entire simulation runs on one goroutine, which is what
// makes it deterministic.
type Simulator struct {
	now       time.Duration
	seq       uint64
	kind      Kind
	tickShift uint // log2 of the wheel tick in nanoseconds
	heap      timerHeap
	wheel     wheelState
	free      []*timer // recycled nodes, ready for reuse
	slab      []timer  // current allocation block, carved node by node
	fired     uint64
	stopped   bool
	metrics   *kernelMetrics
}

// kernelMetrics is the kernel's optional telemetry wiring. The
// instruments are atomic, so a scraper on another goroutine reads them
// safely even though the Simulator itself is single-threaded.
type kernelMetrics struct {
	events   *telemetry.Counter
	depth    *telemetry.Gauge
	cascades *telemetry.Counter
}

// Instrument registers the kernel's metric families into reg and
// enables per-event updates: des_events_executed_total counts fired
// events, des_queue_depth tracks the pending-event count, and
// des_wheel_cascades_total counts the records the timing wheel re-filed
// on their way down its levels (added once per drained chunk; always 0
// on the heap backend) — cascades per executed event is how many extra
// times the wheel touches an event between filing and firing. Without
// Instrument the kernel touches no instruments at all, so simulations
// that don't scrape pay only a nil check per event. A nil reg removes
// previously installed instruments (for Simulators reused across runs
// with different telemetry wiring).
func (s *Simulator) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		s.metrics = nil
		return
	}
	s.metrics = &kernelMetrics{
		events: reg.Counter("des_events_executed_total",
			"Discrete events executed by the simulation kernel."),
		depth: reg.Gauge("des_queue_depth",
			"Events pending in the kernel's priority queue."),
		cascades: reg.Counter("des_wheel_cascades_total",
			"Records the timing wheel re-filed from a higher level to a lower one."),
	}
	s.metrics.depth.Set(float64(s.Pending()))
}

// New returns a simulator with the clock at zero, using the reference
// heap backend.
func New() *Simulator {
	return &Simulator{}
}

// NewWithConfig returns a simulator with the clock at zero using the
// configured kernel backend.
func NewWithConfig(cfg Config) *Simulator {
	s := &Simulator{}
	s.Configure(cfg)
	return s
}

// Configure switches the kernel backend. It may only be called while
// no events are pending (freshly constructed or after Reset/drain);
// configuring a loaded simulator panics. The node pool survives, so a
// Monte-Carlo arena can flip backends between replications without
// reallocating.
func (s *Simulator) Configure(cfg Config) {
	if s.Pending() != 0 {
		panic("des: Configure with pending events")
	}
	if cfg.WheelTick < 0 {
		panic(fmt.Sprintf("des: negative wheel tick %v", cfg.WheelTick))
	}
	switch cfg.Kernel {
	case KernelHeap, KernelWheel:
	default:
		panic(fmt.Sprintf("des: unknown kernel %v", cfg.Kernel))
	}
	s.kind = cfg.Kernel
	if s.kind == KernelWheel {
		tick := cfg.WheelTick
		if tick == 0 {
			tick = DefaultWheelTick
		}
		s.tickShift = log2floor(uint64(tick))
		s.wheel.cur = uint64(s.now) >> s.tickShift
		if s.wheel.slots == nil {
			s.wheel.slots = make([]wheelSlot, wheelLevels*wheelSlots)
		}
	}
}

// wheelTick returns the wheel backend's effective (power-of-two)
// bucket width, or zero under the heap backend.
func (s *Simulator) wheelTick() time.Duration {
	if s.kind != KernelWheel {
		return 0
	}
	return time.Duration(1) << s.tickShift
}

// Reset returns the simulator to its initial state — clock at zero, no
// pending events — while keeping the node pool, queue capacities and
// kernel configuration, so a Monte-Carlo replication loop can reuse
// one Simulator per worker with zero per-replication allocation.
// Pending events are discarded (their Timer handles turn stale).
func (s *Simulator) Reset() {
	for _, t := range s.heap {
		s.recycle(t)
	}
	s.heap = s.heap[:0]
	s.wheelReset()
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.stopped = false
	if m := s.metrics; m != nil {
		m.depth.Set(0)
	}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events waiting in the queue (including
// canceled ones not yet discarded).
func (s *Simulator) Pending() int {
	if s.kind == KernelWheel {
		return s.wheel.count
	}
	return len(s.heap)
}

// alloc hands out a timer node: from the free list when one is
// available, otherwise carved from the current slab (refilled in
// timerBlockSize batches).
func (s *Simulator) alloc() *timer {
	if n := len(s.free); n > 0 {
		t := s.free[n-1]
		s.free = s.free[:n-1]
		return t
	}
	if len(s.slab) == 0 {
		s.slab = make([]timer, timerBlockSize)
	}
	t := &s.slab[0]
	s.slab = s.slab[1:]
	return t
}

// recycle retires a node: bump its generation (staling every
// outstanding handle), drop handler references, and push it onto the
// free list.
func (s *Simulator) recycle(t *timer) {
	t.gen++
	t.index = -1
	t.fn, t.argFn = nil, nil
	s.free = append(s.free, t)
}

// ScheduleAt enqueues fn to run at absolute virtual time at, which must
// not be in the past.
func (s *Simulator) ScheduleAt(at time.Duration, fn Handler) Timer {
	if fn == nil {
		panic("des: nil handler")
	}
	return s.schedule(at, fn, nil, 0)
}

// scheduleArgAt enqueues fn(arg) to run at absolute virtual time at,
// which must not be in the past.
func (s *Simulator) scheduleArgAt(at time.Duration, fn ArgHandler, arg int) Timer {
	if fn == nil {
		panic("des: nil handler")
	}
	return s.schedule(at, nil, fn, arg)
}

// Emit enqueues fn(arg) to run after delay of virtual time,
// fire-and-forget: no Timer handle is returned, so the event cannot be
// canceled. In exchange, the wheel backend files the event entirely
// inline — no pooled node, no fire-time pointer chase — which makes
// this the preferred form for high-rate event streams that never
// cancel (the worm simulator's scan events). On the heap backend Emit
// costs exactly what a pooled-node event does. Delivery order is
// identical to it on both backends.
func (s *Simulator) Emit(delay time.Duration, fn ArgHandler, arg int) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	s.EmitAt(s.now+delay, fn, arg)
}

// EmitAt enqueues fn(arg) to run at absolute virtual time at,
// fire-and-forget (see Emit).
func (s *Simulator) EmitAt(at time.Duration, fn ArgHandler, arg int) {
	if fn == nil {
		panic("des: nil handler")
	}
	if at < s.now {
		panic(fmt.Sprintf("des: schedule at %v is before now %v", at, s.now))
	}
	if s.kind == KernelWheel {
		s.wheel.count++
		s.wheelPlace(wheelEntry{at: at, seq: s.seq, argFn: fn, arg: arg})
		s.seq++
		return
	}
	t := s.alloc()
	t.at = at
	t.seq = s.seq
	t.fn = nil
	t.argFn = fn
	t.arg = arg
	t.canceled = false
	s.seq++
	s.heap.push(t)
}

// schedule is the shared enqueue path.
func (s *Simulator) schedule(at time.Duration, fn Handler, argFn ArgHandler, arg int) Timer {
	if at < s.now {
		panic(fmt.Sprintf("des: schedule at %v is before now %v", at, s.now))
	}
	t := s.alloc()
	t.at = at
	t.seq = s.seq
	t.fn = fn
	t.argFn = argFn
	t.arg = arg
	t.canceled = false
	s.seq++
	if s.kind == KernelWheel {
		s.wheelInsert(t)
	} else {
		s.heap.push(t)
	}
	return Timer{n: t, gen: t.gen, at: at}
}

// BatchEvent is one entry of a ScheduleBatch admission: fn(Arg) fires
// at absolute virtual time At.
type BatchEvent struct {
	At  time.Duration
	Fn  ArgHandler
	Arg int
}

// ScheduleBatch enqueues every event of evs, assigning sequence numbers
// in slice order — the fire order is byte-identical to calling
// scheduleArgAt in a loop over evs. The batch pays the admission cost
// once: the heap backend bulk-loads and heapifies in O(k + n) instead
// of n sift-ups, and the wheel backend's O(1) inserts skip the
// per-call validation. This is how the sim engine seeds an outbreak's
// initial timers and a whole population's countermeasure fires without
// n scheduler round-trips. Timer handles are not returned; batch
// admission is for fire-and-forget events.
func (s *Simulator) ScheduleBatch(evs []BatchEvent) {
	for i := range evs {
		if evs[i].Fn == nil {
			panic("des: nil handler in batch")
		}
		if evs[i].At < s.now {
			panic(fmt.Sprintf("des: batch event at %v is before now %v", evs[i].At, s.now))
		}
	}
	if s.kind == KernelWheel {
		// Batch events are fire-and-forget by contract, so they take
		// the inline record form: no nodes at all.
		for i := range evs {
			s.wheel.count++
			s.wheelPlace(wheelEntry{
				at: evs[i].At, seq: s.seq, argFn: evs[i].Fn, arg: evs[i].Arg})
			s.seq++
		}
		if m := s.metrics; m != nil {
			m.depth.Set(float64(s.Pending()))
		}
		return
	}
	// Heap backend: when the batch rivals the standing queue, append
	// everything and heapify once (O(k+n)); for small top-ups the
	// incremental sift-up is cheaper.
	bulk := len(evs) > len(s.heap)
	for i := range evs {
		t := s.alloc()
		t.at = evs[i].At
		t.seq = s.seq
		t.fn = nil
		t.argFn = evs[i].Fn
		t.arg = evs[i].Arg
		t.canceled = false
		s.seq++
		if bulk {
			t.index = int32(len(s.heap))
			s.heap = append(s.heap, t)
		} else {
			s.heap.push(t)
		}
	}
	if bulk {
		s.heap.heapify()
	}
	if m := s.metrics; m != nil {
		m.depth.Set(float64(s.Pending()))
	}
}

// heapNext pops heap nodes until it finds a live one, recycling
// canceled nodes on the way (this is where lazy deletion pays its
// debt). Returns nil when the queue holds no live events.
func (s *Simulator) heapNext() *timer {
	for len(s.heap) > 0 {
		t := s.heap.pop()
		if t.canceled {
			s.recycle(t)
			continue
		}
		return t
	}
	return nil
}

// Stop makes the current Run/RunUntil call return after the in-flight
// event completes. Pending events stay queued; a subsequent Run resumes.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the single earliest pending event (skipping canceled ones)
// and advances the clock to it. It reports whether an event fired.
func (s *Simulator) Step() bool {
	var fn Handler
	var argFn ArgHandler
	var arg int
	if s.kind == KernelWheel {
		e, ok := s.wheelNext()
		if !ok {
			return false
		}
		s.now = e.at
		if e.t != nil {
			// Copy the handler out and recycle before invoking: the
			// node's generation is already bumped, so a Cancel from
			// inside the handler (cancel-after-fire) is a no-op, and
			// the handler is free to schedule new events that reuse
			// the node.
			fn, argFn, arg = e.t.fn, e.t.argFn, e.t.arg
			s.recycle(e.t)
		} else {
			argFn, arg = e.argFn, e.arg
		}
	} else {
		t := s.heapNext()
		if t == nil {
			return false
		}
		s.now = t.at
		fn, argFn, arg = t.fn, t.argFn, t.arg
		s.recycle(t)
	}
	s.fired++
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
	if m := s.metrics; m != nil {
		// After the handler, so the depth reflects events it
		// scheduled.
		m.events.Inc()
		m.depth.Set(float64(s.Pending()))
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to deadline (if it has not passed it already). Events scheduled
// beyond the deadline stay queued.
func (s *Simulator) RunUntil(deadline time.Duration) {
	s.stopped = false
	for !s.stopped {
		next, ok := s.peek()
		if !ok || next > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// peek returns the timestamp of the earliest live event, discarding
// canceled nodes that surface at the top.
func (s *Simulator) peek() (time.Duration, bool) {
	if s.kind == KernelWheel {
		return s.wheelPeek()
	}
	for len(s.heap) > 0 {
		t := s.heap[0]
		if !t.canceled {
			return t.at, true
		}
		s.recycle(s.heap.pop())
	}
	return 0, false
}

// MaxTime is the largest representable virtual time, usable as an
// effectively infinite deadline.
const MaxTime = time.Duration(math.MaxInt64)
