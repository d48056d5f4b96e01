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
// Every pending event is one inline record, (at, seq, fn, arg): a
// handler shared by many events (ArgHandler, typically a method value
// bound once per simulation) and the integer argument it fires with.
// Events are one-shot — nothing retracts one; a handler that finds its
// subject gone simply returns. Two backends queue these records
// (DESIGN.md §14):
//
//   - KernelHeap: a binary (time, seq) min-heap of records. O(log n)
//     per event; the reference backend.
//
//   - KernelWheel: a hierarchical timing wheel (bucketed calendar
//     queue) — power-of-two tick granularity, 4096-slot levels with
//     occupancy bitmaps, buckets of chunked records drawn from a pooled
//     chunk free list, cascading overflow levels for far-future events.
//     O(1) amortized per event, independent of the pending-set size,
//     which is what lets internet-scale populations (10M+ hosts)
//     simulate at full speed. See wheel.go.
//
// The kernel allocates nothing in steady state (DESIGN.md §9): records
// live in the queues themselves, so scheduling needs no closure and no
// node, and batched admission (ScheduleBatch) seeds whole populations
// of events in one amortized pass.
package des

import (
	"fmt"
	"math"
	"time"

	"wormcontain/internal/telemetry"
)

// ArgHandler is the event handler: one function value (typically
// created once per simulation) shared by many events, each carrying its
// own integer argument — a host index in the worm simulator. It runs on
// the simulator's single logical thread and may schedule further
// events.
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
// coarse enough that a far-future event cascades only a handful of
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

// entry is one pending event, the only form either backend queues: the
// ordering key inline (so heap sifts and wheel cascades compare without
// a dereference) and the payload, fn(arg).
type entry struct {
	at  time.Duration
	seq uint64
	fn  ArgHandler
	arg int
}

// entryLess orders records by (at, seq): virtual time first, scheduling
// order as the deterministic tie-break. seq is unique, so the order is
// a strict total order — pop sequences depend only on the multiset of
// queued records, never on internal heap arrangement. That is what
// makes bulk heapify (ScheduleBatch) observationally identical to
// sequential pushes, and the wheel identical to the heap.
func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// entryHeap is a binary min-heap of records ordered by (at, seq): the
// heap backend's queue and the wheel's due and overflow heaps.
type entryHeap []entry

// push appends e and restores the heap invariant (sift-up).
func (h *entryHeap) push(e entry) {
	s := *h
	i := len(s)
	s = append(s, e)
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(e, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

// pop removes and returns the heap's minimum record.
func (h *entryHeap) pop() entry {
	s := *h
	root := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = entry{} // drop the handler reference
	*h = s[:n]
	if n > 0 {
		h.down(0)
	}
	return root
}

// down re-seats the record at position i against its descendants
// (sift-down).
func (h entryHeap) down(i int) {
	n := len(h)
	e := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && entryLess(h[right], h[left]) {
			child = right
		}
		if !entryLess(h[child], e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// heapify restores the heap invariant over the whole slice in O(n):
// the bulk-admission path for ScheduleBatch on the heap backend.
func (h entryHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
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
	heap      entryHeap
	wheel     wheelState
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
// configuring a loaded simulator panics. Queue capacities and the
// wheel's chunk pool survive, so a Monte-Carlo arena can flip backends
// between replications without reallocating.
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
// pending events — while keeping queue capacities, the wheel's chunk
// pool and the kernel configuration, so a Monte-Carlo replication loop
// can reuse one Simulator per worker with zero per-replication
// allocation. Pending events are discarded unfired.
func (s *Simulator) Reset() {
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

// Pending returns the number of events waiting in the queue.
func (s *Simulator) Pending() int {
	if s.kind == KernelWheel {
		return s.wheel.count
	}
	return len(s.heap)
}

// Emit enqueues fn(arg) to run after delay of virtual time. A negative
// delay panics; a zero delay fires at the current instant, after
// already-queued events at that instant.
func (s *Simulator) Emit(delay time.Duration, fn ArgHandler, arg int) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	s.EmitAt(s.now+delay, fn, arg)
}

// EmitAt enqueues fn(arg) to run at absolute virtual time at, which
// must not be in the past.
func (s *Simulator) EmitAt(at time.Duration, fn ArgHandler, arg int) {
	if fn == nil {
		panic("des: nil handler")
	}
	if at < s.now {
		panic(fmt.Sprintf("des: schedule at %v is before now %v", at, s.now))
	}
	if s.kind == KernelWheel {
		s.wheel.count++
		s.wheelPlace(s.stamp(at, fn, arg))
		return
	}
	s.heap.push(s.stamp(at, fn, arg))
}

// stamp returns the record for fn(arg) at at, carrying the next
// sequence number.
func (s *Simulator) stamp(at time.Duration, fn ArgHandler, arg int) entry {
	e := entry{at: at, seq: s.seq, fn: fn, arg: arg}
	s.seq++
	return e
}

// BatchEvent is one entry of a ScheduleBatch admission: fn(Arg) fires
// at absolute virtual time At.
type BatchEvent struct {
	At  time.Duration
	Fn  ArgHandler
	Arg int
}

// ScheduleBatch enqueues every event of evs, assigning sequence numbers
// in slice order — the fire order is byte-identical to calling EmitAt
// in a loop over evs. The batch pays the admission cost once: the heap
// backend bulk-loads and heapifies in O(k + n) instead of n sift-ups,
// and the wheel backend's O(1) inserts skip the per-call validation.
// This is how the sim engine seeds an outbreak's initial events and a
// whole population's countermeasure fires without n scheduler
// round-trips.
func (s *Simulator) ScheduleBatch(evs []BatchEvent) {
	for i := range evs {
		if evs[i].Fn == nil {
			panic("des: nil handler in batch")
		}
		if evs[i].At < s.now {
			panic(fmt.Sprintf("des: batch event at %v is before now %v", evs[i].At, s.now))
		}
	}
	switch {
	case s.kind == KernelWheel:
		for i := range evs {
			s.wheel.count++
			s.wheelPlace(s.stamp(evs[i].At, evs[i].Fn, evs[i].Arg))
		}
	case len(evs) > len(s.heap):
		// The batch rivals the standing queue: append everything and
		// heapify once (O(k+n)).
		for i := range evs {
			s.heap = append(s.heap, s.stamp(evs[i].At, evs[i].Fn, evs[i].Arg))
		}
		s.heap.heapify()
	default:
		// A small top-up: incremental sift-up is cheaper.
		for i := range evs {
			s.heap.push(s.stamp(evs[i].At, evs[i].Fn, evs[i].Arg))
		}
	}
	if m := s.metrics; m != nil {
		m.depth.Set(float64(s.Pending()))
	}
}

// front returns the heap whose root is the earliest pending event —
// the heap backend's queue, or the wheel's due heap after advancing the
// wheel until it holds one — or nil when nothing is pending.
func (s *Simulator) front() *entryHeap {
	if s.kind != KernelWheel {
		if len(s.heap) == 0 {
			return nil
		}
		return &s.heap
	}
	w := &s.wheel
	for len(w.due) == 0 {
		if !s.wheelAdvance() {
			return nil
		}
	}
	return &w.due
}

// Stop makes the current Run/RunUntil call return after the in-flight
// event completes. Pending events stay queued; a subsequent Run resumes.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the single earliest pending event and advances the clock
// to it. It reports whether an event fired.
func (s *Simulator) Step() bool {
	h := s.front()
	if h == nil {
		return false
	}
	e := h.pop()
	if s.kind == KernelWheel {
		s.wheel.count--
	}
	s.now = e.at
	s.fired++
	e.fn(e.arg)
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

// peek returns the timestamp of the earliest pending event.
func (s *Simulator) peek() (time.Duration, bool) {
	h := s.front()
	if h == nil {
		return 0, false
	}
	return (*h)[0].at, true
}

// MaxTime is the largest representable virtual time, usable as an
// effectively infinite deadline.
const MaxTime = time.Duration(math.MaxInt64)
