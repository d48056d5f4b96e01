package core

import (
	"fmt"
	"math"
	"time"
)

// This file implements the hyper-compact estimator backend of
// Zhou/Chen/Kreidl ("Limiting Self-Propagating Malware Based on
// Connection Failure Behavior Through Hyper-Compact Estimators"): the
// exact per-host distinct-destination set is replaced by a small
// per-host bitmap used as a linear-counting cardinality sketch, plus an
// optional second sketch counting distinct *failed* destinations. A
// gateway fronting millions of sources keeps a few bytes per host
// instead of O(distinct) — the memory wall ROADMAP item 1 names.
//
// Decision rule: the linear-counting estimate n̂ = m·ln(m/Z) (m bitmap
// bits, Z zero bits) is monotone in the number of set bits, so
// "estimate ≥ M" is equivalent to "set bits ≥ k(M)" for a threshold
// k(M) precomputed at construction. The hot path is therefore one hash,
// one bit test and one integer compare — no floating point, no
// allocation, no per-destination storage.

// sketchSlabHosts is the number of hosts per register slab. Register
// memory is carved out of each stripe's slabs instead of per-host
// allocations: a slab allocation amortizes over 64 hosts, slabs are
// recycled across containment cycles, and neighboring hosts share cache
// lines. A slab is small because each of the 64 stripes has a partly
// used one: under 4 % of 100 000 hosts' registers stand idle.
const sketchSlabHosts = 64

// Hash salts for the two sketches. Observe and ObserveFailure must
// place the same (src, dst) pair at independent bit positions.
const (
	sketchContactSalt = 0x9e3779b97f4a7c15
	sketchFailureSalt = 0xc2b2ae3d27d4eb4f
)

// sketchCapacitySlack is the minimum number of zero bits the bitmap
// must still have when the estimate crosses M. Linear counting's
// variance explodes as the bitmap saturates; requiring the removal
// threshold to leave this many zeros keeps the estimator in its
// accurate regime. Capacity rule: a width-m sketch supports thresholds
// up to m·ln(m/slack).
const sketchCapacitySlack = 8

// SketchConfig parameterizes a SketchLimiter: the paper's containment
// parameters plus the estimator's memory/accuracy knobs.
type SketchConfig struct {
	LimiterConfig

	// Bits is the per-host contact-bitmap width in bits (power of two,
	// ≥ 64). Zero selects sketchBits(M), the smallest width whose
	// estimation range covers M. Memory cost is Bits/8 bytes per
	// tracked host.
	Bits int

	// FailureM enables the connection-failure-counting variant: a host
	// whose distinct *failed* destinations reach FailureM in one cycle
	// is removed, independent of its contact count. Zero disables the
	// variant. Failure thresholds are naturally small (a legitimate
	// host fails against a handful of distinct destinations; a scanner
	// fails against almost every probe), so the failure sketch stays
	// tiny.
	FailureM int

	// FailureBits is the per-host failure-bitmap width (power of two,
	// ≥ 64). Zero selects sketchBits(FailureM). Ignored when FailureM
	// is zero.
	FailureBits int
}

// normalize fills the auto-sized widths.
func (c SketchConfig) normalize() SketchConfig {
	if c.Bits == 0 {
		c.Bits = sketchBits(c.M)
	}
	if c.FailureM > 0 && c.FailureBits == 0 {
		c.FailureBits = sketchBits(c.FailureM)
	}
	if c.FailureM == 0 {
		c.FailureBits = 0
	}
	return c
}

// validate reports whether the configuration is usable. The capacity
// rule rejects widths whose removal threshold would sit inside the
// saturated tail of the bitmap, where the estimator can no longer
// distinguish cardinalities: Bits must satisfy
// Bits·ln(Bits/8) ≥ M (and likewise FailureBits for FailureM). And a
// threshold must be reached within the 65 535 set bits a host's count
// (sketchRec) holds.
func (c SketchConfig) validate() error {
	if err := c.LimiterConfig.Validate(); err != nil {
		return err
	}
	if err := validateSketchWidth("Bits", c.Bits, c.M); err != nil {
		return err
	}
	if c.FailureM < 0 {
		return fmt.Errorf("core: sketch FailureM = %d, must be >= 0", c.FailureM)
	}
	if c.FailureM > 0 {
		return validateSketchWidth("FailureBits", c.FailureBits, c.FailureM)
	}
	return nil
}

func validateSketchWidth(name string, width, threshold int) error {
	switch {
	case width < 64 || width > 1<<20:
		return fmt.Errorf("core: sketch %s = %d, must be in [64, 2^20]", name, width)
	case width&(width-1) != 0:
		return fmt.Errorf("core: sketch %s = %d, must be a power of two", name, width)
	case sketchThresholdBits(width, float64(threshold)) > width-sketchCapacitySlack:
		return fmt.Errorf("core: sketch %s = %d cannot resolve threshold %d "+
			"(max ≈ %.0f); use at least %d bits",
			name, width, threshold,
			linearEstimate(width, width-sketchCapacitySlack),
			sketchBits(threshold))
	case sketchThresholdBits(width, float64(threshold)) > math.MaxUint16:
		return fmt.Errorf("core: sketch %s = %d puts threshold %d past %d set bits, "+
			"more than a host's count holds", name, width, threshold, math.MaxUint16)
	}
	return nil
}

// sketchBits returns the smallest power-of-two bitmap width whose
// estimation range covers threshold m distinct destinations — the
// width NewSketchLimiter auto-selects. Growth is roughly linear in the
// threshold divided by its logarithm: 64 bits up to M≈133, 128 bits to
// M≈355, 1024 bits to M≈4967.
func sketchBits(m int) int {
	for w := 64; w <= 1<<20; w <<= 1 {
		if linearEstimate(w, w-sketchCapacitySlack) >= float64(m) {
			return w
		}
	}
	return 1 << 20
}

// linearEstimate is the linear-counting estimator: with k of m bits
// set, n̂ = m·ln(m/(m−k)). Saturation estimates +Inf.
func linearEstimate(m, k int) float64 {
	if k >= m {
		return math.Inf(1)
	}
	return float64(m) * math.Log(float64(m)/float64(m-k))
}

// sketchThresholdBits returns the smallest set-bit count whose estimate
// reaches target, or m+1 when even a saturated bitmap falls short.
func sketchThresholdBits(m int, target float64) int {
	if target <= 0 {
		return 0
	}
	// The estimate is monotone in k; binary search the crossover.
	lo, hi := 1, m
	for lo < hi {
		mid := (lo + hi) / 2
		if linearEstimate(m, mid) >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if linearEstimate(m, lo) < target {
		return m + 1
	}
	return lo
}

// sketchHash mixes (src, dst, salt) with the SplitMix64 finalizer —
// full 64-bit avalanche, deterministic across runs and architectures,
// so WAL replay and the durable shadow state reproduce every bit.
func sketchHash(src, dst uint32, salt uint64) uint64 {
	x := uint64(src)<<32 | uint64(dst)
	x ^= salt
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SketchLimiter is the estimator-backed containment engine: the frame
// of Limiter over a table of sketch slots instead of exact sets. It
// implements Backend (and FailureObserver when FailureM is configured)
// with per-host memory fixed at Bits/8 (+ FailureBits/8) register bytes
// plus a 16-byte slot, regardless of how many destinations a host
// contacts. It is safe for concurrent use.
//
// Decisions mirror the exact backend's, with "distinct destination"
// replaced by "destination hashing to an unset bitmap bit": repeats (and
// hash collisions — the estimator's under-count side) consume no
// budget, and the removal and flag thresholds are the precomputed
// set-bit counts at which the linear-counting estimate crosses M and
// f·M.
type SketchLimiter struct {
	limiter[sketchTable, *sketchTable]
	sketch SketchConfig // resolved widths
}

// NewSketchLimiter returns a sketch-backed limiter whose first
// containment cycle starts at start. Zero Bits/FailureBits auto-size
// from the thresholds via sketchBits.
func NewSketchLimiter(cfg SketchConfig, start time.Time) (*SketchLimiter, error) {
	cfg = cfg.normalize()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l := &SketchLimiter{sketch: cfg}
	l.init(cfg.LimiterConfig, start, newSketchTable(cfg))
	return l, nil
}

// ObserveFailure implements FailureObserver: record that src's
// permitted connection to dst failed at t. Distinct failed
// destinations are counted in the host's failure sketch; crossing
// FailureM removes the host. With FailureM unconfigured the call is a
// no-op returning Allow.
func (l *SketchLimiter) ObserveFailure(src, dst uint32, t time.Time) Decision {
	if l.sketch.FailureM == 0 {
		return Allow
	}
	s := l.stripeOf(src)
	s.mu.Lock()
	if t.Sub(l.epoch) >= l.cfg.Cycle { // as in Observe
		s.mu.Unlock()
		l.lockAll()
		defer l.unlockAll()
		l.rollCycleLocked(t)
	} else {
		defer s.mu.Unlock()
	}
	if l.journal != nil {
		l.journal.RecordFailure(src, dst, t.UnixMilli())
	}
	return s.hosts.fail(src, dst, &s.tally)
}

// sketchRec is a sketch host's set-bit counts (cached so the hot path
// never popcounts) and where its registers are.
type sketchRec struct {
	set, fset uint16 // contact and failure bits set; never past denyBits, failDenyBits
	reg       uint32 // the host's register block: index into the stripe's slabs
}

// sketchSlot is a sketch host: 16 bytes, four to a cache line.
type sketchSlot = slot[sketchRec]

// sketchTable is the sketch backend's stripe table: the slots, the
// register slabs the stripe keeps across cycles, and the limiter's
// register geometry and thresholds. A host's register block is the next
// free one when it is first seen, so a cycle's hosts use blocks
// 0 … live−1.
type sketchTable struct {
	slotTable[sketchRec]

	bits, failureBits uint32 // bitmap widths; failureBits is 0 without FailureM
	failureM          uint32
	cwords, stride    uint32 // contact words; words per host, contact and failure
	denyBits          uint32 // set bits at which the contact estimate reaches M
	flagBits          uint32 // set bits at which it reaches f·M (0: never)
	failDenyBits      uint32 // failure bits at which the estimate reaches FailureM

	pool [][]uint64 // register slabs of sketchSlabHosts hosts

	// cumulative across cycles, like the stripe's tally
	failures        int
	failureRemovals int
}

func newSketchTable(cfg SketchConfig) sketchTable {
	t := sketchTable{
		bits:        uint32(cfg.Bits),
		failureBits: uint32(cfg.FailureBits),
		failureM:    uint32(cfg.FailureM),
		cwords:      uint32(cfg.Bits / 64),
		stride:      uint32(cfg.Bits/64 + cfg.FailureBits/64),
		denyBits:    uint32(sketchThresholdBits(cfg.Bits, float64(cfg.M))),
	}
	if f := cfg.CheckFraction; f > 0 {
		t.flagBits = uint32(sketchThresholdBits(cfg.Bits, f*float64(cfg.M)))
	}
	if cfg.FailureM > 0 {
		t.failDenyBits = uint32(sketchThresholdBits(cfg.FailureBits, float64(cfg.FailureM)))
	}
	return t
}

// slot returns src's slot, starting to track the host on first contact
// with the next register block, zeroed.
func (t *sketchTable) slot(src uint32) *sketchSlot {
	h, fresh := t.track(src)
	if fresh {
		h.rec.reg = uint32(t.live - 1)
		if int(h.rec.reg)/sketchSlabHosts == len(t.pool) {
			t.pool = append(t.pool, make([]uint64, sketchSlabHosts*int(t.stride)))
		}
		clear(t.regs(h)) // the block may be a past cycle's
	}
	return h
}

// regs returns the host's register words: contact registers first,
// failure registers after.
func (t *sketchTable) regs(h *sketchSlot) []uint64 { return t.block(h.rec.reg) }

// block returns register block j.
func (t *sketchTable) block(j uint32) []uint64 {
	off := int(j%sketchSlabHosts) * int(t.stride)
	return t.pool[j/sketchSlabHosts][off : off+int(t.stride)]
}

// observe decides one observation: one hash, one bit test and one
// integer compare.
func (t *sketchTable) observe(src, dst uint32, n *tally) Decision {
	h := t.slot(src)
	if h.removed() {
		n.denied++
		return Deny
	}
	idx := uint32(sketchHash(src, dst, sketchContactSalt)) & (t.bits - 1)
	regs := t.regs(h)
	bit := uint64(1) << (idx & 63)
	if regs[idx>>6]&bit != 0 {
		return Allow
	}
	if uint32(h.rec.set) >= t.denyBits {
		// Estimate at M: the new-destination attempt removes the host.
		t.remove(&h.slotMarks)
		n.removals++
		n.denied++
		return Deny
	}
	regs[idx>>6] |= bit
	h.rec.set++
	if t.flagBits > 0 && !h.flagged() && uint32(h.rec.set) >= t.flagBits {
		t.flag(&h.slotMarks)
		n.flags++
		return AllowAndCheck
	}
	return Allow
}

// fail counts one failed connection in the host's failure sketch and
// returns Deny exactly when it removes the host.
func (t *sketchTable) fail(src, dst uint32, n *tally) Decision {
	t.failures++
	h := t.slot(src)
	if h.removed() {
		return Allow // removed before: this failure removed nothing
	}
	idx := uint32(sketchHash(src, dst, sketchFailureSalt)) & (t.failureBits - 1)
	regs := t.regs(h)[t.cwords:]
	bit := uint64(1) << (idx & 63)
	if regs[idx>>6]&bit != 0 {
		return Allow
	}
	if uint32(h.rec.fset) >= t.failDenyBits {
		t.remove(&h.slotMarks)
		n.removals++
		t.failureRemovals++
		return Deny
	}
	regs[idx>>6] |= bit
	h.rec.fset++
	return Allow
}

// reinstate zeroes a removed host's sketches and clears its marks.
func (t *sketchTable) reinstate(src uint32) bool {
	h := t.find(src)
	if h == nil || !h.removed() {
		return false
	}
	clear(t.regs(h))
	t.unmark(&h.slotMarks)
	h.rec.set, h.rec.fset = 0, 0
	return true
}

func (t *sketchTable) alert(src uint32) bool {
	h := t.slot(src)
	if h.removed() {
		return false
	}
	t.remove(&h.slotMarks)
	return true
}

// roll forgets every host but keeps the slots and slabs, so a cycle
// boundary frees no memory and the next cycle's hot path allocates
// nothing until the fleet outgrows its previous size.
func (t *sketchTable) roll() {
	clear(t.slots)
	t.census = census{}
}

func (t *sketchTable) addStats(st *Stats) {
	t.census.addStats(st)
	st.TotalFailures += t.failures
	st.FailureRemovals += t.failureRemovals
}

// bitsSet returns the host's set contact and failure bits.
func (l *SketchLimiter) bitsSet(src uint32) (set, fset int) {
	s := l.stripeOf(src)
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.hosts.find(src); h != nil {
		return int(h.rec.set), int(h.rec.fset)
	}
	return 0, 0
}

// distinctCount returns the linear-counting estimate of the host's
// distinct destinations this cycle, rounded to the nearest integer —
// the estimator's stand-in for the exact backend's count.
func (l *SketchLimiter) distinctCount(src uint32) int {
	set, _ := l.bitsSet(src)
	return int(linearEstimate(l.sketch.Bits, set) + 0.5)
}

// failureCount returns the estimated distinct failed destinations this
// cycle.
func (l *SketchLimiter) failureCount(src uint32) int {
	_, fset := l.bitsSet(src)
	if fset == 0 {
		return 0
	}
	return int(linearEstimate(l.sketch.FailureBits, fset) + 0.5)
}

// SketchMemory reports the estimator's register footprint — the number
// a capacity plan reads against the exact backend's O(distinct)/host.
type SketchMemory struct {
	// TrackedHosts is the number of hosts with sketch state this cycle.
	TrackedHosts int
	// RegisterBytes is the total register-slab memory allocated
	// (capacity, including recycled slabs awaiting reuse).
	RegisterBytes int
	// BytesPerHost is the fixed register cost of one tracked host.
	BytesPerHost int
}

// Memory returns the current register footprint.
func (l *SketchLimiter) Memory() SketchMemory {
	l.lockAll()
	defer l.unlockAll()
	m := SketchMemory{BytesPerHost: l.sketch.Bits/8 + l.sketch.FailureBits/8}
	for i := range l.stripes {
		t := &l.stripes[i].hosts
		m.TrackedHosts += t.live
		m.RegisterBytes += len(t.pool) * sketchSlabHosts * m.BytesPerHost
	}
	return m
}

// ExpectedRelativeError returns the analytic standard relative error of
// the linear-counting estimate at the removal threshold M (Whang et
// al.: Var(n̂) = m(e^t − t − 1), t = n/m) — the telemetry series
// operators watch to size Bits.
func (l *SketchLimiter) ExpectedRelativeError() float64 {
	m := float64(l.sketch.Bits)
	n := float64(l.sketch.M)
	t := n / m
	return math.Sqrt(m*(math.Exp(t)-t-1)) / n
}
