package core

import (
	"fmt"
	"math"
	"sync"
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
// memory is carved out of shared slabs instead of per-host allocations:
// one slab allocation amortizes over 1024 hosts, slabs are recycled
// across containment cycles, and neighboring hosts share cache lines.
const sketchSlabHosts = 1 << 10

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
// Bits·ln(Bits/8) ≥ M (and likewise FailureBits for FailureM).
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

// sketchMeta is one tracked host's non-register state: set-bit counts
// (cached so the hot path never popcounts) and the verdict marks.
type sketchMeta struct {
	set     uint16 // contact bits set; never exceeds denyBits
	fset    uint16 // failure bits set; never exceeds failDenyBits
	removed bool
	flagged bool
}

// SketchLimiter is the estimator-backed containment engine. It
// implements Backend (and FailureObserver when FailureM is
// configured) with per-host memory fixed at Bits/8 (+ FailureBits/8)
// register bytes plus ~16 bytes of slot metadata, regardless of how
// many destinations a host contacts. It is safe for concurrent use.
type SketchLimiter struct {
	cfg    SketchConfig
	stride int // uint64 words per host: contact + failure registers
	cwords int // contact words
	cmask  uint32
	fmask  uint32

	denyBits     int // set bits at which the contact estimate reaches M
	flagBits     int // set bits at which the estimate reaches f·M (0 = off)
	failDenyBits int // failure bits at which the estimate reaches FailureM

	mu         sync.Mutex
	journal    Journal
	epoch      time.Time
	cycleIndex uint64
	slots      map[uint32]uint32 // src → slot
	meta       []sketchMeta      // indexed by slot
	pool       [][]uint64        // register slabs, sketchSlabHosts hosts each
	used       uint32            // slots handed out this cycle
	alerts     alertBook         // fleet immunization ledger; see alert.go

	// hosts of the current cycle carrying each mark, kept where the marks
	// change so that Snapshot reads no per-host state
	removedHosts int
	flaggedHosts int

	totalObserved   int
	totalRemovals   int
	totalFlags      int
	totalDenied     int
	totalFailures   int
	failureRemovals int
}

// NewSketchLimiter returns a sketch-backed limiter whose first
// containment cycle starts at start. Zero Bits/FailureBits auto-size
// from the thresholds via sketchBits.
func NewSketchLimiter(cfg SketchConfig, start time.Time) (*SketchLimiter, error) {
	cfg = cfg.normalize()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l := &SketchLimiter{
		cfg:      cfg,
		cwords:   cfg.Bits / 64,
		stride:   cfg.Bits/64 + cfg.FailureBits/64,
		cmask:    uint32(cfg.Bits - 1),
		denyBits: sketchThresholdBits(cfg.Bits, float64(cfg.M)),
		epoch:    start,
		slots:    make(map[uint32]uint32),
	}
	if f := cfg.CheckFraction; f > 0 {
		l.flagBits = sketchThresholdBits(cfg.Bits, f*float64(cfg.M))
	}
	if cfg.FailureM > 0 {
		l.fmask = uint32(cfg.FailureBits - 1)
		l.failDenyBits = sketchThresholdBits(cfg.FailureBits, float64(cfg.FailureM))
	}
	return l, nil
}

// Config returns the containment parameters shared with the exact
// backend.
func (l *SketchLimiter) Config() LimiterConfig { return l.cfg.LimiterConfig }

// SetJournal attaches (or, with nil, detaches) the WAL hook; see
// (*Limiter).SetJournal.
func (l *SketchLimiter) SetJournal(j Journal) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.journal = j
}

// regs returns the host's register words: contact registers first,
// failure registers after. Pure index arithmetic into the shared slab —
// no allocation.
func (l *SketchLimiter) regs(slot uint32) []uint64 {
	slab := l.pool[slot/sketchSlabHosts]
	off := int(slot%sketchSlabHosts) * l.stride
	return slab[off : off+l.stride]
}

// newSlotLocked tracks a new host: next slot in the current slab (a new
// slab every sketchSlabHosts hosts), registers zeroed for reuse across
// cycles.
func (l *SketchLimiter) newSlotLocked(src uint32) uint32 {
	slot := l.used
	if int(slot)/sketchSlabHosts == len(l.pool) {
		l.pool = append(l.pool, make([]uint64, sketchSlabHosts*l.stride))
	}
	l.used++
	regs := l.regs(slot)
	for i := range regs {
		regs[i] = 0
	}
	l.meta = append(l.meta, sketchMeta{})
	l.slots[src] = slot
	return slot
}

// rollCycleLocked advances the containment cycle to contain t. Slabs
// are retained and re-zeroed lazily on slot reuse, so a cycle boundary
// frees no register memory and the next cycle's hot path allocates
// nothing until the fleet outgrows its previous size.
func (l *SketchLimiter) rollCycleLocked(t time.Time) {
	elapsed := t.Sub(l.epoch)
	if elapsed < l.cfg.Cycle {
		return
	}
	steps := uint64(elapsed / l.cfg.Cycle)
	l.cycleIndex += steps
	l.epoch = l.epoch.Add(time.Duration(steps) * l.cfg.Cycle)
	clear(l.slots)
	l.meta = l.meta[:0]
	l.used = 0
	l.removedHosts, l.flaggedHosts = 0, 0
}

// Observe records that host src attempted to contact destination dst at
// time t and returns the containment decision. Semantics mirror
// (*Limiter).Observe exactly, with "distinct destination" replaced by
// "destination hashing to an unset bitmap bit": repeats (and hash
// collisions — the estimator's under-count side) consume no budget, and
// the removal/flag thresholds are the precomputed set-bit counts at
// which the linear-counting estimate crosses M and f·M.
func (l *SketchLimiter) Observe(src, dst uint32, t time.Time) Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.journal != nil {
		l.journal.RecordObserve(src, dst, t.UnixMilli())
	}
	l.rollCycleLocked(t)
	l.totalObserved++

	slot, ok := l.slots[src]
	if !ok {
		slot = l.newSlotLocked(src)
	}
	m := &l.meta[slot]
	if m.removed {
		l.totalDenied++
		return Deny
	}
	idx := uint32(sketchHash(src, dst, sketchContactSalt)) & l.cmask
	regs := l.regs(slot)
	bit := uint64(1) << (idx & 63)
	if regs[idx>>6]&bit != 0 {
		return Allow
	}
	if int(m.set) >= l.denyBits {
		// Estimate at M: the new-destination attempt removes the host.
		m.removed = true
		l.removedHosts++
		l.totalRemovals++
		l.totalDenied++
		return Deny
	}
	regs[idx>>6] |= bit
	m.set++
	if l.flagBits > 0 && !m.flagged && int(m.set) >= l.flagBits {
		m.flagged = true
		l.flaggedHosts++
		l.totalFlags++
		return AllowAndCheck
	}
	return Allow
}

// ObserveFailure implements FailureObserver: record that src's
// permitted connection to dst failed at t. Distinct failed
// destinations are counted in the host's failure sketch; crossing
// FailureM removes the host. With FailureM unconfigured the call is a
// no-op returning Allow.
func (l *SketchLimiter) ObserveFailure(src, dst uint32, t time.Time) Decision {
	if l.cfg.FailureM == 0 {
		return Allow
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.journal != nil {
		l.journal.RecordFailure(src, dst, t.UnixMilli())
	}
	l.rollCycleLocked(t)
	l.totalFailures++

	slot, ok := l.slots[src]
	if !ok {
		slot = l.newSlotLocked(src)
	}
	m := &l.meta[slot]
	if m.removed {
		return Deny
	}
	idx := uint32(sketchHash(src, dst, sketchFailureSalt)) & l.fmask
	regs := l.regs(slot)[l.cwords:]
	bit := uint64(1) << (idx & 63)
	if regs[idx>>6]&bit != 0 {
		return Allow
	}
	if int(m.fset) >= l.failDenyBits {
		m.removed = true
		l.removedHosts++
		l.totalRemovals++
		l.failureRemovals++
		return Deny
	}
	regs[idx>>6] |= bit
	m.fset++
	return Allow
}

// Reinstate puts a removed host back into service with fresh sketches,
// modelling the heavy-duty check completing; see (*Limiter).Reinstate.
func (l *SketchLimiter) Reinstate(src uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	slot, ok := l.slots[src]
	if !ok || !l.meta[slot].removed {
		return false
	}
	if l.journal != nil {
		l.journal.RecordReinstate(src)
	}
	regs := l.regs(slot)
	for i := range regs {
		regs[i] = 0
	}
	l.removedHosts--
	if l.meta[slot].flagged {
		l.flaggedHosts--
	}
	l.meta[slot] = sketchMeta{}
	return true
}

// Removed reports whether the host is currently removed.
func (l *SketchLimiter) Removed(src uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	slot, ok := l.slots[src]
	return ok && l.meta[slot].removed
}

// distinctCount returns the linear-counting estimate of the host's
// distinct destinations this cycle, rounded to the nearest integer —
// the estimator's stand-in for the exact backend's count.
func (l *SketchLimiter) distinctCount(src uint32) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	slot, ok := l.slots[src]
	if !ok {
		return 0
	}
	return int(linearEstimate(l.cfg.Bits, int(l.meta[slot].set)) + 0.5)
}

// failureCount returns the estimated distinct failed destinations this
// cycle.
func (l *SketchLimiter) failureCount(src uint32) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	slot, ok := l.slots[src]
	if !ok || l.cfg.FailureM == 0 {
		return 0
	}
	return int(linearEstimate(l.cfg.FailureBits, int(l.meta[slot].fset)) + 0.5)
}

// CycleIndex returns the zero-based containment-cycle index.
func (l *SketchLimiter) CycleIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cycleIndex
}

// Snapshot returns the cumulative decision counters. It reads no
// per-host state.
func (l *SketchLimiter) Snapshot() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		ActiveHosts:     int(l.used),
		RemovedHosts:    l.removedHosts,
		FlaggedHosts:    l.flaggedHosts,
		TotalObserved:   l.totalObserved,
		TotalRemovals:   l.totalRemovals,
		TotalFlags:      l.totalFlags,
		TotalDenied:     l.totalDenied,
		TotalFailures:   l.totalFailures,
		FailureRemovals: l.failureRemovals,
		TotalAlerts:     l.alerts.applied,
		AlertRemovals:   l.alerts.removals,
	}
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
	l.mu.Lock()
	defer l.mu.Unlock()
	return SketchMemory{
		TrackedHosts:  int(l.used),
		RegisterBytes: len(l.pool) * sketchSlabHosts * l.stride * 8,
		BytesPerHost:  l.stride * 8,
	}
}

// ExpectedRelativeError returns the analytic standard relative error of
// the linear-counting estimate at the removal threshold M (Whang et
// al.: Var(n̂) = m(e^t − t − 1), t = n/m) — the telemetry series
// operators watch to size Bits.
func (l *SketchLimiter) ExpectedRelativeError() float64 {
	m := float64(l.cfg.Bits)
	n := float64(l.cfg.M)
	t := n / m
	return math.Sqrt(m*(math.Exp(t)-t-1)) / n
}
