package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"wormcontain/internal/binio"
)

// Decision is the limiter's verdict on one observed connection attempt.
type Decision int

const (
	// Allow: the destination is within the host's scan budget (either
	// already contacted this cycle, or a new address below the limit).
	Allow Decision = iota + 1

	// AllowAndCheck: allowed, but the host has crossed the fraction-f
	// warning threshold of Section IV and should undergo a complete
	// checking process ("if the number of scans originating from a host
	// is getting close to the threshold ... the host goes through a
	// complete checking process").
	AllowAndCheck

	// Deny: the host has exhausted its M distinct destinations for this
	// containment cycle and is removed pending a heavy-duty check.
	Deny
)

// LimiterConfig parameterizes the automated containment system of
// Section IV.
type LimiterConfig struct {
	// M is the maximum number of distinct destination addresses a host
	// may contact within one containment cycle (step 1 of the scheme).
	M int

	// Cycle is the containment-cycle duration — "a fixed but relatively
	// long duration, e.g. a month" (step 2). At each cycle boundary all
	// counters reset (step 4).
	Cycle time.Duration

	// CheckFraction is the early-warning fraction f in (0, 1]: a host
	// whose distinct-destination count reaches f·M is flagged for a
	// complete checking process while still being allowed to
	// communicate. Zero disables flagging.
	CheckFraction float64
}

// Validate reports whether the configuration is usable.
func (c LimiterConfig) Validate() error {
	switch {
	case c.M < 1:
		return fmt.Errorf("core: limiter M = %d, must be >= 1", c.M)
	case c.Cycle <= 0:
		return fmt.Errorf("core: containment cycle %v, must be > 0", c.Cycle)
	case c.CheckFraction < 0 || c.CheckFraction > 1:
		return fmt.Errorf("core: check fraction %v, must be in [0, 1]", c.CheckFraction)
	}
	return nil
}

// stripeCount is the number of independently locked partitions of the
// per-source state. The scheme's state is strictly per-source, so any
// source-stable partition preserves its semantics exactly; 64 keeps two
// goroutines on distinct sources apart 63 times in 64 and costs a
// stop-the-world operation (cycle roll, alert, snapshot cut) 64
// uncontended lock hand-offs, about a microsecond.
const (
	stripeBits  = 6
	stripeCount = 1 << stripeBits
)

// SourceHash spreads source addresses (sequential ones included) over
// 32 bits; the top bits pick the limiter stripe. internal/durable picks
// its journal lane from the same hash, so two sources on different
// stripes never meet on a lane either.
func SourceHash(src uint32) uint32 { return src * 0x9e3779b9 }

// sourceHashInverse undoes SourceHash: the multiplier is odd, so it has
// an inverse modulo 2^32, and h*sourceHashInverse is the source h came
// from.
const sourceHashInverse = 0x144cbc89

// tally is what a stripe's decisions have counted across all cycles;
// Snapshot sums the stripes'.
type tally struct {
	observed int
	removals int
	flags    int
	denied   int
}

// table is what the limiter frame asks of a backend's host table T: one
// stripe's hosts in the current containment cycle, in the backend's own
// encoding. The frame locks, journals, counts, rolls the cycle, keeps
// the alert ledger and frames snapshots; the table holds the hosts and
// decides. Every method runs with the table's stripe held, and a
// decision makes exactly one call, observe. Both tables are 128 bytes
// (TestStripeLayout), which is what the stripe's padding assumes.
type table[T any] interface {
	*T
	// observe decides the contact of src with dst, counting a removal,
	// flag or denial into n.
	observe(src, dst uint32, n *tally) Decision
	// reinstate clears a removed host's marks and empties its record,
	// and reports whether src was removed.
	reinstate(src uint32) bool
	// isRemoved reports whether src is tracked and removed.
	isRemoved(src uint32) bool
	// alert marks src removed, tracking it if it is new, and reports
	// whether it was not removed already.
	alert(src uint32) bool
	// roll forgets every host: a new cycle starts.
	roll()
	// addStats adds the table's host counts to st.
	addStats(st *Stats)

	// The snapshot codec's per-backend part (persist.go): the backend
	// byte and section, and per host the payload after its marks.
	backend() SnapshotBackend
	appendSection(b []byte, st Stats) []byte
	copyOut(c *hostsCopy)
	appendHost(b []byte, words []uint32, scratch *[]uint32) []byte
	checkHost(r *binio.Reader, src uint32, j, off int) (note uint64, err error)
	presize(hosts int)
	fillHost(data []byte, j int, src uint32, removed, flagged bool, note uint64)
}

// stripe is one partition of a limiter: the hosts whose SourceHash
// lands here, in the backend's table, and the counters their decisions
// bump. The fields take 168 bytes and the padding makes the stride 256,
// so two stripes' fields are 88 bytes apart and cannot share a 64-byte
// cache line wherever the allocator puts the limiter (it guarantees
// 8-byte alignment, no more). What every decision touches — the mutex,
// the counters, the table's slice header — comes first, within 72 bytes.
type stripe[T any] struct {
	mu sync.Mutex
	tally
	hosts T

	_ [256 - 8 - 32 - 128]byte
}

// limiter is the frame both backends share: the containment cycle, 64
// stripes of hosts in table T, the journal hook and the alert ledger.
// It is safe for concurrent use, and decisions on sources in different
// stripes run in parallel.
//
// Time is supplied by the caller on every observation, so the limiter
// works identically under the discrete-event simulator's virtual clock
// and under wall-clock deployment.
//
// Locking. A per-source input (Observe, Reinstate, Removed, RemovedAt and
// Limiter.DistinctCount or SketchLimiter.ObserveFailure) takes only its
// source's stripe. Everything
// that touches state shared by all sources — a cycle roll, ApplyAlert,
// SetJournal, a snapshot's copy-out and cut, Snapshot — takes every
// stripe, in index order. journal, epoch, cycleIndex and alerts are
// therefore written only with every stripe held and may be read under
// any one.
type limiter[T any, P table[T]] struct {
	cfg     LimiterConfig
	stripes [stripeCount]stripe[T]

	journal    Journal   // optional WAL hook; see journal.go
	epoch      time.Time // start of the current containment cycle
	cycleIndex uint64
	alerts     alertBook // fleet immunization ledger; see alert.go
}

// init starts the limiter's first containment cycle at start, every
// stripe with the empty table given.
func (l *limiter[T, P]) init(cfg LimiterConfig, start time.Time, empty T) {
	l.cfg, l.epoch = cfg, start
	for i := range l.stripes {
		l.stripes[i].hosts = empty
	}
}

// Limiter is the exact runtime containment engine: it watches (source,
// destination) pairs with timestamps, counts distinct destinations per
// source per containment cycle, flags sources near the limit and removes
// sources at the limit. Its host table (hosttable.go) keeps every
// distinct destination; the frame it shares with SketchLimiter is
// limiter.
type Limiter struct {
	limiter[hostTable, *hostTable]
}

// NewLimiter returns a limiter whose first containment cycle starts at
// start.
func NewLimiter(cfg LimiterConfig, start time.Time) (*Limiter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := new(Limiter)
	l.init(cfg, start, newHostTable(cfg))
	return l, nil
}

// flagThreshold is the smallest distinct count n with n ≥ f·M in
// float64 arithmetic — the comparison the scheme is specified by — or 0
// when flagging is off. float64(n) is monotone in n and M itself passes
// (f ≤ 1), so a binary search over [0, M] finds it; decisions then
// compare integers.
func flagThreshold(cfg LimiterConfig) int {
	if !(cfg.CheckFraction > 0) { // 0 is off; so was a NaN, which Validate lets through
		return 0
	}
	at := cfg.CheckFraction * float64(cfg.M)
	return sort.Search(cfg.M, func(n int) bool { return float64(n) >= at })
}

// Config returns the limiter's configuration.
func (l *limiter[T, P]) Config() LimiterConfig { return l.cfg }

// stripeIndex is the stripe src's state lives in.
func stripeIndex(src uint32) int { return int(SourceHash(src) >> (32 - stripeBits)) }

func (l *limiter[T, P]) stripeOf(src uint32) *stripe[T] { return &l.stripes[stripeIndex(src)] }

// lockAll stops the world: it takes every stripe in index order.
func (l *limiter[T, P]) lockAll() {
	for i := range l.stripes {
		l.stripes[i].mu.Lock()
	}
}

func (l *limiter[T, P]) unlockAll() {
	for i := range l.stripes {
		l.stripes[i].mu.Unlock()
	}
}

// Observe records that host src attempted to contact destination dst at
// time t and returns the containment decision. Repeat contacts to an
// already-seen destination never consume budget (the counter tracks
// *unique* addresses, the property that distinguishes the scheme from
// rate limiting). Observations are expected in non-decreasing time
// order; an observation in a later cycle first rolls the cycle over,
// resetting all counters and reinstating removed hosts (step 4: hosts
// are checked at cycle end and their counters reset).
func (l *limiter[T, P]) Observe(src, dst uint32, t time.Time) Decision {
	s := l.stripeOf(src)
	s.mu.Lock()
	// The one boundary test on the fast path; the epoch cannot move
	// while any stripe is held. An observation past the boundary rolls
	// every stripe, so it takes them all: the whole input — journal
	// record, roll, decision — runs with the world stopped and every
	// other record falls strictly before or after it.
	rolling := t.Sub(l.epoch) >= l.cfg.Cycle
	if rolling {
		s.mu.Unlock()
		l.lockAll()
		l.rollCycleLocked(t) // another goroutine may have rolled in between; it tests again
	}
	if l.journal != nil {
		// Journaled before applying, under the stripe lock: the journal's
		// sequence is a linearization of the input stream (see
		// journal.go), and replaying it regenerates every derived
		// transition.
		l.journal.RecordObserve(src, dst, t.UnixMilli())
	}
	// Counted while the lock is already held, so enforcement points get
	// an exact observation total at zero marginal cost: every decision
	// counter a gateway needs derives from totals maintained here.
	s.observed++
	d := P(&s.hosts).observe(src, dst, &s.tally)
	if rolling {
		l.unlockAll()
	} else {
		s.mu.Unlock()
	}
	return d
}

// rollCycleLocked advances the containment cycle to contain t, resetting
// all per-host state once per boundary crossed. Counters clear and
// removed hosts re-enter with a zero counter, mirroring steps 3–4 of the
// paper's scheme. Every stripe is held.
func (l *limiter[T, P]) rollCycleLocked(t time.Time) {
	elapsed := t.Sub(l.epoch)
	if elapsed < l.cfg.Cycle {
		return
	}
	steps := uint64(elapsed / l.cfg.Cycle)
	l.cycleIndex += steps
	l.epoch = l.epoch.Add(time.Duration(steps) * l.cfg.Cycle)
	for i := range l.stripes {
		P(&l.stripes[i].hosts).roll()
	}
}

// Reinstate puts a removed host back into service with a fresh counter,
// modelling the successful completion of the heavy-duty checking process
// before the cycle ends. Reinstating an unknown or non-removed host is a
// no-op; it reports whether the host was actually reinstated.
func (l *limiter[T, P]) Reinstate(src uint32) bool {
	s := l.stripeOf(src)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !P(&s.hosts).reinstate(src) {
		return false
	}
	if l.journal != nil {
		l.journal.RecordReinstate(src)
	}
	return true
}

// Removed reports whether the host is currently removed.
func (l *limiter[T, P]) Removed(src uint32) bool {
	s := l.stripeOf(src)
	s.mu.Lock()
	defer s.mu.Unlock()
	return P(&s.hosts).isRemoved(src)
}

// RemovedAt reports whether the host is removed at time t: removed now,
// and t inside the current containment cycle. Past the cycle's end it
// reports false, because the observation that rolls the cycle reinstates
// every host (step 4). It is a read: it rolls nothing and journals
// nothing.
func (l *limiter[T, P]) RemovedAt(src uint32, t time.Time) bool {
	s := l.stripeOf(src)
	s.mu.Lock()
	defer s.mu.Unlock()
	return t.Sub(l.epoch) < l.cfg.Cycle && P(&s.hosts).isRemoved(src)
}

// DistinctCount returns the number of unique destinations the host has
// contacted in the current cycle.
func (l *Limiter) DistinctCount(src uint32) int {
	s := l.stripeOf(src)
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.hosts.find(src)
	if h == nil {
		return 0
	}
	return s.hosts.count(h)
}

// CycleIndex returns the zero-based index of the current containment
// cycle.
func (l *limiter[T, P]) CycleIndex() uint64 {
	s := &l.stripes[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return l.cycleIndex
}

// Stats is a snapshot of the limiter's cumulative counters.
type Stats struct {
	// ActiveHosts is the number of hosts with state in the current cycle.
	ActiveHosts int
	// RemovedHosts is the number of currently removed hosts.
	RemovedHosts int
	// FlaggedHosts is the number of hosts flagged this cycle.
	FlaggedHosts int
	// TotalObserved counts Observe calls across all cycles. Decision
	// counters derive from it: allows = observed - denied - flags.
	TotalObserved int
	// TotalRemovals counts removals across all cycles.
	TotalRemovals int
	// TotalFlags counts fraction-f flags across all cycles.
	TotalFlags int
	// TotalDenied counts denied connection attempts across all cycles.
	TotalDenied int
	// TotalFailures counts ObserveFailure calls across all cycles.
	// Always zero for the exact backend, which does not implement
	// FailureObserver.
	TotalFailures int
	// FailureRemovals counts removals triggered by the connection-
	// failure threshold (a subset of TotalRemovals). Always zero for
	// the exact backend.
	FailureRemovals int
	// TotalAlerts counts fleet alerts applied (duplicates excluded)
	// across all cycles.
	TotalAlerts int
	// AlertRemovals counts alert applications that newly removed a host
	// — separate from TotalRemovals, which tracks removals this
	// limiter's own budget enforcement produced.
	AlertRemovals int
}

// Snapshot returns the current statistics, consistent across stripes. It
// sums the stripes' counters and reads no per-host state.
func (l *limiter[T, P]) Snapshot() Stats {
	l.lockAll()
	defer l.unlockAll()
	return l.statsLocked()
}

// statsLocked is Snapshot with every stripe held.
func (l *limiter[T, P]) statsLocked() Stats {
	st := Stats{
		TotalAlerts:   l.alerts.applied,
		AlertRemovals: l.alerts.removals,
	}
	for i := range l.stripes {
		s := &l.stripes[i]
		st.TotalObserved += s.observed
		st.TotalRemovals += s.removals
		st.TotalFlags += s.flags
		st.TotalDenied += s.denied
		P(&s.hosts).addStats(&st)
	}
	return st
}

// topCounts returns the n largest distinct-destination counts in the
// current cycle, descending — the quantity plotted for the six most
// active LBL hosts in Fig. 6.
func (l *Limiter) topCounts(n int) []int {
	l.lockAll()
	counts := make([]int, 0, l.statsLocked().ActiveHosts)
	for i := range l.stripes {
		t := &l.stripes[i].hosts
		for j := range t.slots {
			if h := &t.slots[j]; h.live() {
				counts = append(counts, t.count(h))
			}
		}
	}
	l.unlockAll()
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if n < len(counts) {
		counts = counts[:n]
	}
	return counts
}
