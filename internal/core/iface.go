package core

import "time"

// ContainmentLimiter is the decision interface the enforcement layers
// (gateway, durable store, wormgate serve) program against. Two
// backends implement it:
//
//   - *Limiter — the exact backend: per-host distinct-destination sets
//     (slice ≤ 64 + map spill). Exact verdicts, O(distinct) memory per
//     host.
//   - *SketchLimiter — the hyper-compact estimator backend: per-host
//     cardinality bitmaps carved out of shared register slabs, a few
//     bytes per host at fleet scale, verdicts correct up to the
//     estimator's quantified error (see the sketch-accuracy artifact).
//
// The contract is the paper's Section IV scheme either way: count
// distinct destinations per source per containment cycle, flag at f·M,
// remove at M, reset every cycle. Both backends journal their logical
// inputs through the same Journal hook and serialize deterministic
// snapshots, so internal/durable persists either one without caring
// which it is — RestoreAnyLimiter dispatches on the snapshot header's
// backend byte.
type ContainmentLimiter interface {
	// Observe records one connection attempt and returns the verdict.
	Observe(src, dst uint32, t time.Time) Decision
	// Reinstate returns a removed host to service with a fresh counter.
	Reinstate(src uint32) bool
	// Removed reports whether the host is currently removed.
	Removed(src uint32) bool
	// DistinctCount reports the host's distinct-destination count this
	// cycle — exact for *Limiter, the estimator's point estimate for
	// *SketchLimiter.
	DistinctCount(src uint32) int
	// CycleIndex returns the zero-based containment-cycle index.
	CycleIndex() uint64
	// Config returns the shared containment parameters (M, cycle, f).
	Config() LimiterConfig
	// Snapshot returns the cumulative decision counters.
	Snapshot() Stats
	// ApplyAlert applies one fleet removal alert, reporting whether it
	// was new; duplicates are no-ops (gossip idempotence).
	ApplyAlert(a Alert) bool
	// Alerts returns every applied alert in canonical (Origin, Seq)
	// order — the immunization set.
	Alerts() []Alert
	// SetJournal attaches (or detaches) the WAL hook.
	SetJournal(Journal)
	// CheckpointState marshals the state and marks the journal cut
	// point atomically with copying it out; see
	// (*Limiter).CheckpointState.
	CheckpointState(cut func()) ([]byte, error)
	// MarshalState serializes the complete state deterministically.
	MarshalState() ([]byte, error)
}

// FailureObserver is the optional connection-failure-counting extension
// of Zhou/Chen/Kreidl: backends that implement it remove hosts whose
// distinct *failed* destinations exceed a separate (much smaller)
// threshold. Scanners hit unused address space, so their connections
// overwhelmingly fail — counting failures separates a worm from a busy
// legitimate host faster than counting raw contacts, and the smaller
// threshold needs a far smaller sketch. The gateway feature-detects
// this interface and reports upstream dial failures through it.
type FailureObserver interface {
	// ObserveFailure records that src's permitted connection to dst
	// failed at time t. It returns Deny exactly when this failure
	// pushed the host over the failure threshold and removed it;
	// otherwise Allow. The verdict is advisory at the call site (the
	// connection already failed) — removal bites on the host's next
	// Observe.
	ObserveFailure(src, dst uint32, t time.Time) Decision
}

// Interface conformance is pinned at compile time.
var (
	_ ContainmentLimiter = (*Limiter)(nil)
	_ ContainmentLimiter = (*SketchLimiter)(nil)
	_ FailureObserver    = (*SketchLimiter)(nil)
)
