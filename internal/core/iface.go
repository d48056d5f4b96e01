package core

import "time"

// Two backends decide the paper's Section IV question — has this source
// reached M distinct destinations this containment cycle? — flag at f·M,
// remove at M and reset every cycle. They share one frame (limiter in
// policy.go): 64 source-hashed stripes, each a mutex, its counters and
// an open-addressing table of hosts; the cycle, the Journal hook, the
// alert ledger and the snapshot framing. Only the host table differs:
//
//   - *Limiter, the exact backend: a 64-byte slot is the host (12
//     destinations inline, a flat set beyond). Exact verdicts, memory
//     proportional to the distinct destinations seen.
//   - *SketchLimiter, the estimator backend: a 16-byte slot points at
//     the host's cardinality bitmaps in its stripe's register slabs, a
//     fixed few hundred bytes per host, verdicts correct up to the
//     estimator's quantified error (see the sketch-accuracy artifact).
//
// The layers above hold a backend through the interface that lists
// what that layer calls, and nothing else:
//
//	holder                            interface     methods it calls
//	gateway.Config.Limiter            Decider       Observe, Snapshot
//	fleet.Config.Local                AlertDecider  Decider + Removed, CycleIndex, ApplyAlert, Alerts
//	durable.Options.NewLimiter,       Backend       Observe, Snapshot, CycleIndex, ApplyAlert,
//	durable.Store.Limiter,                          Reinstate, Config, SetJournal, CheckpointState
//	RestoreAnyLimiter, cmd/wormgate                 (durable); CycleIndex, MarshalState (wormgate)
//
// Backend embeds AlertDecider because wormgate hands the limiter a
// durable store recovered to the fleet node as its local limiter.
// *fleet.Node is itself a Decider and nothing more: a gateway decides
// through it, state is persisted from the backend behind it.
// defense.MLimit constructs and keeps a concrete *Limiter.

// Decider is the connection path's view of a limiter.
type Decider interface {
	// Observe records one connection attempt and returns the verdict.
	Observe(src, dst uint32, t time.Time) Decision
	// Snapshot returns the cumulative decision counters.
	Snapshot() Stats
}

// AlertDecider is a fleet node's view of its local limiter: decisions
// plus the alert ledger.
type AlertDecider interface {
	Decider
	// Removed reports whether the host is currently removed.
	Removed(src uint32) bool
	// CycleIndex returns the zero-based containment-cycle index.
	CycleIndex() uint64
	// ApplyAlert applies one fleet removal alert, reporting whether it
	// was new; duplicates are no-ops (gossip idempotence).
	ApplyAlert(a Alert) bool
	// Alerts returns every applied alert in canonical (Origin, Seq)
	// order — the immunization set.
	Alerts() []Alert
}

// Backend is a limiter as the code that persists it holds it:
// internal/durable journals, snapshots and replays through it, and
// RestoreAnyLimiter returns it because the snapshot header, not the
// caller, says which backend it is.
type Backend interface {
	AlertDecider
	// Reinstate returns a removed host to service with a fresh counter.
	Reinstate(src uint32) bool
	// Config returns the shared containment parameters (M, cycle, f).
	Config() LimiterConfig
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
	_ Backend         = (*Limiter)(nil)
	_ Backend         = (*SketchLimiter)(nil)
	_ FailureObserver = (*SketchLimiter)(nil)
)
