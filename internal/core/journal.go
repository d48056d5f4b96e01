package core

// Journal receives the limiter's logical input stream for write-ahead
// logging. Every method is invoked with the limiter locked — the
// *source's stripe*, or every stripe for an input that touches shared
// state (an alert, an input that rolls the cycle), in either backend —
// so implementations must be fast and non-blocking: append the encoded
// record to an in-memory buffer and flush elsewhere. Calls for different sources therefore arrive
// concurrently, and the journal must put them in one sequence itself.
// Any sequence it assigns inside the call is a valid linearization of
// the input stream: records of one source share a stripe, so their
// sequence is the order they were applied in; records of different
// stripes touch disjoint state and commute; and a roll or alert holds
// every stripe, so each other record is strictly before or after it.
// That is what makes replay deterministic: every derived transition
// (removal, flag, cycle roll, deny) is a pure function of the input
// prefix, so none of them need journaling.
type Journal interface {
	// RecordObserve logs one Observe call: every call, including
	// repeats of already-seen destinations and denied attempts, so the
	// replayed totalObserved matches the live one. unixMs is the
	// observation time floored to the millisecond — the same precision
	// the snapshot stores for the epoch, so cycle-roll decisions replay
	// identically when the epoch is millisecond-aligned and the cycle a
	// millisecond multiple.
	RecordObserve(src, dst uint32, unixMs int64)

	// RecordReinstate logs one successful Reinstate call (no-op
	// reinstates are not recorded: they don't change state).
	RecordReinstate(src uint32)

	// RecordFailure logs one ObserveFailure call (every call, including
	// repeats, mirroring RecordObserve) from a backend implementing
	// FailureObserver. The exact *Limiter never emits these; replaying
	// a stream that contains them requires a FailureObserver backend.
	RecordFailure(src, dst uint32, unixMs int64)

	// RecordAlert logs one fresh ApplyAlert call (duplicates are not
	// recorded: they don't change state). Replaying the record through
	// ApplyAlert rebuilds both the removal mark and the dedup ledger,
	// which is what lets a crashed fleet node re-serve its alerts.
	RecordAlert(a Alert)
}

// SetJournal attaches (or, with nil, detaches) a journal receiving all
// subsequent state-changing inputs. Attach before the limiter starts
// observing traffic; the switch itself is ordered with in-flight calls
// by stopping the world.
func (l *limiter[T, P]) SetJournal(j Journal) {
	l.lockAll()
	defer l.unlockAll()
	l.journal = j
}
