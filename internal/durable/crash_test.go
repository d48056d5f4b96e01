package durable

import (
	"bytes"
	"os"
	"strconv"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/faultfs"
)

// crashSeeds mirrors the chaos-suite convention: WORMGATE_CRASH_SEED
// pins a single seed (the CI matrix), default sweeps the canonical
// three.
func crashSeeds(t *testing.T) []uint64 {
	if v := os.Getenv("WORMGATE_CRASH_SEED"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("WORMGATE_CRASH_SEED=%q: %v", v, err)
		}
		return []uint64{seed}
	}
	return []uint64{1, 7, 1905}
}

// crashCfg exercises budget exhaustion fast (M=3) and cycle rolls
// within the scripted timeline.
var crashCfg = core.LimiterConfig{M: 3, Cycle: 500 * time.Millisecond, CheckFraction: 0.5}

var crashStart = time.UnixMilli(1_800_000_000_000).UTC()

// crashInput is one logical limiter input. All timestamps are whole
// milliseconds so the shadow limiter and WAL replay agree exactly.
type crashInput struct {
	reinstate   bool
	alert       bool
	origin, seq uint64 // alert only
	src, dst    uint32
	atMs        int64 // offset from crashStart
}

// asAlert builds the fleet alert a crashInput with alert=true encodes.
func (c crashInput) asAlert() core.Alert {
	return core.Alert{
		Origin: c.origin, Seq: c.seq, Src: c.src,
		UnixMs: crashStart.UnixMilli() + c.atMs,
	}
}

// crashScript is the deterministic workload: repeats, denials,
// reinstates, fleet alerts and two cycle rolls, with group commits and
// a snapshot rotation at fixed points (see driveScript). Every input
// journals exactly one record: observes always do, each reinstate
// targets a source that is removed at that point in the script, and
// each alert carries a fresh (origin, seq) — the shadow pass asserts
// both.
func crashScript() []crashInput {
	var in []crashInput
	ms := int64(0)
	obs := func(src, dst uint32) {
		in = append(in, crashInput{src: src, dst: dst, atMs: ms})
		ms += 7
	}
	rei := func(src uint32) {
		in = append(in, crashInput{reinstate: true, src: src, atMs: ms})
		ms += 7
	}
	alr := func(origin, seq uint64, src uint32) {
		in = append(in, crashInput{alert: true, origin: origin, seq: seq, src: src, atMs: ms})
		ms += 7
	}
	// Cycle 0: host 1 burns its budget (dup dst 11 is free), is denied,
	// then reinstated; host 2 stays under. A peer alert removes host 4,
	// which this gateway has never observed.
	obs(1, 10)
	obs(1, 11)
	obs(1, 11)
	obs(1, 12)
	obs(2, 20)
	alr(100, 1, 4)
	obs(1, 13) // removal
	obs(1, 14) // denied
	rei(1)
	obs(1, 15)
	obs(2, 21)
	// Cycle 1 (ms has passed 500 by input ~10 at 7ms spacing? force it):
	ms = 600
	obs(3, 30)
	obs(1, 16)
	obs(1, 17)
	alr(100, 2, 2) // alert removal of a locally known, under-budget host
	obs(1, 18)
	obs(1, 19) // removal again, new cycle budget
	obs(2, 22) // denied via alert removal
	// Cycle 2:
	ms = 1100
	obs(1, 40)
	obs(2, 41) // allowed again: removal marks reset at the roll
	alr(200, 1, 5)
	obs(3, 42)
	obs(3, 43)
	return in
}

// driveScript applies the script to a store, issuing a group commit
// after every 5th input and a snapshot rotation after input 12. Fault
// errors are ignored: after a crash the in-memory limiter keeps
// working, exactly like a process that hasn't noticed its disk died.
func driveScript(s *Store, in []crashInput) {
	l := s.Limiter()
	for i, c := range in {
		switch {
		case c.reinstate:
			l.Reinstate(c.src)
		case c.alert:
			l.ApplyAlert(c.asAlert())
		default:
			l.Observe(c.src, c.dst, crashStart.Add(time.Duration(c.atMs)*time.Millisecond))
		}
		if (i+1)%5 == 0 {
			_ = s.Sync()
		}
		if i == 12 {
			_ = s.WriteSnapshot()
		}
	}
	_ = s.Sync()
}

// shadowStates returns states[j] = MarshalState after the first j
// journaled inputs, computed on a plain limiter with the same
// millisecond-aligned timeline the WAL stores.
func shadowStates(t *testing.T, in []crashInput) [][]byte {
	t.Helper()
	l, err := core.NewLimiter(crashCfg, crashStart)
	if err != nil {
		t.Fatal(err)
	}
	states := make([][]byte, 0, len(in)+1)
	snap := func() {
		b, err := l.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, b)
	}
	snap()
	for _, c := range in {
		switch {
		case c.reinstate:
			if !l.Reinstate(c.src) {
				t.Fatalf("script bug: reinstate of %d is a no-op and would not journal", c.src)
			}
		case c.alert:
			if !l.ApplyAlert(c.asAlert()) {
				t.Fatalf("script bug: alert (%d,%d) is a duplicate and would not journal", c.origin, c.seq)
			}
		default:
			l.Observe(c.src, c.dst, crashStart.Add(time.Duration(c.atMs)*time.Millisecond))
		}
		snap()
	}
	return states
}

// TestCrashAtEveryInjectionPoint is the tentpole invariant: for every
// filesystem operation the store performs, crash exactly there, tear
// the unsynced tails per the seeded schedule, recover — and the
// recovered state must equal the pre-crash state with a suffix of
// acknowledged inputs applied. Formally: recovered == states[j] for
// some j with acked ≤ j ≤ appended. j < acked would mean a durably
// acknowledged scan was refunded; j > appended would mean recovery
// invented scans.
func TestCrashAtEveryInjectionPoint(t *testing.T) {
	in := crashScript()
	states := shadowStates(t, in)

	for _, seed := range crashSeeds(t) {
		// Clean campaign: count the injectable operations.
		clean := faultfs.NewInjector(faultfs.Profile{}, seed)
		mem := faultfs.NewMem(clean)
		s, err := Open(Options{FS: mem}, crashCfg, crashStart)
		if err != nil {
			t.Fatalf("seed %d: clean Open: %v", seed, err)
		}
		driveScript(s, in)
		if err := s.Close(); err != nil {
			t.Fatalf("seed %d: clean Close: %v", seed, err)
		}
		nops := clean.Ops()
		if nops < 20 {
			t.Fatalf("seed %d: clean pass saw only %d injectable ops", seed, nops)
		}
		// The clean pass itself must land on the full state.
		if got := mustState(t, s.Limiter()); !bytes.Equal(got, states[len(in)]) {
			t.Fatalf("seed %d: clean final state diverges from shadow", seed)
		}

		for k := uint64(1); k <= nops; k++ {
			inj := faultfs.NewInjector(faultfs.Profile{}, seed)
			inj.SetCrashAt(k)
			mem := faultfs.NewMem(inj)

			var acked, appended uint64
			s, err := Open(Options{FS: mem}, crashCfg, crashStart)
			if err == nil {
				driveScript(s, in)
				// Attempt a graceful close too, so the sweep covers
				// crash points inside the final shutdown snapshot; the
				// injector schedule then spans exactly the clean
				// campaign's ops and the recovery below runs fault-free.
				_ = s.Close()
				acked, appended = s.Acked(), s.Appended()
			}
			// else: crashed inside Open before any input — acked =
			// appended = 0, and recovery must land on states[0].

			mem.Crash()
			mem.Reopen()

			r, err := Open(Options{FS: mem}, crashCfg, crashStart)
			if err != nil {
				t.Fatalf("seed %d crash@%d: recovery Open failed: %v\ntrace:\n%s",
					seed, k, err, inj.TraceString())
			}
			got := mustState(t, r.Limiter())
			j := -1
			for idx := range states {
				if bytes.Equal(states[idx], got) {
					j = idx
					break
				}
			}
			if j < 0 {
				t.Fatalf("seed %d crash@%d: recovered state matches no input prefix\nstate: %s",
					seed, k, got)
			}
			if uint64(j) < acked {
				t.Fatalf("seed %d crash@%d: recovered prefix %d < acked %d — durably acknowledged inputs were refunded",
					seed, k, j, acked)
			}
			if uint64(j) > appended {
				t.Fatalf("seed %d crash@%d: recovered prefix %d > appended %d — recovery invented inputs",
					seed, k, j, appended)
			}
		}
	}
}

// TestCrashWithShortWritesAndRecoveryChain layers probabilistic short
// writes on top of the crash sweep, and then runs a SECOND life (drive,
// crash again, recover again) to prove recovery output is itself
// crash-safe input.
func TestCrashWithShortWritesAndRecoveryChain(t *testing.T) {
	in := crashScript()
	states := shadowStates(t, in)
	profile := faultfs.Profile{ShortWrite: 0.05}

	for _, seed := range crashSeeds(t) {
		clean := faultfs.NewInjector(profile, seed)
		mem := faultfs.NewMem(clean)
		s, err := Open(Options{FS: mem}, crashCfg, crashStart)
		if err != nil {
			t.Fatalf("seed %d: clean Open: %v", seed, err)
		}
		driveScript(s, in)
		_ = s.Close()
		nops := clean.Ops()

		// Sample every 3rd crash point (the exhaustive sweep runs in the
		// plain-crash test); at each, recover, then crash the recovered
		// store mid-drive a second time and recover again.
		for k := uint64(1); k <= nops; k += 3 {
			inj := faultfs.NewInjector(profile, seed)
			inj.SetCrashAt(k)
			mem := faultfs.NewMem(inj)
			s, err := Open(Options{FS: mem}, crashCfg, crashStart)
			if err == nil {
				driveScript(s, in)
				_ = s.Close()
			}
			mem.Crash()
			mem.Reopen()

			r, err := Open(Options{FS: mem}, crashCfg, crashStart)
			if err != nil {
				t.Fatalf("seed %d crash@%d: first recovery failed: %v", seed, k, err)
			}
			j := matchPrefix(states, mustState(t, r.Limiter()))
			if j < 0 {
				t.Fatalf("seed %d crash@%d: first recovery matches no prefix", seed, k)
			}

			// Second life: crash shortly after recovery. Whether the
			// recovery resumed its generation or published a new one,
			// the second life's records must come back as the sweep's
			// invariant says: the first life's prefix j, then a prefix
			// of the second life's journaled inputs between acked and
			// appended.
			second := shadowFrom(t, states[j], in[:6])
			inj.SetCrashAt(inj.Ops() + 5)
			driveScript(r, in[:6])
			_ = r.Close()
			acked, appended := r.Acked(), r.Appended()
			mem.Crash()
			mem.Reopen()
			r2, err := Open(Options{FS: mem}, crashCfg, crashStart)
			if err != nil {
				// The scheduled crash can outlive the short second drive
				// and fire during this very Open — a crash mid-startup.
				// The startup after THAT must succeed.
				mem.Crash()
				mem.Reopen()
				if r2, err = Open(Options{FS: mem}, crashCfg, crashStart); err != nil {
					t.Fatalf("seed %d crash@%d: second recovery failed twice: %v", seed, k, err)
				}
			}
			i := matchPrefix(second, mustState(t, r2.Limiter()))
			switch {
			case i < 0:
				t.Fatalf("seed %d crash@%d: second recovery matches no prefix of the second life on top of prefix %d",
					seed, k, j)
			case uint64(i) < acked:
				t.Fatalf("seed %d crash@%d: second recovery at second-life prefix %d < acked %d — acknowledged inputs were refunded",
					seed, k, i, acked)
			case uint64(i) > appended:
				t.Fatalf("seed %d crash@%d: second recovery at second-life prefix %d > appended %d — recovery invented inputs",
					seed, k, i, appended)
			}
		}
	}
}

// shadowFrom returns states[i] = MarshalState after the first i
// journaled inputs of in, applied to the limiter base restores to. An
// input the limiter takes without a record (a duplicate alert, a
// reinstate of a host that is not removed) adds no state.
func shadowFrom(t *testing.T, base []byte, in []crashInput) [][]byte {
	t.Helper()
	l, err := core.RestoreLimiter(base)
	if err != nil {
		t.Fatal(err)
	}
	states := [][]byte{base}
	for _, c := range in {
		journaled := true
		switch {
		case c.reinstate:
			journaled = l.Reinstate(c.src)
		case c.alert:
			journaled = l.ApplyAlert(c.asAlert())
		default:
			l.Observe(c.src, c.dst, crashStart.Add(time.Duration(c.atMs)*time.Millisecond))
		}
		if journaled {
			states = append(states, mustState(t, l))
		}
	}
	return states
}

func matchPrefix(states [][]byte, got []byte) int {
	for idx := range states {
		if bytes.Equal(states[idx], got) {
			return idx
		}
	}
	return -1
}

// TestCrashRecoveredStoreReservesAlerts pins the fleet-facing recovery
// contract: after a crash, the reopened store re-serves exactly the
// alerts it had durably applied — the ledger peers sync digests
// against — rejects them as duplicates, and does not refund the
// removals they caused.
func TestCrashRecoveredStoreReservesAlerts(t *testing.T) {
	in := crashScript()
	for _, seed := range crashSeeds(t) {
		inj := faultfs.NewInjector(faultfs.Profile{}, seed)
		mem := faultfs.NewMem(inj)
		s, err := Open(Options{FS: mem}, crashCfg, crashStart)
		if err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		driveScript(s, in)
		want := s.Limiter().Alerts()
		if len(want) != 3 {
			t.Fatalf("seed %d: script applied %d alerts, want 3", seed, len(want))
		}

		// driveScript ends with a Sync, so every alert is durable; the
		// crash tears only state written after that point.
		mem.Crash()
		mem.Reopen()
		r, err := Open(Options{FS: mem}, crashCfg, crashStart)
		if err != nil {
			t.Fatalf("seed %d: recovery Open: %v", seed, err)
		}
		got := r.Limiter().Alerts()
		if len(got) != len(want) {
			t.Fatalf("seed %d: recovered %d alerts, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: alert %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
		before := r.Limiter().Snapshot()
		for _, c := range in {
			if !c.alert {
				continue
			}
			if r.Limiter().ApplyAlert(c.asAlert()) {
				t.Fatalf("seed %d: recovered store re-applied alert (%d,%d)", seed, c.origin, c.seq)
			}
		}
		after := r.Limiter().Snapshot()
		if after.AlertRemovals != before.AlertRemovals {
			t.Fatalf("seed %d: duplicate alerts changed removal count %d → %d",
				seed, before.AlertRemovals, after.AlertRemovals)
		}
		// Host 5 was alert-removed in the final cycle: the removal itself
		// must survive recovery, not just the ledger entry.
		end := crashStart.Add(time.Duration(in[len(in)-1].atMs) * time.Millisecond)
		if !r.Limiter().RemovedAt(5, end) {
			t.Fatalf("seed %d: recovery refunded the alert removal of host 5", seed)
		}
	}
}

// TestCrashRecoveryNeverFailsOnCorruptTail doubles down on the
// acceptance criterion "never a failed startup": aggressive bit
// corruption on the torn tail across many seeds, recovery must always
// succeed and truncation must always be accounted.
func TestCrashRecoveryNeverFailsOnCorruptTail(t *testing.T) {
	in := crashScript()
	for seed := uint64(1); seed <= 64; seed++ {
		inj := faultfs.NewInjector(faultfs.Profile{}, seed)
		mem := faultfs.NewMem(inj)
		s, err := Open(Options{FS: mem}, crashCfg, crashStart)
		if err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		driveScript(s, in)
		// Crash with unsynced data in flight (no trailing Sync happened
		// after the last partial batch — add some unflushed records).
		s.Limiter().Observe(9, 90, crashStart.Add(2*time.Second))
		mem.Crash()
		mem.Reopen()
		r, err := Open(Options{FS: mem}, crashCfg, crashStart)
		if err != nil {
			t.Fatalf("seed %d: recovery failed on torn/corrupt tail: %v", seed, err)
		}
		_ = r
	}
}
