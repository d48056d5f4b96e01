package fleet

import (
	"bytes"
	"os"
	"strconv"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/durable"
	"wormcontain/internal/faultfs"
)

// fleetCrashSeed mirrors the durable crash suite's convention:
// WORMGATE_CRASH_SEED selects the fault schedule, default 1.
func fleetCrashSeed(t *testing.T) uint64 {
	t.Helper()
	s := os.Getenv("WORMGATE_CRASH_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("WORMGATE_CRASH_SEED=%q: %v", s, err)
	}
	t.Logf("crash seed %d", v)
	return v
}

// TestCrashFleetPeerRestartsFromWALAndReservesAlerts kills a fleet
// peer mid-gossip — after it durably received an alert but before the
// rest of the fleet has it — restarts it from its WAL, and requires the
// restarted peer to (a) still enforce the removal, (b) reject the alert
// as a duplicate without double-counting its removal, and (c) re-serve
// the alert to late peers over digest sync, so a crash never silently
// un-immunizes part of the fleet.
func TestCrashFleetPeerRestartsFromWALAndReservesAlerts(t *testing.T) {
	seed := fleetCrashSeed(t)
	members := ringMembers(3)
	a, b, c := members[0], members[1], members[2]
	tr := NewMemTransport()

	newMemNode := func(self string, lim core.AlertDecider) *Node {
		t.Helper()
		node, err := NewNode(Config{
			Self: self, Peers: members, Local: lim,
			Transport: tr.For(self), Seed: seed,
			Now: func() time.Time { return fleetTestStart },
		})
		if err != nil {
			t.Fatal(err)
		}
		tr.Attach(node)
		return node
	}
	limA, err := core.NewLimiter(fleetTestCfg, fleetTestStart)
	if err != nil {
		t.Fatal(err)
	}
	limC, err := core.NewLimiter(fleetTestCfg, fleetTestStart)
	if err != nil {
		t.Fatal(err)
	}
	nodeA := newMemNode(a, limA)
	nodeC := newMemNode(c, limC)

	// B's limiter lives behind a durable store on a crashable in-memory
	// filesystem; Open attaches the store as the limiter's journal, so
	// every alert B accepts lands in its WAL.
	mem := faultfs.NewMem(faultfs.NewInjector(faultfs.Profile{}, seed))
	store, err := durable.Open(durable.Options{FS: mem}, fleetTestCfg, fleetTestStart)
	if err != nil {
		t.Fatal(err)
	}
	nodeB := newMemNode(b, store.Limiter())

	// Partition C away so the gossip is genuinely mid-flight when B
	// dies: A originates, B hears it, C does not.
	tr.partition([]string{a, b}, []string{c})
	src := srcOwnedBy(nodeA.Ring(), a, 0)
	removeVia(nodeA, src, fleetTestStart)
	for r := 0; r < 10 && !nodeB.Removed(src); r++ {
		nodeA.PushTick()
	}
	if !nodeB.Removed(src) {
		t.Fatal("B never received the alert before the crash")
	}
	want := immunizationSet(t, nodeB)
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}

	// Kill B: lose everything not fsynced, then restart from the WAL.
	mem.Crash()
	mem.Reopen()
	store2, err := durable.Open(durable.Options{FS: mem}, fleetTestCfg, fleetTestStart)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	nodeB2 := newMemNode(b, store2.Limiter())

	if got := immunizationSet(t, nodeB2); !bytes.Equal(got, want) {
		t.Fatalf("restarted ledger = %x, want %x", got, want)
	}
	if !nodeB2.Removed(src) {
		t.Fatal("crash refunded the removal")
	}
	if got := nodeB2.Observe(src, 424242, fleetTestStart.Add(time.Second)); got != core.Deny {
		t.Fatalf("restarted B allows removed source: %v", got)
	}
	// Restored alerts must not re-enter the push outbox (digest sync
	// re-serves them) and must still dedup.
	if got := nodeB2.pendingPushes(); got != 0 {
		t.Fatalf("restored ledger queued %d pushes, want 0", got)
	}
	alerts := nodeB2.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("restarted ledger has %d alerts, want 1", len(alerts))
	}
	before := store2.Limiter().Snapshot().AlertRemovals
	if nodeB2.applyAlert(alerts[0]) {
		t.Fatal("restarted B accepted a duplicate alert")
	}
	if after := store2.Limiter().Snapshot().AlertRemovals; after != before {
		t.Fatalf("duplicate alert changed AlertRemovals %d -> %d", before, after)
	}

	// Heal only B<->C: the restarted peer is C's sole reachable source
	// of the alert, so convergence proves B2 re-serves from the WAL.
	tr.partition([]string{b, c}, []string{a})
	for r := 0; r < 6 && !nodeC.Removed(src); r++ {
		nodeC.syncTick()
	}
	if !nodeC.Removed(src) {
		t.Fatal("late peer never caught up from the restarted peer's ledger")
	}
	if got := immunizationSet(t, nodeC); !bytes.Equal(got, want) {
		t.Fatalf("late peer ledger = %x, want %x", got, want)
	}
}
