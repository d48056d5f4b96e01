package fleet

import (
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/durable"
	"wormcontain/internal/faultfs"
	"wormcontain/internal/rng"
)

// oracleFleet is a fleet over healthy in-memory links checked against
// one core.Limiter fed the same merged stream: with no link down, every
// source's observations reach its ring owner in stream order, so the
// fleet must decide every observation as the one limiter does.
type oracleFleet struct {
	t     *testing.T
	tr    *MemTransport
	ref   *core.Limiter
	clock time.Time // every node's Now: the time of the last observation
}

func newOracleFleet(t *testing.T) *oracleFleet {
	t.Helper()
	ref, err := core.NewLimiter(fleetTestCfg, fleetTestStart)
	if err != nil {
		t.Fatal(err)
	}
	return &oracleFleet{t: t, tr: NewMemTransport(), ref: ref, clock: fleetTestStart}
}

// join builds self's node over lim and attaches it, replacing any node
// of that name.
func (f *oracleFleet) join(self string, members []string, lim core.AlertDecider, seed uint64) *Node {
	f.t.Helper()
	n, err := NewNode(Config{
		Self: self, Peers: members, Local: lim,
		Transport: f.tr.For(self), Seed: seed,
		Now: func() time.Time { return f.clock },
	})
	if err != nil {
		f.t.Fatal(err)
	}
	f.tr.Attach(n)
	return n
}

// observe feeds one observation to the fleet through entry and to the
// reference, and fails on a verdict that differs.
func (f *oracleFleet) observe(entry *Node, src, dst uint32, at time.Time) {
	f.t.Helper()
	f.clock = at
	if got, want := entry.Observe(src, dst, at), f.ref.Observe(src, dst, at); got != want {
		f.t.Fatalf("%s: Observe(%d, %d) at cycle %d = %v, one limiter says %v",
			entry.self(), src, dst, int(at.Sub(fleetTestStart)/fleetTestCfg.Cycle), got, want)
	}
}

// gossip runs rounds of push and anti-entropy on every node.
func (f *oracleFleet) gossip(nodes []*Node, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, n := range nodes {
			n.PushTick()
			n.syncTick()
		}
	}
}

// checkRemovedSet requires every node to hold exactly the reference's
// removals at the last observation's time.
func (f *oracleFleet) checkRemovedSet(nodes []*Node, srcs []uint32) {
	f.t.Helper()
	for _, src := range srcs {
		want := f.ref.Removed(src)
		for _, n := range nodes {
			if got := n.Removed(src); got != want {
				f.t.Fatalf("%s: source %d removed %v at the end, one limiter says %v", n.self(), src, got, want)
			}
		}
	}
}

// TestFleetMatchesOneLimiter feeds an interleaved stream through random
// entry nodes of 2- and 4-member fleets, gossiping between batches, and
// requires every verdict and the final removed set to equal one
// limiter's. The stream spans three containment cycles, and its
// scanners keep scanning after their removal, so an alert that outlived
// the cycle it was raised in, or took effect in a later cycle than that
// one, would deny where the one limiter allows.
func TestFleetMatchesOneLimiter(t *testing.T) {
	for _, size := range []int{2, 4} {
		for _, seed := range []uint64{1, 7, 1905} {
			f := newOracleFleet(t)
			members := ringMembers(size)
			nodes := make([]*Node, size)
			for i, self := range members {
				lim, err := core.NewLimiter(fleetTestCfg, fleetTestStart)
				if err != nil {
					t.Fatal(err)
				}
				nodes[i] = f.join(self, members, lim, seed)
			}
			// Sources 1–24 scan fresh destinations; 25–48 revisit
			// three, which reaches f·M but never M. At about four
			// observations a source per cycle, many removals fall late
			// in a cycle, and their alerts reach some members only
			// after those members have rolled into the next one.
			var srcs []uint32
			for s := uint32(1); s <= 48; s++ {
				srcs = append(srcs, s)
			}
			r := rng.NewPCG64(seed, uint64(size))
			at := fleetTestStart
			const batch, batches = 12, 50
			for b := 0; b < batches; b++ {
				for i := 0; i < batch; i++ {
					at = at.Add(time.Duration(rng.Intn(r, 30)) * time.Second)
					src := srcs[rng.Intn(r, len(srcs))]
					dst := 1000*src + uint32(rng.Intn(r, 3))
					if src <= 24 {
						dst = 1000*src + uint32(rng.Intn(r, 1000))
					}
					f.observe(nodes[rng.Intn(r, size)], src, dst, at)
				}
				f.gossip(nodes, 1)
			}
			if cycles := at.Sub(fleetTestStart) / fleetTestCfg.Cycle; cycles < 1 {
				t.Fatalf("size %d seed %d: the stream ends in its first cycle", size, seed)
			}
			f.gossip(nodes, 2*pushRounds(size))
			f.checkRemovedSet(nodes, srcs)
		}
	}
}

// TestFleetMatchesOneLimiterAcrossCrashRestart restarts a durable-backed
// member that had journaled two removals of the last cycle, one of its
// own and one from a peer's alert, and requires the restarted member to
// decide the new cycle as one limiter does: the recovered alerts expired
// with the cycle they were raised in, so neither source is denied until
// it runs out of budget again.
func TestFleetMatchesOneLimiterAcrossCrashRestart(t *testing.T) {
	seed := fleetCrashSeed(t)
	f := newOracleFleet(t)
	members := ringMembers(2)
	a, b := members[0], members[1]
	limA, err := core.NewLimiter(fleetTestCfg, fleetTestStart)
	if err != nil {
		t.Fatal(err)
	}
	nodeA := f.join(a, members, limA, seed)
	mem := faultfs.NewMem(faultfs.NewInjector(faultfs.Profile{}, seed))
	store, err := durable.Open(durable.Options{FS: mem}, fleetTestCfg, fleetTestStart)
	if err != nil {
		t.Fatal(err)
	}
	nodeB := f.join(b, members, store.Limiter(), seed)

	srcA := srcOwnedBy(nodeA.Ring(), a, 0)
	srcB := srcOwnedBy(nodeA.Ring(), b, 0)
	m := uint32(fleetTestCfg.M)
	at := fleetTestStart.Add(time.Minute)
	for d := uint32(0); d <= m; d++ {
		f.observe(nodeA, srcA, 100+d, at)
		f.observe(nodeA, srcB, 200+d, at)
	}
	f.gossip([]*Node{nodeA, nodeB}, pushRounds(2))
	if !nodeB.Removed(srcA) || !nodeB.Removed(srcB) {
		t.Fatal("B did not hold both removals before the crash")
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}

	mem.Crash()
	mem.Reopen()
	store2, err := durable.Open(durable.Options{FS: mem}, fleetTestCfg, fleetTestStart)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	nodeB2 := f.join(b, members, store2.Limiter(), seed)
	if got := len(nodeB2.Alerts()); got != 2 {
		t.Fatalf("restarted B recovered %d alerts, want 2", got)
	}
	if !nodeB2.Removed(srcA) || !nodeB2.Removed(srcB) {
		t.Fatal("restarted B refunded a removal of the cycle it recovered into")
	}

	// The next cycle, through the restarted member: budgets are fresh,
	// and the second exhaustion removes both sources again.
	at = fleetTestStart.Add(fleetTestCfg.Cycle + time.Minute)
	for d := uint32(0); d <= m+1; d++ {
		f.observe(nodeB2, srcA, 300+d, at)
		f.observe(nodeB2, srcB, 400+d, at)
	}
	nodes := []*Node{nodeA, nodeB2}
	f.gossip(nodes, 2*pushRounds(2))
	f.checkRemovedSet(nodes, []uint32{srcA, srcB})
	if got := len(nodeB2.Alerts()); got != 4 {
		t.Fatalf("restarted B holds %d alerts after the second removals, want 4", got)
	}
}
