package fleet

import (
	"bytes"
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/faultnet"
)

// chaosSeed mirrors the gateway chaos suite's convention: CI sweeps
// WORMGATE_CHAOS_SEED, local runs default to 1.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	s := os.Getenv("WORMGATE_CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("WORMGATE_CHAOS_SEED=%q: %v", s, err)
	}
	t.Logf("chaos seed %d", v)
	return v
}

// immunizationSet serializes a node's alert ledger with the wire
// encoding — the canonical byte form the convergence assertions
// compare. Full MarshalState cannot be compared across peers (each
// shard sees a different observation stream); the alert ledger is the
// state gossip is contractually obliged to converge.
func immunizationSet(t *testing.T, n *Node) []byte {
	t.Helper()
	return appendAlertsFrame(nil, n.Alerts())
}

// chaosFleet is a TCP fleet whose every dial passes a partition gate
// and then a faultnet injector, so links both hard-partition and
// probabilistically misbehave.
type chaosFleet struct {
	members []string
	nodes   []*Node
	servers []*Server
	trs     []*TCPTransport
	// partitioned maps member → group; 0 means unpartitioned.
	groups atomic.Value // map[string]int
}

// partition splits the fleet; heal with partition() (no groups).
func (f *chaosFleet) partition(groups ...[]string) {
	g := make(map[string]int)
	for gi, members := range groups {
		for _, m := range members {
			g[m] = gi + 1
		}
	}
	f.groups.Store(g)
}

// newChaosFleet builds n members over loopback TCP. Each member's
// dialer refuses cross-partition dials and then rides through its own
// fault injector.
func newChaosFleet(t *testing.T, n int, seed uint64, profile faultnet.Profile) *chaosFleet {
	t.Helper()
	f := &chaosFleet{}
	f.groups.Store(map[string]int{})

	lns := make([]net.Listener, n)
	f.members = make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		f.members[i] = ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		lim, err := core.NewLimiter(fleetTestCfg, fleetTestStart)
		if err != nil {
			t.Fatal(err)
		}
		inj := faultnet.New(profile, seed+uint64(i)*1000)
		inj.SetSleep(func(time.Duration) {}) // stalls must not slow the suite
		self := f.members[i]
		base := func(network, address string) (net.Conn, error) {
			return net.DialTimeout(network, address, 2*time.Second)
		}
		gated := func(network, address string) (net.Conn, error) {
			g := f.groups.Load().(map[string]int)
			if len(g) > 0 && g[self] != g[address] {
				return nil, errPartitioned
			}
			return base(network, address)
		}
		tr := NewTCPTransport(TCPOptions{Dial: inj.Dial(gated), Timeout: 2 * time.Second})
		node, err := NewNode(Config{
			Self: self, Peers: f.members, Local: lim,
			Transport: tr, Seed: seed,
			Now: func() time.Time { return fleetTestStart },
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServerWith(node, lns[i])
		go func() { _ = srv.Serve() }()
		f.nodes = append(f.nodes, node)
		f.servers = append(f.servers, srv)
		f.trs = append(f.trs, tr)
	}
	t.Cleanup(func() {
		for _, tr := range f.trs {
			tr.Close()
		}
		for _, s := range f.servers {
			s.Shutdown()
		}
	})
	return f
}

// converged reports whether every node's immunization set equals the
// reference node's.
func (f *chaosFleet) converged(t *testing.T) bool {
	t.Helper()
	want := immunizationSet(t, f.nodes[0])
	for _, n := range f.nodes[1:] {
		if !bytes.Equal(immunizationSet(t, n), want) {
			return false
		}
	}
	return len(f.nodes[0].Alerts()) > 0
}

// TestChaosFleetPartitionHealsToIdenticalLedgers is the fleet's
// headline chaos property: originate removals on both sides of a
// partition while every link also suffers seeded dial failures and
// stalls, then heal — and every peer must converge to the byte-
// identical immunization set, with no removal refunded anywhere.
func TestChaosFleetPartitionHealsToIdenticalLedgers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short")
	}
	seed := chaosSeed(t)
	profile := faultnet.Profile{DialFail: 0.15, Stall: 0.05, StallFor: time.Millisecond}
	const n = 4
	f := newChaosFleet(t, n, seed, profile)

	// Split 2|2 and originate one removal on each side, driven through
	// a same-side entry node so the forward path works mid-partition.
	sideA := []string{f.members[0], f.members[1]}
	sideB := []string{f.members[2], f.members[3]}
	f.partition(sideA, sideB)

	// Injected dial failures can fragment each source's budget between
	// the entry node (fallback-local counting) and the owner, so drive
	// 4·M distinct destinations: whichever shard accumulated them, at
	// least one crosses M and originates.
	driveRemoval := func(entry *Node, src, base uint32) {
		m := uint32(fleetTestCfg.M)
		for d := uint32(0); d < 4*m; d++ {
			entry.Observe(src, base+d, fleetTestStart)
		}
	}
	ownerA := f.nodes[0]
	srcA := srcOwnedBy(ownerA.Ring(), ownerA.self(), 0)
	driveRemoval(f.nodes[1], srcA, 20_000)

	ownerB := f.nodes[2]
	srcB := srcOwnedBy(ownerB.Ring(), ownerB.self(), 10_000)
	driveRemoval(f.nodes[3], srcB, 30_000)

	// Gossip under partition: alerts may cross same-side links (with
	// injected faults), never the partition.
	for r := 0; r < 2*pushRounds(n); r++ {
		for _, node := range f.nodes {
			node.PushTick()
		}
	}
	for _, node := range f.nodes[:2] {
		if node.Removed(srcB) {
			t.Fatalf("%s learned a cross-partition alert", node.self())
		}
	}

	// Heal, then keep ticking push + sync until every ledger is
	// byte-identical. Injected dial failures keep firing, so allow a
	// generous bound — determinism of the FINAL state, not the path,
	// is the contract.
	f.partition()
	deadline := 400
	for r := 0; r < deadline && !f.converged(t); r++ {
		for _, node := range f.nodes {
			node.PushTick()
			node.syncTick()
		}
	}
	if !f.converged(t) {
		t.Fatalf("fleet did not converge within %d healed rounds", deadline)
	}
	for i, node := range f.nodes {
		// At least one alert per side; near-simultaneous origination at
		// entry and owner can legally add more. Byte-equality above is
		// the real contract.
		if got := len(node.Alerts()); got < 2 {
			t.Fatalf("node %d ledger has %d alerts, want >= 2", i, got)
		}
		if !node.Removed(srcA) || !node.Removed(srcB) {
			t.Fatalf("node %d refunded a removal after heal", i)
		}
		if got := node.Observe(srcA, 424242, fleetTestStart.Add(time.Minute)); got != core.Deny {
			t.Fatalf("node %d: post-heal observe of removed src = %v, want Deny", i, got)
		}
	}
}

// TestChaosFleetForwardFallbackKeepsContaining drives observations
// through nodes whose owner links are fault-injected hard enough that
// many forwards fail: the fleet must keep containing (every source
// driven past budget ends up denied at its entry node) even though the
// budget fragments across shards during the faults.
func TestChaosFleetForwardFallbackKeepsContaining(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short")
	}
	seed := chaosSeed(t)
	profile := faultnet.Profile{DialFail: 0.5}
	f := newChaosFleet(t, 2, seed, profile)

	entry := f.nodes[1]
	owner := f.nodes[0]
	src := srcOwnedBy(owner.Ring(), owner.self(), 0)
	// Drive 4·M distinct destinations from the non-owner. Every
	// observation lands on exactly one counter (owner on forward,
	// entry on fallback), so by pigeonhole one shard crosses M and
	// removes the source — whatever the fault schedule did.
	m := uint32(fleetTestCfg.M)
	for d := uint32(0); d < 4*m; d++ {
		entry.Observe(src, 10_000+d, fleetTestStart)
	}
	if !owner.Removed(src) && !entry.Removed(src) {
		t.Fatal("no shard removed the source")
	}
	// The removal's alert rides gossip over the same faulty links;
	// once it lands, the entry node denies locally.
	for r := 0; r < 100 && !entry.Removed(src); r++ {
		owner.PushTick()
		entry.PushTick()
	}
	if got := entry.Observe(src, 99_999, fleetTestStart.Add(time.Second)); got != core.Deny {
		t.Fatalf("entry observe after alert = %v, want Deny", got)
	}
}
