package fleet

import (
	"net"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/telemetry"
)

var fleetTestCfg = core.LimiterConfig{M: 3, Cycle: time.Hour, CheckFraction: 0.5}

var fleetTestStart = time.UnixMilli(1_800_000_000_000).UTC()

// memFleet builds an n-member fleet wired through one MemTransport.
func memFleet(t *testing.T, n int, seed uint64) ([]*Node, *MemTransport) {
	t.Helper()
	members := ringMembers(n)
	tr := NewMemTransport()
	nodes := make([]*Node, n)
	for i, self := range members {
		lim, err := core.NewLimiter(fleetTestCfg, fleetTestStart)
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(Config{
			Self:      self,
			Peers:     members,
			Local:     lim,
			Transport: tr.For(self),
			Seed:      seed,
			Now:       func() time.Time { return fleetTestStart },
		})
		if err != nil {
			t.Fatal(err)
		}
		tr.Attach(node)
		nodes[i] = node
	}
	return nodes, tr
}

// nodeFor returns the fleet node whose member name is name.
func nodeFor(t *testing.T, nodes []*Node, name string) *Node {
	t.Helper()
	for _, n := range nodes {
		if n.self() == name {
			return n
		}
	}
	t.Fatalf("no node named %q", name)
	return nil
}

// distinct is src's distinct-destination count on n's local limiter,
// which every fleet in these tests builds as the exact backend.
func distinct(n *Node, src uint32) int {
	return n.local.(*core.Limiter).DistinctCount(src)
}

// srcOwnedBy finds a source the given member owns, scanning up from
// `from`.
func srcOwnedBy(r *Ring, member string, from uint32) uint32 {
	for src := from; ; src++ {
		if r.Owner(src) == member {
			return src
		}
	}
}

// removeVia drives src past its scan budget through entry, which routes
// every observation to the ring owner.
func removeVia(entry *Node, src uint32, at time.Time) {
	m := uint32(fleetTestCfg.M)
	for d := uint32(0); d <= m; d++ {
		entry.Observe(src, 100_000+d, at)
	}
}

func TestNodeValidation(t *testing.T) {
	lim, err := core.NewLimiter(fleetTestCfg, fleetTestStart)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no limiter", Config{Self: "a", Peers: []string{"a"}}},
		{"no self", Config{Peers: []string{"a"}, Local: lim}},
		{"self not a peer", Config{Self: "x", Peers: []string{"a", "b"}, Local: lim, Transport: NewMemTransport().For("x")}},
		{"negative vnodes", Config{Self: "a", Peers: []string{"a"}, Local: lim, Vnodes: -1}},
		{"negative fanout", Config{Self: "a", Peers: []string{"a"}, Local: lim, Fanout: -1}},
		{"multi-member without transport", Config{Self: "a", Peers: []string{"a", "b"}, Local: lim}},
	}
	for _, tc := range cases {
		if _, err := NewNode(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// A singleton fleet needs no transport.
	if _, err := NewNode(Config{Self: "a", Peers: []string{"a"}, Local: lim}); err != nil {
		t.Fatalf("singleton fleet rejected: %v", err)
	}
}

func TestNodeOwnershipRouting(t *testing.T) {
	nodes, _ := memFleet(t, 2, 1)
	owner := nodes[0]
	other := nodes[1]
	src := srcOwnedBy(owner.Ring(), owner.self(), 0)

	// Observing through the non-owner must count on the owner's shard.
	if got := other.Observe(src, 1, fleetTestStart); got != core.Allow {
		t.Fatalf("forwarded observe = %v, want Allow", got)
	}
	if got := distinct(owner, src); got != 1 {
		t.Fatalf("owner distinct count = %d, want 1", got)
	}
	if got := distinct(other, src); got != 0 {
		t.Fatalf("non-owner counted a forwarded observation locally: %d", got)
	}
	// Budget semantics span entry points: two more distinct dsts via
	// either node exhaust M=3, and the fourth denies regardless of
	// which gateway the scan egresses through.
	owner.Observe(src, 2, fleetTestStart)
	other.Observe(src, 3, fleetTestStart)
	if got := other.Observe(src, 4, fleetTestStart); got != core.Deny {
		t.Fatalf("over-budget forwarded observe = %v, want Deny", got)
	}
}

func TestNodeRemovalOriginatesAndPropagates(t *testing.T) {
	const n = 8
	nodes, _ := memFleet(t, n, 7)
	owner := nodes[3]
	src := srcOwnedBy(owner.Ring(), owner.self(), 500)

	// Drive the removal through a different entry node: forward path +
	// origination at the owner.
	entry := nodes[4]
	removeVia(entry, src, fleetTestStart)
	if !owner.Removed(src) {
		t.Fatal("owner did not remove the over-budget source")
	}
	if owner.pendingPushes() == 0 {
		t.Fatal("owner originated no alert")
	}

	// Push-gossip rounds: every node ticks once per round. The alert
	// must cover the whole fleet within the O(log N · fanout) budget.
	budget := pushRounds(n)
	covered := func() int {
		c := 0
		for _, node := range nodes {
			if node.Removed(src) {
				c++
			}
		}
		return c
	}
	rounds := 0
	for ; covered() < n && rounds < budget; rounds++ {
		for _, node := range nodes {
			node.PushTick()
		}
	}
	if covered() != n {
		t.Fatalf("alert covered %d/%d nodes after %d rounds (budget %d)", covered(), n, rounds, budget)
	}
	t.Logf("fleet of %d converged in %d rounds (budget %d)", n, rounds, budget)

	// Immunization: every node now denies the source locally, without
	// the owner in the loop.
	for i, node := range nodes {
		if got := node.Observe(src, 999, fleetTestStart.Add(time.Second)); got != core.Deny {
			t.Fatalf("node %d: post-alert observe = %v, want Deny", i, got)
		}
	}
	// Exactly one ledger entry fleet-wide for this removal.
	for i, node := range nodes {
		if alerts := node.Alerts(); len(alerts) != 1 || alerts[0].Src != src {
			t.Fatalf("node %d: ledger = %+v, want the single alert for src %d", i, alerts, src)
		}
	}
}

func TestNodeForwardFallbackOnError(t *testing.T) {
	nodes, tr := memFleet(t, 2, 1)
	owner, other := nodes[0], nodes[1]
	src := srcOwnedBy(owner.Ring(), owner.self(), 0)

	tr.partition([]string{owner.self()}, []string{other.self()})
	// Forward fails → the non-owner counts locally so containment
	// continues, fragmented, exactly like the pre-fleet deployment.
	for d := uint32(0); d <= 3; d++ {
		other.Observe(src, d, fleetTestStart)
	}
	if got := distinct(other, src); got != 3 {
		t.Fatalf("fallback distinct count = %d, want 3 (the over-budget dst is denied, not counted)", got)
	}
	if !other.Removed(src) {
		t.Fatal("fallback counting did not remove the source")
	}
	if distinct(owner, src) != 0 {
		t.Fatal("partitioned owner saw forwarded observations")
	}
	if other.PeersUp() != 0 {
		t.Fatalf("PeersUp = %d during total partition, want 0", other.PeersUp())
	}
}

func TestNodeDigestSyncConverges(t *testing.T) {
	const n = 4
	nodes, tr := memFleet(t, n, 1905)
	// Partition one node away, originate on the majority side, and burn
	// every push budget while the partition holds.
	isolated := nodes[0]
	rest := make([]string, 0, n-1)
	for _, node := range nodes[1:] {
		rest = append(rest, node.self())
	}
	tr.partition([]string{isolated.self()}, rest)

	owner := nodes[1]
	src := srcOwnedBy(owner.Ring(), owner.self(), 0)
	removeVia(owner, src, fleetTestStart)
	for r := 0; r < 2*pushRounds(n); r++ {
		for _, node := range nodes {
			node.PushTick()
		}
	}
	if isolated.Removed(src) {
		t.Fatal("alert crossed the partition")
	}
	for _, node := range nodes[1:] {
		if !node.Removed(src) {
			t.Fatalf("majority-side node %s missed the alert", node.self())
		}
	}

	// Heal. Push budgets are spent; only anti-entropy can repair.
	tr.heal()
	for r := 0; r < n && !isolated.Removed(src); r++ {
		isolated.syncTick()
	}
	if !isolated.Removed(src) {
		t.Fatal("digest sync did not deliver the missed alert after heal")
	}
	if len(isolated.Alerts()) != 1 {
		t.Fatalf("isolated ledger = %d entries, want 1", len(isolated.Alerts()))
	}
}

func TestNodeAlertDedupAndMetrics(t *testing.T) {
	members := []string{"a", "b"}
	tr := NewMemTransport()
	lim, err := core.NewLimiter(fleetTestCfg, fleetTestStart)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	node, err := NewNode(Config{
		Self: "a", Peers: members, Local: lim,
		Transport: tr.For("a"), Metrics: reg,
		Now: func() time.Time { return fleetTestStart.Add(time.Second) },
	})
	if err != nil {
		t.Fatal(err)
	}
	a := core.Alert{Origin: 2, Seq: 1, Src: 77, UnixMs: fleetTestStart.UnixMilli()}
	if !node.applyAlert(a) {
		t.Fatal("fresh alert rejected")
	}
	if node.applyAlert(a) {
		t.Fatal("duplicate alert accepted")
	}
	snap := reg.Snapshot()
	if v, _ := snap.Value("wormgate_fleet_alerts_dup_total"); v != 1 {
		t.Fatalf("dup counter = %v, want 1", v)
	}
	f := snap.Family("wormgate_fleet_alert_propagation_seconds")
	if f == nil || len(f.Series) == 0 || f.Series[0].Histogram == nil || f.Series[0].Histogram.Count != 1 {
		t.Fatal("propagation histogram did not record the remote alert")
	}
	if v, _ := snap.Value("wormgate_fleet_peers_up"); v != 1 {
		t.Fatalf("peers_up = %v, want 1", v)
	}
}

func TestNodeRestoredLedgerResumesSequence(t *testing.T) {
	members := []string{"a", "b"}
	tr := NewMemTransport()
	lim, err := core.NewLimiter(fleetTestCfg, fleetTestStart)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(l core.AlertDecider) *Node {
		n, err := NewNode(Config{
			Self: "a", Peers: members, Local: l,
			Transport: tr.For("a"), Seed: 9,
			Now: func() time.Time { return fleetTestStart },
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n1 := mk(lim)
	// Originate two alerts from "a" (origin 1).
	s1 := srcOwnedBy(n1.Ring(), "a", 0)
	s2 := srcOwnedBy(n1.Ring(), "a", s1+1)
	removeVia(n1, s1, fleetTestStart)
	removeVia(n1, s2, fleetTestStart)
	if got := len(n1.Alerts()); got != 2 {
		t.Fatalf("originated %d alerts, want 2", got)
	}

	// Crash-restart: restore the limiter (as the durable store would)
	// and rebuild the node. Sequence allocation must resume after the
	// restored ledger — reusing (origin, seq) pairs would make distinct
	// removals dedup-collide across the fleet.
	state, err := lim.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	lim2, err := core.RestoreLimiter(state)
	if err != nil {
		t.Fatal(err)
	}
	n2 := mk(lim2)
	if n2.pendingPushes() != 0 {
		t.Fatal("restored alerts re-entered the push outbox (they re-serve via digest)")
	}
	s3 := srcOwnedBy(n2.Ring(), "a", s2+1)
	removeVia(n2, s3, fleetTestStart)
	alerts := n2.Alerts()
	if len(alerts) != 3 {
		t.Fatalf("post-restore ledger = %d entries, want 3", len(alerts))
	}
	last := alerts[len(alerts)-1]
	if last.Origin != n2.origin || last.Seq != 3 {
		t.Fatalf("post-restore alert = (%d,%d), want (%d,3)", last.Origin, last.Seq, n2.origin)
	}

	// The restored ledger re-serves in full against an empty digest.
	if got := n2.handleDigest(nil); len(got) != 3 {
		t.Fatalf("HandleDigest re-served %d alerts, want 3", len(got))
	}
}

func TestNodeOutOfOrderAlertsAndDigestFrontier(t *testing.T) {
	members := []string{"a", "b"}
	tr := NewMemTransport()
	lim, err := core.NewLimiter(fleetTestCfg, fleetTestStart)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(Config{
		Self: "a", Peers: members, Local: lim,
		Transport: tr.For("a"),
		Now:       func() time.Time { return fleetTestStart },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seq 1 and 3 arrive; 2 is lost in flight. The digest must
	// advertise only the contiguous prefix, so anti-entropy re-fetches
	// the gap instead of permanently skipping it.
	node.applyAlert(core.Alert{Origin: 9, Seq: 1, Src: 1, UnixMs: fleetTestStart.UnixMilli()})
	node.applyAlert(core.Alert{Origin: 9, Seq: 3, Src: 3, UnixMs: fleetTestStart.UnixMilli()})
	d := node.digest()
	if len(d) != 1 || d[0] != (OriginMax{Origin: 9, MaxSeq: 1}) {
		t.Fatalf("digest = %+v, want origin 9 frontier 1", d)
	}
	// The gap fills: frontier jumps over the absorbed pending alert.
	node.applyAlert(core.Alert{Origin: 9, Seq: 2, Src: 2, UnixMs: fleetTestStart.UnixMilli()})
	d = node.digest()
	if len(d) != 1 || d[0] != (OriginMax{Origin: 9, MaxSeq: 3}) {
		t.Fatalf("digest after gap fill = %+v, want frontier 3", d)
	}
}

func TestNodeGossipDeterministicForSeed(t *testing.T) {
	// Two identical fleets driven identically must gossip identically:
	// same rounds, same ledgers. This is what makes the convergence
	// experiment reproducible at any worker count.
	run := func() []string {
		nodes, _ := memFleet(t, 8, 42)
		owner := nodes[2]
		src := srcOwnedBy(owner.Ring(), owner.self(), 0)
		removeVia(nodes[5], src, fleetTestStart)
		var trace []string
		for r := 0; r < pushRounds(8); r++ {
			for _, node := range nodes {
				node.PushTick()
			}
			line := ""
			for _, node := range nodes {
				if node.Removed(src) {
					line += "1"
				} else {
					line += "0"
				}
			}
			trace = append(trace, line)
		}
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d: coverage %s vs %s — gossip is not deterministic", i, a[i], b[i])
		}
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	members := make([]string, 2)
	nodes := make([]*Node, 2)
	trs := make([]*TCPTransport, 2)

	// Bind listeners first so member names ARE the peer addresses.
	lns := make([]net.Listener, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		members[i] = ln.Addr().String()
	}

	for i := range members {
		lim, err := core.NewLimiter(fleetTestCfg, fleetTestStart)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = NewTCPTransport(TCPOptions{Timeout: 5 * time.Second})
		nodes[i], err = NewNode(Config{
			Self: members[i], Peers: members, Local: lim,
			Transport: trs[i],
			Now:       func() time.Time { return fleetTestStart },
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServerWith(nodes[i], lns[i])
		go func() { _ = srv.Serve() }()
		defer srv.Shutdown()
		defer trs[i].Close()
	}

	// Forwarded observation over real TCP.
	src := srcOwnedBy(nodes[0].Ring(), members[0], 0)
	if got := nodes[1].Observe(src, 1, fleetTestStart); got != core.Allow {
		t.Fatalf("TCP forwarded observe = %v, want Allow", got)
	}
	if distinct(nodes[0], src) != 1 {
		t.Fatal("TCP forward did not reach the owner")
	}

	// Alert push over TCP.
	removeVia(nodes[1], src, fleetTestStart)
	for r := 0; r < pushRounds(2) && !nodes[1].Removed(src); r++ {
		nodes[0].PushTick()
	}
	if !nodes[1].Removed(src) {
		t.Fatal("TCP alert push did not cover the peer")
	}

	// Digest sync over TCP: an empty digest pulls the full ledger.
	missing, err := trs[1].syncDigest(members[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0].Src != src {
		t.Fatalf("TCP digest sync returned %+v", missing)
	}
}
