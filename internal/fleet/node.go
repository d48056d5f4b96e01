package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/rng"
	"wormcontain/internal/telemetry"
)

// Transport carries the three WFP/1 exchanges to a named peer. The TCP
// transport implements it for deployment; the in-memory transport
// implements it for deterministic simulation and tests. Both live in
// this package and only Node calls them, so the methods are unexported.
type Transport interface {
	// observe forwards one observation to peer and returns its verdict.
	observe(peer string, src, dst uint32, unixMs int64) (core.Decision, error)
	// sendAlerts pushes an alert batch to peer and returns how many
	// were new to it.
	sendAlerts(peer string, alerts []core.Alert) (int, error)
	// syncDigest sends this node's per-origin contiguous-max digest to
	// peer and returns the alerts peer holds beyond it.
	syncDigest(peer string, digest []OriginMax) ([]core.Alert, error)
}

// Config parameterizes a fleet node.
type Config struct {
	// Self is this node's member name (its peer-listen address in
	// deployment). Must appear in Peers.
	Self string
	// Peers is the full fleet membership, self included. Every node
	// must be configured with the same set (order is irrelevant — the
	// ring and origin IDs are derived from the sorted set).
	Peers []string
	// Local is the node's own containment limiter; required. A durable
	// store's limiter works unchanged — alerts journal through the
	// same WAL as observations.
	Local core.AlertDecider
	// Transport carries peer exchanges; required for fleets larger
	// than one (a singleton fleet never forwards or gossips).
	Transport Transport
	// Now supplies time for fallback observations and propagation
	// latency; nil means time.Now.
	Now func() time.Time
	// Seed drives gossip peer selection. Fixed seed + fixed call
	// sequence = identical gossip targets, which is what makes the
	// convergence experiments reproducible.
	Seed uint64
	// Metrics, when non-nil, receives the fleet metric families.
	Metrics *telemetry.Registry
}

// outEntry is one alert in the push-gossip outbox with its remaining
// push-round budget.
type outEntry struct {
	alert     core.Alert
	remaining int
}

// originState tracks the contiguous-max frontier of one origin's
// sequence space. Alerts can arrive out of order along different
// gossip paths; the digest advertises only the contiguous prefix, so
// anti-entropy always repairs gaps.
type originState struct {
	maxContig uint64
	pending   map[uint64]bool
}

// Node is one member of the wormgate fleet. It is a core.Decider, so a
// gateway plugs a fleet node in exactly where it would plug a bare
// limiter; the node routes each observation to the source's ring owner,
// serves observations for sources it owns, and disseminates removal
// alerts. It is not a backend: the state to persist is the local
// limiter's, and whoever built that limiter persists it.
type Node struct {
	cfg    Config
	ring   *Ring
	selfIx int    // index into sorted membership
	origin uint64 // this node's alert origin ID (sorted index + 1)
	peers  []string
	local  core.AlertDecider
	now    func() time.Time

	mu         sync.Mutex
	src        *rng.PCG64
	nextSeq    uint64
	outbox     []outEntry
	perOrigin  map[uint64]*originState
	originated map[uint32]bool // sources this node alerted this cycle
	cycleIdx   uint64
	peerUp     map[string]bool
	syncCursor int

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	metrics *fleetMetrics
}

// gossipFanout is how many peers each push-gossip round targets.
const gossipFanout = 3

// pushRounds is the per-alert push budget: a rumor pushed to gossipFanout
// uniform peers per round reaches all N members with high probability
// in O(log N) rounds, so ceil(log2 N) + 3 rounds bound dissemination
// while keeping total message load O(N · fanout · log N).
func pushRounds(n int) int {
	r := 3
	for p := 1; p < n; p *= 2 {
		r++
	}
	return r
}

// NewNode validates cfg and builds the node. The local limiter's
// existing alert ledger (a durable store restores one) is absorbed:
// sequence allocation resumes after this node's own highest alert, and
// recovered alerts are re-served to peers through digest sync rather
// than re-pushed. Which sources they remove is the limiter's to say:
// the node keeps no copy.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Local == nil {
		return nil, fmt.Errorf("fleet: config needs a local limiter")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("fleet: config needs a self name")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	members := append([]string(nil), cfg.Peers...)
	sort.Strings(members)
	selfIx := sort.SearchStrings(members, cfg.Self)
	if selfIx == len(members) || members[selfIx] != cfg.Self {
		return nil, fmt.Errorf("fleet: self %q is not in the peer set %v", cfg.Self, cfg.Peers)
	}
	if len(members) > 1 && cfg.Transport == nil {
		return nil, fmt.Errorf("fleet: a %d-member fleet needs a transport", len(members))
	}
	ring, err := newRing(members)
	if err != nil {
		return nil, err
	}
	others := make([]string, 0, len(members)-1)
	for _, m := range members {
		if m != cfg.Self {
			others = append(others, m)
		}
	}
	n := &Node{
		cfg:        cfg,
		ring:       ring,
		selfIx:     selfIx,
		origin:     uint64(selfIx) + 1,
		peers:      others,
		local:      cfg.Local,
		now:        cfg.Now,
		src:        rng.NewPCG64(cfg.Seed, uint64(selfIx)+0xf1ee7),
		nextSeq:    1,
		perOrigin:  make(map[uint64]*originState),
		originated: make(map[uint32]bool),
		cycleIdx:   cfg.Local.CycleIndex(),
		peerUp:     make(map[string]bool, len(others)),
		stopCh:     make(chan struct{}),
	}
	for _, p := range others {
		n.peerUp[p] = true
	}
	// Absorb a restored ledger: frontier and own-seq resume.
	for _, a := range cfg.Local.Alerts() {
		n.noteAlertLocked(a)
	}
	if cfg.Metrics != nil {
		n.metrics = newFleetMetrics(cfg.Metrics, n)
	}
	return n, nil
}

// Ring returns the node's ownership ring.
func (n *Node) Ring() *Ring { return n.ring }

// self returns the node's member name.
func (n *Node) self() string { return n.cfg.Self }

// noteAlertLocked updates the per-origin frontier and own-sequence
// allocator for one applied alert. Caller holds n.mu (or is still
// inside NewNode).
func (n *Node) noteAlertLocked(a core.Alert) {
	os := n.perOrigin[a.Origin]
	if os == nil {
		os = &originState{pending: make(map[uint64]bool)}
		n.perOrigin[a.Origin] = os
	}
	if a.Seq == os.maxContig+1 {
		os.maxContig++
		for os.pending[os.maxContig+1] {
			delete(os.pending, os.maxContig+1)
			os.maxContig++
		}
	} else if a.Seq > os.maxContig {
		os.pending[a.Seq] = true
	}
	if a.Origin == n.origin && a.Seq >= n.nextSeq {
		n.nextSeq = a.Seq + 1
	}
}

// Observe implements core.Decider: the fleet's sharded hot path. Three
// cases, cheapest first:
//
//  1. The local limiter has the source removed at t → Deny, no network.
//     This is the immunization payoff: an applied alert removes the
//     source here, so one shard's removal denies everywhere — until the
//     cycle it fell in ends, as it would on one limiter.
//  2. This node owns the source → observe on the local limiter (and
//     maybe originate an alert).
//  3. A peer owns it → forward. A transport failure falls back to
//     counting locally: degraded accuracy (the budget fragments, as it
//     would without a fleet) beats an open gate during a partition.
func (n *Node) Observe(src, dst uint32, t time.Time) core.Decision {
	if n.local.RemovedAt(src, t) {
		return core.Deny
	}
	owner := n.ring.Owner(src)
	if owner == n.cfg.Self {
		return n.observeLocal(src, dst, t)
	}
	d, err := n.cfg.Transport.observe(owner, src, dst, t.UnixMilli())
	if err != nil {
		n.setPeerUp(owner, false)
		if n.metrics != nil {
			n.metrics.forwardErrors.Inc()
		}
		return n.observeLocal(src, dst, t)
	}
	n.setPeerUp(owner, true)
	if n.metrics != nil {
		n.metrics.forwards.Inc()
	}
	return d
}

// observeLocal runs the local limiter on a source it did not have
// removed at t, and originates a removal alert when the verdict is
// Deny: a limiter denies only a removed host, so this observation (or
// one racing it) removed the source.
func (n *Node) observeLocal(src, dst uint32, t time.Time) core.Decision {
	d := n.local.Observe(src, dst, t)
	if d == core.Deny {
		n.maybeOriginate(src, t)
	}
	return d
}

// maybeOriginate creates and disseminates a removal alert for src,
// once per source per containment cycle.
func (n *Node) maybeOriginate(src uint32, t time.Time) {
	n.mu.Lock()
	if ci := n.local.CycleIndex(); ci != n.cycleIdx {
		n.cycleIdx = ci
		n.originated = make(map[uint32]bool)
	}
	if n.originated[src] {
		n.mu.Unlock()
		return
	}
	n.originated[src] = true
	a := core.Alert{Origin: n.origin, Seq: n.nextSeq, Src: src, UnixMs: t.UnixMilli()}
	n.nextSeq++
	n.mu.Unlock()

	// ApplyAlert journals and records the ledger entry; it reports the
	// alert as fresh because the (origin, seq) pair was just minted.
	n.local.ApplyAlert(a)
	n.mu.Lock()
	n.noteAlertLocked(a)
	n.outbox = append(n.outbox, outEntry{alert: a, remaining: pushRounds(len(n.peers) + 1)})
	n.mu.Unlock()
}

// applyAlert applies one alert from a peer. Fresh alerts enter
// the local ledger, remove the source, and join the push outbox so
// this node relays them onward (epidemic dissemination); duplicates
// are counted and dropped.
func (n *Node) applyAlert(a core.Alert) bool {
	if !n.local.ApplyAlert(a) {
		if n.metrics != nil {
			n.metrics.alertsDup.Inc()
		}
		return false
	}
	n.mu.Lock()
	n.noteAlertLocked(a)
	n.outbox = append(n.outbox, outEntry{alert: a, remaining: pushRounds(len(n.peers) + 1)})
	n.mu.Unlock()
	if n.metrics != nil && a.Origin != n.origin {
		if lag := n.now().Sub(time.UnixMilli(a.UnixMs)); lag > 0 {
			n.metrics.propagation.Observe(lag)
		}
	}
	return true
}

// handleObserve serves a forwarded observation for a source this node
// owns — the server side of case 3 in Observe.
func (n *Node) handleObserve(src, dst uint32, unixMs int64) core.Decision {
	t := time.UnixMilli(unixMs).UTC()
	if n.local.RemovedAt(src, t) {
		return core.Deny
	}
	return n.observeLocal(src, dst, t)
}

// handleAlerts applies a pushed alert batch and returns how many were
// fresh.
func (n *Node) handleAlerts(alerts []core.Alert) int {
	fresh := 0
	for _, a := range alerts {
		if n.applyAlert(a) {
			fresh++
		}
	}
	return fresh
}

// handleDigest returns the alerts this node holds beyond the remote
// digest's per-origin frontier, bounded to one wire frame. The
// receiver dedups, so over-sending across a gap is safe.
func (n *Node) handleDigest(digest []OriginMax) []core.Alert {
	remote := make(map[uint64]uint64, len(digest))
	for _, d := range digest {
		remote[d.Origin] = d.MaxSeq
	}
	var out []core.Alert
	for _, a := range n.local.Alerts() {
		if a.Seq > remote[a.Origin] {
			out = append(out, a)
			if len(out) == maxAlertsPerFrame {
				break
			}
		}
	}
	return out
}

// digest returns this node's per-origin contiguous-max frontier in
// ascending origin order.
func (n *Node) digest() []OriginMax {
	n.mu.Lock()
	out := make([]OriginMax, 0, len(n.perOrigin))
	for origin, os := range n.perOrigin {
		if os.maxContig > 0 {
			out = append(out, OriginMax{Origin: origin, MaxSeq: os.maxContig})
		}
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}

// PushTick runs one push-gossip round: every alert with remaining
// budget goes to gossipFanout distinct seeded-random peers in one batch per
// peer. Budgets are spent only when at least one peer accepted the
// batch, so alerts born during a total partition keep their rounds for
// the heal.
func (n *Node) PushTick() {
	n.mu.Lock()
	if len(n.outbox) == 0 || len(n.peers) == 0 {
		n.mu.Unlock()
		return
	}
	batch := make([]core.Alert, 0, len(n.outbox))
	for _, e := range n.outbox {
		if len(batch) < maxAlertsPerFrame {
			batch = append(batch, e.alert)
		}
	}
	targets := n.pickPeersLocked(gossipFanout)
	n.mu.Unlock()

	delivered := false
	for _, peer := range targets {
		// The receiver counts its own duplicates; the sender only
		// tracks volume and reachability.
		_, err := n.cfg.Transport.sendAlerts(peer, batch)
		n.setPeerUp(peer, err == nil)
		if err != nil {
			continue
		}
		delivered = true
		if n.metrics != nil {
			n.metrics.alertsSent.Add(uint64(len(batch)))
		}
	}
	if !delivered {
		return
	}
	n.mu.Lock()
	live := n.outbox[:0]
	for _, e := range n.outbox {
		e.remaining--
		if e.remaining > 0 {
			live = append(live, e)
		}
	}
	n.outbox = live
	n.mu.Unlock()
}

// syncTick runs one anti-entropy round against the next peer in
// rotation: send our digest, apply whatever the peer holds beyond it.
// Push gossip wins races; this path guarantees convergence after
// partitions outlive every push budget.
func (n *Node) syncTick() {
	n.mu.Lock()
	if len(n.peers) == 0 {
		n.mu.Unlock()
		return
	}
	peer := n.peers[n.syncCursor%len(n.peers)]
	n.syncCursor++
	n.mu.Unlock()

	missing, err := n.cfg.Transport.syncDigest(peer, n.digest())
	n.setPeerUp(peer, err == nil)
	if err != nil {
		return
	}
	n.handleAlerts(missing)
}

// pickPeersLocked selects up to k distinct peers by seeded partial
// Fisher-Yates. Caller holds n.mu.
func (n *Node) pickPeersLocked(k int) []string {
	m := len(n.peers)
	if k > m {
		k = m
	}
	// Partial shuffle over a scratch index slice.
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	out := make([]string, 0, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n.src, m-i)
		idx[i], idx[j] = idx[j], idx[i]
		out = append(out, n.peers[idx[i]])
	}
	return out
}

// setPeerUp records the last-contact health of a peer.
func (n *Node) setPeerUp(peer string, up bool) {
	n.mu.Lock()
	n.peerUp[peer] = up
	n.mu.Unlock()
}

// PeersUp counts peers whose last exchange succeeded.
func (n *Node) PeersUp() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	up := 0
	for _, ok := range n.peerUp {
		if ok {
			up++
		}
	}
	return up
}

// pendingPushes reports the outbox depth (alerts still being pushed).
func (n *Node) pendingPushes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.outbox)
}

// Start launches the gossip loops: a push round every pushEvery and an
// anti-entropy round every syncEvery (either ≤ 0 disables that loop).
// Stop with Stop.
func (n *Node) Start(pushEvery, syncEvery time.Duration) {
	loop := func(every time.Duration, tick func()) {
		defer n.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-n.stopCh:
				return
			case <-t.C:
				tick()
			}
		}
	}
	if pushEvery > 0 {
		n.wg.Add(1)
		go loop(pushEvery, n.PushTick)
	}
	if syncEvery > 0 {
		n.wg.Add(1)
		go loop(syncEvery, n.syncTick)
	}
}

// Stop halts the gossip loops. Safe to call without Start and more
// than once.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.wg.Wait()
}

// Removed reports whether the local limiter has src removed now, by
// its own count or by an applied alert.
func (n *Node) Removed(src uint32) bool {
	return n.local.RemovedAt(src, n.now())
}

// Snapshot implements core.Decider with the local limiter's counters:
// this shard's owned sources plus the fleet-wide immunization ledger,
// which is what the gateway's statistics and metrics should show.
func (n *Node) Snapshot() core.Stats { return n.local.Snapshot() }

// Alerts returns the local limiter's alert ledger.
func (n *Node) Alerts() []core.Alert { return n.local.Alerts() }

// Interface conformance is pinned at compile time.
var _ core.Decider = (*Node)(nil)

// fleetMetrics is the node's wiring into a telemetry.Registry.
type fleetMetrics struct {
	forwards      *telemetry.Counter
	forwardErrors *telemetry.Counter
	alertsSent    *telemetry.Counter
	alertsDup     *telemetry.Counter
	propagation   *telemetry.Histogram
}

// newFleetMetrics registers the fleet metric families.
func newFleetMetrics(reg *telemetry.Registry, n *Node) *fleetMetrics {
	m := &fleetMetrics{
		forwards: reg.Counter("wormgate_fleet_forwards_total",
			"Observations forwarded to their ring-owner peer."),
		forwardErrors: reg.Counter("wormgate_fleet_forward_errors_total",
			"Forwards that failed and fell back to local counting."),
		alertsSent: reg.Counter("wormgate_fleet_alerts_sent_total",
			"Alerts pushed to peers across all gossip rounds."),
		alertsDup: reg.Counter("wormgate_fleet_alerts_dup_total",
			"Received alerts that were already in the local ledger."),
		propagation: reg.Histogram("wormgate_fleet_alert_propagation_seconds",
			"Origination-to-application latency of remotely originated alerts."),
	}
	reg.GaugeFunc("wormgate_fleet_peers_up",
		"Peers whose most recent exchange succeeded.",
		func() float64 { return float64(n.PeersUp()) })
	reg.GaugeFunc("wormgate_fleet_pending_pushes",
		"Alerts still inside their push-gossip budget.",
		func() float64 { return float64(n.pendingPushes()) })
	return m
}
