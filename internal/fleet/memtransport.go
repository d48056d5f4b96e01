package fleet

import (
	"fmt"
	"sync"

	"wormcontain/internal/core"
)

// errPartitioned is returned by the in-memory transport for any
// exchange crossing a partition boundary.
var errPartitioned = fmt.Errorf("fleet: link partitioned")

// MemTransport wires fleet nodes together in-process: exchanges are
// synchronous method calls, so a single-goroutine driver (the
// convergence experiments, the chaos tests) is fully deterministic.
// Partitions are explicit — Partition splits the membership into
// groups and every cross-group exchange fails with errPartitioned
// until Heal.
type MemTransport struct {
	mu      sync.Mutex
	nodes   map[string]*Node
	groupOf map[string]int // empty map = fully connected
}

// NewMemTransport returns an empty, fully connected transport.
func NewMemTransport() *MemTransport {
	return &MemTransport{
		nodes:   make(map[string]*Node),
		groupOf: make(map[string]int),
	}
}

// Attach registers a node under its member name.
func (t *MemTransport) Attach(n *Node) {
	t.mu.Lock()
	t.nodes[n.self()] = n
	t.mu.Unlock()
}

// For returns the Transport view a specific member uses — sends are
// attributed to from, so partitions can be enforced per link.
func (t *MemTransport) For(from string) Transport {
	return &memLink{t: t, from: from}
}

// partition splits the fleet into the given groups; members absent
// from every group form an implicit final group. Any exchange between
// different groups fails until Heal.
func (t *MemTransport) partition(groups ...[]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.groupOf = make(map[string]int)
	for gi, g := range groups {
		for _, m := range g {
			t.groupOf[m] = gi + 1
		}
	}
}

// heal removes all partition boundaries.
func (t *MemTransport) heal() {
	t.mu.Lock()
	t.groupOf = make(map[string]int)
	t.mu.Unlock()
}

// lookup resolves the destination node and checks the partition.
func (t *MemTransport) lookup(from, to string) (*Node, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nodes[to]
	if n == nil {
		return nil, fmt.Errorf("fleet: unknown peer %q", to)
	}
	if len(t.groupOf) > 0 && t.groupOf[from] != t.groupOf[to] {
		return nil, errPartitioned
	}
	return n, nil
}

// memLink is one member's view of the transport.
type memLink struct {
	t    *MemTransport
	from string
}

// observe implements Transport.
func (l *memLink) observe(peer string, src, dst uint32, unixMs int64) (core.Decision, error) {
	n, err := l.t.lookup(l.from, peer)
	if err != nil {
		return 0, err
	}
	return n.handleObserve(src, dst, unixMs), nil
}

// sendAlerts implements Transport.
func (l *memLink) sendAlerts(peer string, alerts []core.Alert) (int, error) {
	n, err := l.t.lookup(l.from, peer)
	if err != nil {
		return 0, err
	}
	return n.handleAlerts(alerts), nil
}

// syncDigest implements Transport.
func (l *memLink) syncDigest(peer string, digest []OriginMax) ([]core.Alert, error) {
	n, err := l.t.lookup(l.from, peer)
	if err != nil {
		return nil, err
	}
	return n.handleDigest(digest), nil
}
