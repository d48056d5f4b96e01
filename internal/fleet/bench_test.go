package fleet

import (
	"net"
	"testing"
	"time"

	"wormcontain/internal/core"
)

// benchFleetPair builds a two-member fleet over real loopback TCP with
// a budget large enough that the benchmark never trips containment.
func benchFleetPair(b *testing.B) []*Node {
	b.Helper()
	cfg := core.LimiterConfig{M: 1 << 20, Cycle: time.Hour, CheckFraction: 0.5}
	lns := make([]net.Listener, 2)
	members := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i] = ln
		members[i] = ln.Addr().String()
	}
	nodes := make([]*Node, 2)
	for i := range nodes {
		lim, err := core.NewLimiter(cfg, fleetTestStart)
		if err != nil {
			b.Fatal(err)
		}
		tr := NewTCPTransport(TCPOptions{})
		node, err := NewNode(Config{
			Self: members[i], Peers: members, Local: lim,
			Transport: tr, Seed: 1,
			Now: func() time.Time { return fleetTestStart },
		})
		if err != nil {
			b.Fatal(err)
		}
		srv := NewServerWith(node, lns[i])
		go func() { _ = srv.Serve() }()
		b.Cleanup(func() { tr.Close(); srv.Shutdown() })
		nodes[i] = node
	}
	return nodes
}

// BenchmarkFleetForwardHotPath measures the per-observation cost of
// fleet routing. "local" is the owner-resident path (ring lookup plus
// the core limiter); "forward" is the full remote exchange — encode,
// one TCP round trip on a persistent connection, decode. A fixed dst
// keeps the limiter's distinct set from growing, so iterations measure
// the path, not set churn.
func BenchmarkFleetForwardHotPath(b *testing.B) {
	nodes := benchFleetPair(b)
	owner, entry := nodes[0], nodes[1]
	src := srcOwnedBy(owner.Ring(), owner.self(), 0)
	const dst = 77_777
	now := fleetTestStart.UnixMilli()

	b.Run("local", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d := owner.Observe(src, dst, time.UnixMilli(now)); d == core.Deny {
				b.Fatal("benchmark source tripped containment")
			}
		}
	})
	b.Run("forward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if d := entry.Observe(src, dst, time.UnixMilli(now)); d == core.Deny {
				b.Fatal("benchmark source tripped containment")
			}
		}
		if entry.PeersUp() == 0 {
			b.Fatal("forwards fell back to local counting; benchmark did not measure the wire")
		}
	})
}
