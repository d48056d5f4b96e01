package fleet

import (
	"bytes"
	"os"
	"strconv"
	"testing"
	"time"

	"wormcontain/internal/rng"
)

// soakParams reads the fleet-soak matrix from the environment:
// WORMGATE_FLEET_SEED picks the workload schedule (default 1) and
// WORMGATE_FLEET_SIZE the fleet size (default 4). `make fleet-soak`
// sweeps both.
func soakParams(t *testing.T) (seed uint64, size int) {
	t.Helper()
	seed, size = 1, 4
	if v := os.Getenv("WORMGATE_FLEET_SEED"); v != "" {
		s, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("WORMGATE_FLEET_SEED=%q: %v", v, err)
		}
		seed = s
	}
	if v := os.Getenv("WORMGATE_FLEET_SIZE"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("WORMGATE_FLEET_SIZE=%q: %v", v, err)
		}
		size = n
	}
	t.Logf("fleet soak: seed %d, size %d", seed, size)
	return seed, size
}

// fleetConverged reports whether every node carries the byte-identical,
// non-empty immunization set.
func fleetConverged(t *testing.T, nodes []*Node) bool {
	t.Helper()
	want := immunizationSet(t, nodes[0])
	for _, n := range nodes[1:] {
		if !bytes.Equal(immunizationSet(t, n), want) {
			return false
		}
	}
	return len(nodes[0].Alerts()) > 0
}

// runFleetSoak drives one seeded soak: epochs of randomized traffic
// through random entry nodes, interleaved with random partitions and
// heals, then a final heal-and-converge. Returns the converged
// immunization set so the caller can assert run-to-run determinism.
func runFleetSoak(t *testing.T, seed uint64, size int) []byte {
	t.Helper()
	nodes, tr := memFleet(t, size, seed)
	members := make([]string, size)
	for i, n := range nodes {
		members[i] = n.self()
	}
	r := rng.NewPCG64(seed, 0x50a43)
	now := fleetTestStart

	const epochs = 30
	for e := 0; e < epochs; e++ {
		if size > 1 {
			switch rng.Intn(r, 3) {
			case 0: // random 2-way partition
				perm := append([]string(nil), members...)
				for i := size - 1; i > 0; i-- {
					j := rng.Intn(r, i+1)
					perm[i], perm[j] = perm[j], perm[i]
				}
				cut := 1 + rng.Intn(r, size-1)
				tr.partition(perm[:cut], perm[cut:])
			case 1:
				tr.heal()
			}
		}
		for i := 0; i < 50; i++ {
			entry := nodes[rng.Intn(r, size)]
			src := uint32(rng.Intn(r, 256))
			dst := uint32(10_000 + rng.Intn(r, 4096))
			entry.Observe(src, dst, now)
		}
		now = now.Add(time.Second)
		for _, n := range nodes {
			n.PushTick()
			n.syncTick()
		}
	}

	tr.heal()
	bound := 50 * size
	for rds := 0; rds < bound && !fleetConverged(t, nodes); rds++ {
		for _, n := range nodes {
			n.PushTick()
			n.syncTick()
		}
	}
	if !fleetConverged(t, nodes) {
		t.Fatalf("fleet (size %d, seed %d) did not converge within %d healed rounds",
			size, seed, bound)
	}
	// Every alert's source must be enforced on every node.
	for _, alert := range nodes[0].Alerts() {
		for i, n := range nodes {
			if !n.Removed(alert.Src) {
				t.Fatalf("node %d does not enforce removal of src %d", i, alert.Src)
			}
		}
	}
	return immunizationSet(t, nodes[0])
}

// TestFleetSoak runs the seeded soak twice and requires the converged
// immunization set to be byte-identical across runs: the fleet's final
// state is a pure function of (seed, size), whatever partitions the
// schedule injected along the way.
func TestFleetSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	seed, size := soakParams(t)
	first := runFleetSoak(t, seed, size)
	second := runFleetSoak(t, seed, size)
	if !bytes.Equal(first, second) {
		t.Fatalf("soak not deterministic: run 1 ledger %x, run 2 ledger %x", first, second)
	}
	if len(first) <= frameLenBytes+3 {
		t.Fatal("soak converged on an empty ledger")
	}
}
