package fleet

import (
	"fmt"
	"testing"
)

func ringMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", 9000+i)
	}
	return out
}

func TestRingValidation(t *testing.T) {
	if _, err := newRing(nil, 64); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, err := newRing([]string{"a"}, 0); err == nil {
		t.Fatal("zero vnodes accepted")
	}
	if _, err := newRing([]string{"a", "a"}, 4); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := newRing([]string{"a", ""}, 4); err == nil {
		t.Fatal("empty member accepted")
	}
}

func TestRingDeterministicAcrossConstructionOrder(t *testing.T) {
	// Ownership must be a function of the member SET, not the order a
	// node happened to list its peers in — otherwise two peers disagree
	// about who owns a source. Node sorts before building the ring;
	// the ring itself must be order-sensitive-free for sorted input and
	// deterministic run to run.
	members := ringMembers(8)
	a, err := newRing(members, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newRing(members, 64)
	if err != nil {
		t.Fatal(err)
	}
	for src := uint32(0); src < 10_000; src++ {
		if a.Owner(src) != b.Owner(src) {
			t.Fatalf("src %d: owners diverge between identical rings", src)
		}
	}
}

func TestRingBalance(t *testing.T) {
	// With 64 vnodes per member the load spread should be reasonable:
	// no member owns more than ~2.5x its fair share of a uniform
	// source population.
	members := ringMembers(8)
	r, err := newRing(members, 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const n = 100_000
	for src := uint32(0); src < n; src++ {
		counts[r.Owner(src)]++
	}
	fair := n / len(members)
	for m, c := range counts {
		if c > fair*5/2 || c < fair/4 {
			t.Errorf("member %s owns %d sources (fair share %d)", m, c, fair)
		}
	}
	if len(counts) != len(members) {
		t.Fatalf("only %d of %d members own anything", len(counts), len(members))
	}
}

func TestRingStabilityUnderMembershipChange(t *testing.T) {
	// Removing one member must move ONLY the sources that member owned:
	// everyone else keeps their owner, so their distinct counts stay
	// with the same shard. This is the property that justifies
	// consistent hashing over modulo assignment.
	members := ringMembers(8)
	full, err := newRing(members, 64)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := newRing(members[:7], 64)
	if err != nil {
		t.Fatal(err)
	}
	removed := members[7]
	moved, kept := 0, 0
	for src := uint32(0); src < 50_000; src++ {
		before := full.Owner(src)
		after := shrunk.Owner(src)
		if before == removed {
			continue // had to move somewhere
		}
		if before != after {
			moved++
		} else {
			kept++
		}
	}
	if moved != 0 {
		t.Fatalf("%d sources not owned by the removed member changed owner (kept %d)", moved, kept)
	}
}

func TestRingSingleMember(t *testing.T) {
	r, err := newRing([]string{"solo"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for src := uint32(0); src < 100; src++ {
		if r.Owner(src) != "solo" {
			t.Fatal("singleton ring routed away from the only member")
		}
	}
}
