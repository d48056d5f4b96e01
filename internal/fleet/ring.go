// Package fleet turns a set of independent wormgates into a
// shared-nothing containment fleet. Two cooperative mechanisms do all
// the work:
//
//   - Sharded ownership. A consistent-hash ring assigns every source
//     host exactly one owner gateway. Non-owners forward observations
//     to the owner over a compact binary protocol, so the owner counts
//     the source's FULL distinct-destination fan-out even when the
//     source's scans egress through many gateways — restoring the
//     paper's single-vantage threshold semantics at fleet scale.
//
//   - Cooperative alert dissemination. When any gateway removes a host
//     it originates a removal alert, and a push-gossip channel (with a
//     digest-based anti-entropy repair path) spreads the alert to every
//     peer in O(log N · fanout) rounds. One shard's removal immunizes
//     the whole fleet: peers deny the host locally without consulting
//     the owner, and keep denying it through partitions.
//
// Every piece is deterministic given a seed — ring placement, gossip
// peer selection and the in-memory transport used by simulations — so
// the convergence experiments reproduce bit-identically at any worker
// count.
package fleet

import (
	"fmt"
	"sort"
)

// splitmix64 is the SplitMix64 finalizer: a cheap, statistically strong
// 64-bit mixer. The ring uses it for vnode placement and source lookup
// so ownership depends only on (member name, vnode index, source) —
// never on Go's randomized map order or the process's hash seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString folds a string through FNV-1a then SplitMix64. FNV alone
// has weak avalanche on short inputs; the finalizer fixes that.
func hashString(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return splitmix64(h)
}

// ringPoint is one vnode on the ring.
type ringPoint struct {
	hash   uint64
	member int32 // index into members
}

// Ring is a consistent-hash ring over the fleet's member names. Each
// member owns Vnodes points; a source belongs to the member owning the
// first point at or after the source's hash (wrapping). Placement is a
// pure function of the member NAME, so adding or removing a member
// moves only the arcs that member owned — every other source keeps its
// owner, which is what keeps per-source distinct counts intact across
// membership changes.
type Ring struct {
	members []string
	points  []ringPoint
}

// newRing builds a ring over members with vnodes points per member.
// Member names must be unique and non-empty.
func newRing(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one member")
	}
	if vnodes <= 0 {
		return nil, fmt.Errorf("fleet: ring vnodes must be positive, got %d", vnodes)
	}
	seen := make(map[string]bool, len(members))
	r := &Ring{
		members: append([]string(nil), members...),
		points:  make([]ringPoint, 0, len(members)*vnodes),
	}
	for mi, m := range r.members {
		if m == "" {
			return nil, fmt.Errorf("fleet: ring member %d is empty", mi)
		}
		if seen[m] {
			return nil, fmt.Errorf("fleet: duplicate ring member %q", m)
		}
		seen[m] = true
		base := hashString(m)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   splitmix64(base + uint64(v)),
				member: int32(mi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by member index so the
		// ring is still a deterministic function of the member list.
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// ownerIndex returns the index (into the member list) of the member owning src.
func (r *Ring) ownerIndex(src uint32) int {
	h := splitmix64(uint64(src))
	// First point with hash >= h, wrapping to points[0].
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].member)
}

// Owner returns the name of the member owning src.
func (r *Ring) Owner(src uint32) string { return r.members[r.ownerIndex(src)] }
