package addr

import (
	"fmt"
	"math/bits"

	"wormcontain/internal/rng"
)

// Population places V vulnerable hosts at distinct pseudo-random
// addresses of the IPv4 space, exactly as the paper's simulator does
// ("Our system consists of V susceptible hosts with randomly assigned
// IPv4 addresses"), and answers the simulator's hot-path question: does
// a scanned address hit a vulnerable host, and if so which one?
//
// The address index is a flat open-addressing hash table (linear
// probing at ≤2/3 load) instead of a Go map: one slice of 8-byte
// (address, host index) slots, no per-entry boxing, and ~12 bytes per
// host plus the address slab — at internet scale (10M–100M hosts) the
// whole structure is a few hundred MB where map[IP]int would be
// several times that and pointer-dense (every lookup chases buckets
// the GC must also scan). The table is far larger than any cache, so
// what a probe costs is the cold lines it touches: key and index share
// a slot, eight slots share a line, and a probe that ends within its
// home line — the common case — is one miss.
type Population struct {
	addrs []IP // host index -> address
	// Open-addressing table. Capacity is a power of two so probes wrap
	// with a mask; a table retained from a larger draw keeps its size.
	table []popSlot
	mask  uint32
}

// popSlot is one table entry: an address and its host index, or
// val < 0 for an empty slot.
type popSlot struct {
	key IP
	val int32
}

// popBatch is how many insertions the build paths stage at once. The
// home slots of a batch are loaded in a loop with no dependency between
// iterations, so their cache misses are in flight together, before the
// insertions run one by one against lines that are by then resident. 32
// is past the number of misses a core keeps outstanding; larger batches
// gain nothing.
const popBatch = 32

// NewPopulation samples v distinct addresses uniformly from the IPv4
// space using src. Optionally the hosts can be clustered: with
// clusterPrefix non-nil, addresses are drawn uniformly inside that
// prefix, modelling an enterprise network (used by the enterprise
// example and the preference-scan ablation).
func NewPopulation(v int, clusterPrefix *Prefix, src rng.Source) (*Population, error) {
	p := &Population{}
	if err := p.Repopulate(v, clusterPrefix, src); err != nil {
		return nil, err
	}
	return p, nil
}

// hashIP is a 32-bit finalizer-style mixer (multiply-xorshift): full
// avalanche, so sequential or clustered addresses spread uniformly
// across the table.
func hashIP(ip IP) uint32 {
	x := uint32(ip)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// tableSize returns the power-of-two capacity for v entries at ≤2/3
// load (minimum 16 slots).
func tableSize(v int) int {
	need := v + v/2 + 1
	if need < 16 {
		need = 16
	}
	return 1 << bits.Len(uint(need-1))
}

// reset empties the population for a build of v hosts, reusing the
// address slab and the table when they are large enough.
func (p *Population) reset(v int) error {
	if v > 1<<31-1 {
		return fmt.Errorf("addr: population %d exceeds index capacity", v)
	}
	if cap(p.addrs) < v {
		p.addrs = make([]IP, 0, v)
	} else {
		p.addrs = p.addrs[:0]
	}
	if n := tableSize(v); len(p.table) < n {
		p.table = make([]popSlot, n)
		p.mask = uint32(n - 1)
	}
	for i := range p.table {
		p.table[i] = popSlot{val: -1}
	}
	return nil
}

// touchHomes loads the home slot of every staged insertion. Nothing in
// one iteration depends on another, so the misses overlap instead of
// queueing behind each other as they would in the insert loop, where
// each probe's outcome decides what happens next. The sum is returned,
// and the function kept out of line, only so that the compiler cannot
// discard the loads.
//
//go:noinline
func touchHomes(table []popSlot, home []uint32) (sum int32) {
	for _, h := range home {
		sum += table[h].val
	}
	return sum
}

// insert files ip as the next host index, probing from its home slot h.
// It reports false, changing nothing, when ip is already present.
func (p *Population) insert(ip IP, h uint32) bool {
	for {
		s := &p.table[h]
		if s.val < 0 {
			*s = popSlot{key: ip, val: int32(len(p.addrs))}
			p.addrs = append(p.addrs, ip)
			return true
		}
		if s.key == ip {
			return false
		}
		h = (h + 1) & p.mask
	}
}

// Repopulate redraws the population in place, reusing the address slice
// and lookup table of the previous draw. The RNG draw sequence is
// identical to NewPopulation's — membership tests against the table
// never consume randomness — so replication loops that recycle one
// Population per worker produce bit-identical simulations.
func (p *Population) Repopulate(v int, clusterPrefix *Prefix, src rng.Source) error {
	if v < 1 {
		return fmt.Errorf("addr: population size %d, must be >= 1", v)
	}
	var base IP
	var size uint64 = SpaceSize
	if clusterPrefix != nil {
		base = clusterPrefix.Net
		size = clusterPrefix.Size()
		if uint64(v) > size {
			return fmt.Errorf("addr: population %d exceeds prefix %v capacity %d",
				v, clusterPrefix, size)
		}
	}
	if err := p.reset(v); err != nil {
		return err
	}
	// Rejection sampling of distinct addresses: a draw that is already
	// placed is dropped and the loop draws again. Density v/size spans
	// 1e-4 and below in the paper's scenarios up to 0.6 in the
	// Code-Red-scale run (10M hosts in a /8), where two draws in five
	// are rejected. A batch is never larger than the number of hosts
	// still missing and every draw places at most one, so batching
	// draws exactly the values one-at-a-time sampling would; duplicates
	// inside a batch are caught because insertion stays sequential, in
	// draw order.
	var ips [popBatch]IP
	var home [popBatch]uint32
	for len(p.addrs) < v {
		n := min(popBatch, v-len(p.addrs))
		for i := 0; i < n; i++ {
			ips[i] = base + IP(rng.Uint64n(src, size))
			home[i] = hashIP(ips[i]) & p.mask
		}
		touchHomes(p.table, home[:n])
		for i := 0; i < n; i++ {
			p.insert(ips[i], home[i]) // false: duplicate draw, consuming no extra state
		}
	}
	return nil
}

// RestoreAddrs rebuilds the population in place from an explicit
// address list in host-index order — the checkpoint-restore path. The
// same buffers Repopulate reuses are reused here, with the same
// batching; no randomness is consumed. A duplicate address is rejected:
// it cannot have come from a valid draw, so it marks a corrupt
// checkpoint. The population is then partly built and must be rebuilt
// (by Repopulate or RestoreAddrs) before use.
func (p *Population) RestoreAddrs(addrs []IP) error {
	if len(addrs) < 1 {
		return fmt.Errorf("addr: restore of empty population")
	}
	if err := p.reset(len(addrs)); err != nil {
		return err
	}
	var home [popBatch]uint32
	for len(addrs) > 0 {
		batch := addrs[:min(popBatch, len(addrs))]
		addrs = addrs[len(batch):]
		for i, ip := range batch {
			home[i] = hashIP(ip) & p.mask
		}
		touchHomes(p.table, home[:len(batch)])
		for i, ip := range batch {
			if !p.insert(ip, home[i]) {
				return fmt.Errorf("addr: restore with duplicate address %v", ip)
			}
		}
	}
	return nil
}

// RestorePopulation constructs a Population from an explicit address
// list in host-index order (see RestoreAddrs).
func RestorePopulation(addrs []IP) (*Population, error) {
	p := &Population{}
	if err := p.RestoreAddrs(addrs); err != nil {
		return nil, err
	}
	return p, nil
}

// Addr returns the address of host i.
func (p *Population) Addr(i int) IP { return p.addrs[i] }

// Lookup reports whether ip belongs to a vulnerable host and returns its
// index. This is the simulator's per-scan hit test: one hash, then a
// linear probe that at ≤2/3 load inspects ~1.5 slots on a hit and ~2.5
// on a miss — usually within the home slot's cache line, since eight
// slots share one.
func (p *Population) Lookup(ip IP) (int, bool) {
	if len(p.table) == 0 {
		return 0, false
	}
	h := hashIP(ip) & p.mask
	for {
		s := p.table[h]
		if s.val < 0 {
			return 0, false
		}
		if s.key == ip {
			return int(s.val), true
		}
		h = (h + 1) & p.mask
	}
}

// AppendAddrs appends every host address in index order to dst and
// returns the extended slice, so a caller can reuse one buffer across
// checkpoints.
func (p *Population) AppendAddrs(dst []IP) []IP {
	return append(dst, p.addrs...)
}

// Memory returns the structure's approximate resident size in bytes
// (address slab plus hash table), for capacity planning output.
func (p *Population) Memory() uint64 {
	return uint64(cap(p.addrs))*4 + uint64(len(p.table))*8
}

// EstimateMemory predicts Memory() for a freshly built population of v
// hosts without constructing it — capacity planning for CLI headers.
func EstimateMemory(v int) uint64 {
	return uint64(v)*4 + uint64(tableSize(v))*8
}
