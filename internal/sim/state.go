package sim

import "wormcontain/internal/addr"

// hostState is the engine's packed per-host epidemiology: two flat
// bitsets (actively infected, removed) and per-shard active-infection
// counts. A byte-per-host Status slice costs 100MB at 100M hosts and a
// cache line per touched host; two bits per host keep the whole state
// of a 10M-host population in ~2.5MB — the hit test a delivered scan
// performs reads one bit, so target lookups touch a single cache line
// of state per draw. Susceptible is the absence of both bits, which is
// what makes reset a pair of memclrs.
//
// The shard counts (one int32 per 64Ki hosts) give O(shards) answers
// to "where are the active infections" — telemetry, future snapshot
// partitioning — without a population scan, and double as a cheap
// internal consistency check on the global active count.
const shardBits = 16

type hostState struct {
	infected    []uint64 // bit i set: host i is actively infected
	removed     []uint64 // bit i set: host i was removed (or immunized)
	shardActive []int32  // active infections per 1<<shardBits hosts
	active      int      // total actively infected (== sum shardActive)
	n           int
}

// reset sizes the state for n hosts, all susceptible, reusing capacity.
func (h *hostState) reset(n int) {
	words := (n + 63) >> 6
	shards := (n + (1<<shardBits - 1)) >> shardBits
	h.infected = grow(h.infected, words)
	h.removed = grow(h.removed, words)
	h.shardActive = grow(h.shardActive, shards)
	h.active = 0
	h.n = n
}

// status reports host i's tri-state view (for introspection; the hot
// paths use the single-bit predicates below).
func (h *hostState) status(i int) Status {
	w, b := i>>6, uint(i&63)
	switch {
	case h.infected[w]>>b&1 != 0:
		return infected
	case h.removed[w]>>b&1 != 0:
		return removed
	default:
		return susceptible
	}
}

// isInfected reports whether host i is actively infected.
func (h *hostState) isInfected(i int) bool {
	return h.infected[i>>6]>>(uint(i)&63)&1 != 0
}

// isSusceptible reports whether host i has neither been infected nor
// removed — the delivered-scan hit test.
func (h *hostState) isSusceptible(i int) bool {
	return (h.infected[i>>6]|h.removed[i>>6])>>(uint(i)&63)&1 == 0
}

// markInfected transitions a susceptible host to actively infected.
func (h *hostState) markInfected(i int) {
	h.infected[i>>6] |= 1 << (uint(i) & 63)
	h.shardActive[i>>shardBits]++
	h.active++
}

// markRemoved retires an actively infected host.
func (h *hostState) markRemoved(i int) {
	h.infected[i>>6] &^= 1 << (uint(i) & 63)
	h.removed[i>>6] |= 1 << (uint(i) & 63)
	h.shardActive[i>>shardBits]--
	h.active--
}

// markImmunized removes a still-susceptible host before infection.
func (h *hostState) markImmunized(i int) {
	h.removed[i>>6] |= 1 << (uint(i) & 63)
}

// PopulationFootprint estimates the resident bytes of per-host state for
// a v-host run: the address slab and lookup table plus the packed
// epidemiology bitsets and shard counters. CLI capacity-planning output.
func PopulationFootprint(v int) uint64 {
	words := uint64((v + 63) >> 6)
	shards := uint64((v + (1<<shardBits - 1)) >> shardBits)
	return addr.EstimateMemory(v) + words*2*8 + shards*4
}
