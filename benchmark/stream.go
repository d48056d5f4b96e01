package main

import (
	"wormcontain/internal/rng"
)

// obs is one (source, destination) pair handed to the program under
// test. The program never sees anything else of the generator.
type obs struct{ src, dst uint32 }

// streamConfig sizes the observation stream shared by gate-conn and
// decide-stream.
//
// Why this mix. A containment limiter has two very different costs per
// observation: a repeat contact (the destination is already in the
// source's set — a lookup, no growth) and a first contact (an insert
// that grows the set and can cross f·M or M). Legitimate hosts revisit
// a handful of destinations (the LBL traces the paper cites have
// medians near a dozen distinct destinations a month), so nine in ten
// observations come from 100 000 legitimate sources cycling through an
// 8-address working set: after the first pass they all take the
// repeat-contact fast path, and 8 stays inside the exact limiter's
// small-set representation. One in ten comes from 200 concurrently
// active scanners drawing fresh uniform destinations: every one is an
// insert, the sets spill to the limiter's large-set representation,
// and a scanner that reaches M is removed and denied. Scanner choice
// is skewed (slot = ⌊n·u²⌋) so that the hottest scanners cross f·M and
// M inside decide-stream's slices, which puts CHECK and DENY verdicts
// into the totals the correctness check compares. gate-conn makes some
// 200 000 connections in a run, too few for any scanner to reach f·M at
// the issue's M=5000: every one of its connections is relayed, so its
// rate is the rate of the full path and does not move with how many
// were refused. A scanner that has sent
// M+scanTail observations retires and a fresh source takes its slot,
// so the insert share stays at one in ten for the whole stream.
//
// Each source belongs to exactly one generator goroutine (legitimate
// source i to goroutine i mod G, scanner ids likewise), and a
// goroutine's slice is consumed in order by one client, so every
// source's verdict sequence is a function of the seed alone no matter
// how the goroutines interleave.
type streamConfig struct {
	seed        uint64
	goroutines  int
	perG        int // observations per goroutine
	legit       int // legitimate sources, all goroutines together
	scanners    int // concurrently active scanners, all goroutines together
	m           int // limiter's M: a scanner retires scanTail observations after it
	workingSet  int // destinations a legitimate source cycles through
	scanPercent uint64
}

const (
	legitBase   = 0x0A000000 // 10.0.0.0: legitimate sources
	scannerBase = 0xAC100000 // 172.16.0.0: scanning sources
	dstBase     = 0xC0000000 // working-set destinations
	scanTail    = 8          // denied attempts a removed scanner still makes
)

func defaultStream(seed uint64, goroutines, perG, m int) streamConfig {
	return streamConfig{
		seed: seed, goroutines: goroutines, perG: perG,
		legit: 100_000, scanners: 200, m: m, workingSet: 8, scanPercent: 10,
	}
}

// generate returns one slice of observations per goroutine.
func (c streamConfig) generate() [][]obs {
	out := make([][]obs, c.goroutines)
	for g := range out {
		out[g] = c.generateOne(g)
	}
	return out
}

func (c streamConfig) generateOne(g int) []obs {
	src := rng.NewPCG64(c.seed, 0x5eed0000+uint64(g))
	G := c.goroutines
	owned := (c.legit - g + G - 1) / G // legitimate sources i with i mod G == g
	slots := c.scanners / G
	if slots < 1 {
		slots = 1
	}
	// Scanner ids are g, g+G, g+2G, …: disjoint across goroutines.
	id := make([]uint32, slots)
	sent := make([]int, slots)
	next := uint32(g)
	for s := range id {
		id[s] = next
		next += uint32(G)
	}
	out := make([]obs, c.perG)
	for i := range out {
		r := src.Uint64()
		if r%100 < c.scanPercent {
			u := float64(src.Uint64()>>11) / (1 << 53)
			s := int(float64(slots) * u * u)
			out[i] = obs{scannerBase + id[s], uint32(src.Uint64())}
			sent[s]++
			if sent[s] >= c.m+scanTail {
				id[s], sent[s] = next, 0
				next += uint32(G)
			}
			continue
		}
		r >>= 8
		host := uint32(r%uint64(owned))*uint32(G) + uint32(g)
		k := uint32((r >> 32) % uint64(c.workingSet))
		out[i] = obs{legitBase + host, dstBase + host*uint32(c.workingSet) + k}
	}
	return out
}

// cursor walks a generated stream: every goroutine's slice is consumed
// in order, one window after another, so a source's observations reach
// the program in the order the generator made them.
type cursor struct {
	stream [][]obs
	pos    []int
}

func newCursor(stream [][]obs) *cursor {
	return &cursor{stream: stream, pos: make([]int, len(stream))}
}

// window returns the next n observations of every slice (all that are
// left when n <= 0 or fewer remain) without consuming them.
func (c *cursor) window(n int) [][]obs {
	out := make([][]obs, len(c.stream))
	for g, s := range c.stream {
		rest := s[c.pos[g]:]
		if n > 0 && n < len(rest) {
			rest = rest[:n]
		}
		out[g] = rest
	}
	return out
}

// advance consumes consumed[g] observations of slice g.
func (c *cursor) advance(consumed []int) {
	for g, n := range consumed {
		c.pos[g] += n
	}
}
