package main

import (
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/defense"
	"wormcontain/internal/des"
	"wormcontain/internal/rng"
)

// The probes time one exported call of one layer in a loop, from
// outside. They run in the traced pass only.

// sink keeps the compiler from removing a probe's loop.
var sink uint64

func rngFor(b *bench, stream uint64) *rng.PCG64 {
	return rng.NewPCG64(b.seed, 0xbe9c0000+stream)
}

// pcgProbe is the cost of one PCG64.Uint64.
func pcgProbe(b *bench, n int) float64 {
	src := rngFor(b, 2)
	id := b.tr.start(0, "rng.PCG64.Uint64")
	var acc uint64
	s := seconds(func() {
		for i := 0; i < n; i++ {
			acc += src.Uint64()
		}
	})
	b.tr.end(id, "calls", float64(n))
	sink += acc
	return s * 1e9 / float64(n)
}

// addrProbe draws n targets the way the workload's scanner does and
// looks each up in pop: cost of a draw, cost of a lookup over that
// target distribution, and the share of lookups that hit a host.
func addrProbe(b *bench, scanner addr.Scanner, pop *addr.Population, n int) (drawNs, lookupNs, hitRatio float64) {
	src := rngFor(b, 3)
	targets := make([]addr.IP, n)
	id := b.tr.start(0, "addr.Scanner.Next")
	drawS := seconds(func() {
		for i := range targets {
			targets[i] = scanner.Next(src, 0)
		}
	})
	b.tr.end(id, "calls", float64(n))
	hits := 0
	id = b.tr.start(0, "addr.Population.Lookup")
	lookupS := seconds(func() {
		for _, ip := range targets {
			if _, ok := pop.Lookup(ip); ok {
				hits++
			}
		}
	})
	b.tr.end(id, "calls", float64(n), "hits", float64(hits))
	return drawS * 1e9 / float64(n), lookupS * 1e9 / float64(n), float64(hits) / float64(n)
}

// churnProbe is the cost of one Step plus the Emit it triggers on a
// kernel holding `depth` pending events — the steady state of a run in
// which every fired scan schedules the next.
func churnProbe(b *bench, kind des.Kind, depth, n int) float64 {
	if depth < 1 {
		depth = 1
	}
	src := rngFor(b, 4)
	s := des.NewWithConfig(des.Config{Kernel: kind})
	delay := func() time.Duration {
		return time.Duration(rng.Exponential(src, 10) * float64(time.Second))
	}
	var refire des.ArgHandler
	refire = func(arg int) { s.Emit(delay(), refire, arg) }
	for i := 0; i < depth; i++ {
		s.Emit(delay(), refire, i)
	}
	id := b.tr.start(0, "des.Step+Emit/"+kind.String())
	sec := seconds(func() {
		for i := 0; i < n; i++ {
			s.Step()
		}
	})
	b.tr.end(id, "calls", float64(n), "pending", float64(s.Pending()))
	return sec * 1e9 / float64(n)
}

// mlimitProbe is the cost of MLimit.OnScan on its insert path: every
// destination is new to its source, up to M per source.
func mlimitProbe(b *bench, m, sources int) float64 {
	d := must1(defense.NewMLimit(m, 365*24*time.Hour))
	src := rngFor(b, 5)
	id := b.tr.start(0, "defense.MLimit.OnScan")
	sec := seconds(func() {
		for h := 0; h < sources; h++ {
			for i := 0; i < m; i++ {
				d.OnScan(addr.IP(h+1), addr.IP(src.Uint64()), 0)
			}
		}
	})
	b.tr.end(id, "calls", float64(m*sources))
	return sec * 1e9 / float64(m*sources)
}
