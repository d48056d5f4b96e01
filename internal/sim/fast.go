package sim

import (
	"fmt"

	"wormcontain/internal/dist"
	"wormcontain/internal/parallel"
	"wormcontain/internal/rng"
	"wormcontain/internal/stats"
)

// FastConfig parameterizes the generational Monte-Carlo engine for the
// total-infection distribution under the paper's M-limit containment.
type FastConfig struct {
	// V is the vulnerable population size.
	V int
	// SpaceSize is the scanned address-space size (IPv4 unless a
	// clustered scenario is modelled); density p = V/SpaceSize.
	SpaceSize float64
	// M is the scan limit per host.
	M int
	// I0 is the number of initially infected hosts.
	I0 int
	// Seed selects the experiment's random stream; each replication r
	// uses stream r.
	Seed uint64
}

// validate checks the configuration.
func (c FastConfig) validate() error {
	switch {
	case c.V < 1:
		return fmt.Errorf("sim: fast V = %d, must be >= 1", c.V)
	case c.SpaceSize <= 0 || float64(c.V) > c.SpaceSize:
		return fmt.Errorf("sim: fast space size %v invalid for V = %d", c.SpaceSize, c.V)
	case c.M < 0:
		return fmt.Errorf("sim: fast M = %d, must be >= 0", c.M)
	case c.I0 < 1 || c.I0 > c.V:
		return fmt.Errorf("sim: fast I0 = %d, must be in [1, V]", c.I0)
	}
	return nil
}

// fastScratch is the reusable arena for fastTotalScratch: the
// infected-host bitset, sized for the largest population seen so far.
// One replication's writes are fully overwritten by the next
// replication's reset, so reusing an arena changes no results — it only
// removes the V-sized allocation (360 KB as a []bool for the Code Red
// population, 45 KB as a bitset) from every replication.
type fastScratch struct {
	infected []uint64 // bitset over host indices 0..V-1
}

// bitset returns the infected bitset cleared and sized for v hosts.
func (s *fastScratch) bitset(v int) []uint64 {
	words := (v + 63) / 64
	if cap(s.infected) < words {
		s.infected = make([]uint64, words)
		return s.infected
	}
	s.infected = s.infected[:words]
	clear(s.infected)
	return s.infected
}

// fastTotalScratch simulates one outbreak generation by generation and
// returns its total infection count, drawing its working memory from
// scratch: Monte-Carlo loops run many replications per worker.
func fastTotalScratch(cfg FastConfig, src rng.Source, scratch *fastScratch) (int, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	hits := dist.Binomial{N: cfg.M, P: float64(cfg.V) / cfg.SpaceSize}.Sampler()
	infected := scratch.bitset(cfg.V)
	for i := 0; i < cfg.I0; i++ {
		infected[i>>6] |= 1 << (uint(i) & 63)
	}
	total := cfg.I0
	frontier := cfg.I0 // infected hosts whose scans are not yet simulated
	for frontier > 0 {
		next := 0
		for h := 0; h < frontier; h++ {
			k := hits.Sample(src)
			for j := 0; j < k; j++ {
				victim := rng.Intn(src, cfg.V)
				if w, bit := victim>>6, uint64(1)<<(uint(victim)&63); infected[w]&bit == 0 {
					infected[w] |= bit
					total++
					next++
				}
			}
		}
		frontier = next
	}
	return total, nil
}

// MonteCarlo holds the outcome of a replicated fast experiment.
type MonteCarlo struct {
	// Totals holds each replication's total infection count I.
	Totals []int
	// Hist is the histogram of Totals.
	Hist *stats.IntHistogram
}

// RelFreq returns the empirical PMF of I over 0..kMax (Figs. 7, 11).
func (m *MonteCarlo) RelFreq(kMax int) []float64 { return m.Hist.RelFreq(kMax) }

// CumFreq returns the empirical CDF of I over 0..kMax (Figs. 8, 12).
func (m *MonteCarlo) CumFreq(kMax int) []float64 { return m.Hist.CumFreq(kMax) }

// Summary returns scalar statistics of the totals.
func (m *MonteCarlo) Summary() (stats.Summary, error) {
	return stats.SummarizeInts(m.Totals)
}

// RunFastMonteCarlo performs runs independent replications of
// fastTotalScratch,
// replication r drawing from stream r of cfg.Seed. This is the engine
// behind the paper's "we ran this simulation with M = 10,000 for a 1000
// times and collected the values of I" (Section V). Replications are
// fanned across parallel.DefaultWorkers() workers; results are identical
// to a serial run (see RunFastMonteCarloWorkers).
func RunFastMonteCarlo(cfg FastConfig, runs int) (*MonteCarlo, error) {
	return RunFastMonteCarloWorkers(cfg, runs, parallel.DefaultWorkers())
}

// RunFastMonteCarloWorkers is RunFastMonteCarlo with an explicit worker
// count (workers <= 0 selects parallel.DefaultWorkers()). Replication r
// always draws from RNG stream r and the totals are accumulated in
// replication order on the reducer goroutine, so the result — Totals
// slice and histogram alike — is bit-for-bit identical for every worker
// count.
func RunFastMonteCarloWorkers(cfg FastConfig, runs, workers int) (*MonteCarlo, error) {
	return RunFastMonteCarloResume(cfg, runs, workers, nil, nil)
}

// RunFastMonteCarloResume is RunFastMonteCarloWorkers with checkpoint
// support: prior holds the totals of already-completed replications
// 0..len(prior)-1 (from a progress journal) and only the remaining
// replications are simulated, each still pinned to its own RNG stream —
// so the merged result is bit-identical to an uninterrupted run.
// onTotal, when non-nil, observes every newly computed total on the
// reducer goroutine in strict replication order (the journaling hook);
// an error from it aborts the run.
func RunFastMonteCarloResume(cfg FastConfig, runs, workers int, prior []int,
	onTotal func(r, total int) error) (*MonteCarlo, error) {

	if runs < 1 {
		return nil, fmt.Errorf("sim: monte carlo needs runs >= 1, got %d", runs)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(prior) > runs {
		return nil, fmt.Errorf("sim: %d resumed replications exceed the requested %d runs", len(prior), runs)
	}
	mc := &MonteCarlo{
		Totals: make([]int, 0, runs),
		Hist:   stats.NewIntHistogram(),
	}
	for r, total := range prior {
		if total < cfg.I0 || total > cfg.V {
			return nil, fmt.Errorf("sim: resumed total %d for replication %d outside [I0=%d, V=%d]",
				total, r, cfg.I0, cfg.V)
		}
		mc.Totals = append(mc.Totals, total)
		mc.Hist.Add(total)
	}
	remaining := runs - len(prior)
	if remaining == 0 {
		return mc, nil
	}
	offset := len(prior)
	// Each slot owns one arena and one generator for its whole run
	// sequence; Reseed pins replication r to stream r exactly as a
	// fresh NewPCG64 would, so reuse changes no draw.
	type slotState struct {
		scratch fastScratch
		src     rng.PCG64
	}
	pool := parallel.NewScratchPool(parallel.ClampWorkers(workers, remaining),
		func() *slotState { return new(slotState) })
	_, err := parallel.ReduceSlot(remaining, workers, mc,
		func(r, slot int) (int, error) {
			s := pool.Get(slot)
			s.src.Reseed(cfg.Seed, uint64(offset+r))
			return fastTotalScratch(cfg, &s.src, &s.scratch)
		},
		func(mc *MonteCarlo, r int, total int) (*MonteCarlo, error) {
			mc.Totals = append(mc.Totals, total)
			mc.Hist.Add(total)
			if onTotal != nil {
				if err := onTotal(offset+r, total); err != nil {
					return mc, err
				}
			}
			return mc, nil
		})
	if err != nil {
		return nil, err
	}
	return mc, nil
}
