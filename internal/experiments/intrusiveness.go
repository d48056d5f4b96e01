package experiments

import (
	"fmt"
	"time"

	"wormcontain/internal/defense"
	"wormcontain/internal/parallel"
	"wormcontain/internal/rng"
	"wormcontain/internal/sim"
)

func init() {
	register("ablation-intrusiveness", runAblationIntrusiveness)
}

// runAblationIntrusiveness (A5) quantifies the paper's non-intrusiveness
// claim end to end: the same enterprise outbreak runs under each
// defense, but this time with a population of legitimate hosts sending
// realistic repeat-heavy traffic through the same enforcement point.
// The table to reproduce is two-sided — containment (total infected) AND
// collateral damage (legitimate connections dropped or delayed):
//
//   - M-limit: contains the worm, zero legitimate drops/delays
//     ("the restriction on M is not expected to interfere with normal
//     user activities").
//   - Throttle: delays bursty-but-legitimate traffic while failing to
//     contain (the tuning dilemma the paper ascribes to rate limiting:
//     "the limit on the rate must be carefully tuned in order to let
//     the normal traffic through").
//   - Quarantine with a noisy detector: false-positive confinement of
//     clean hosts ("They assume the underlying worm detection system
//     has a high false alarm rate").
func runAblationIntrusiveness(opts Options) (*Result, error) {
	opts = opts.normalize()
	horizon := 5 * time.Minute
	bgHosts := 50
	if opts.Quick {
		horizon = 2 * time.Minute
		bgHosts = 20
	}

	// Legitimate traffic is repeat-dominated (LBL: a median host adds
	// ≈12 distinct destinations per MONTH): at 2 conns/s and 1% new
	// destinations a host adds a couple of distinct addresses over the
	// horizon — far from the scan limit, exactly the regime the trace
	// audit of Fig. 6 certifies.
	background := sim.BackgroundConfig{
		Hosts:       bgHosts,
		ConnRate:    2,
		NewDestProb: 0.01,
	}

	type defenseCase struct {
		make func() (defense.Defense, error)
	}
	cases := []defenseCase{
		{func() (defense.Defense, error) { return defense.Null{}, nil }},
		{func() (defense.Defense, error) {
			return defense.NewMLimit(25, 365*24*time.Hour)
		}},
		{func() (defense.Defense, error) { return defense.NewWilliamsonThrottle(), nil }},
		{func() (defense.Defense, error) {
			// A noisy detector: clean traffic also trips it sometimes.
			return defense.NewQuarantine(0.002, time.Minute, rng.NewPCG64(opts.Seed^0xa1a2, 0))
		}},
	}

	res := &Result{
		ID:    "ablation-intrusiveness",
		Title: "A5: containment vs collateral damage on legitimate traffic, per defense",
	}
	// The four defense cases are independent replications: each builds
	// its own defense instance (and RNG streams) inside the replication
	// function, so they fan across the worker pool.
	type caseOut struct {
		label         string
		contained, fp float64
		note          string
	}
	pool := parallel.NewScratchPool(parallel.ClampWorkers(opts.Workers, len(cases)), sim.NewScratch)
	outs, err := parallel.MapSlot(len(cases), opts.Workers, func(ci, slot int) (caseOut, error) {
		d, err := cases[ci].make()
		if err != nil {
			return caseOut{}, err
		}
		cfg, err := enterpriseConfig(20, d, opts.Seed, uint64(ci))
		if err != nil {
			return caseOut{}, err
		}
		cfg.Horizon = horizon
		// Disable the early-stop cap so every defense is exposed to the
		// same full horizon of legitimate traffic.
		cfg.MaxInfected = 0
		cfg.Background = &background
		cfg.Kernel = opts.kernel
		out, err := sim.RunWith(cfg, pool.Get(slot))
		if err != nil {
			return caseOut{}, err
		}
		bg := out.Background
		return caseOut{
			label:     d.Name(),
			contained: float64(out.TotalInfected),
			fp:        bg.FalsePositiveRate(),
			note: fmt.Sprintf(
				"%s: infected %d/2000; legit traffic: %d conns, %d dropped (fp rate %.4f), "+
					"%d delayed (mean delay %v), %d hosts blocked",
				d.Name(), out.TotalInfected, bg.Conns, bg.Dropped,
				bg.FalsePositiveRate(), bg.Delayed, bg.MeanDelay().Round(time.Millisecond),
				bg.HostsBlocked),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var contained, fpRate []float64
	var labels []string
	for _, o := range outs {
		labels = append(labels, o.label)
		contained = append(contained, o.contained)
		fpRate = append(fpRate, o.fp)
		res.Notes = append(res.Notes, o.note)
	}
	xs := make([]float64, len(labels))
	for i := range xs {
		xs[i] = float64(i)
	}
	res.Series = append(res.Series,
		Series{Label: "total infected by defense " + fmt.Sprint(labels), X: xs, Y: contained},
		Series{Label: "legit false-positive rate by defense " + fmt.Sprint(labels), X: xs, Y: fpRate},
	)
	// Second pass: a bursty-but-legitimate profile (web browsing, CDN
	// fan-out — many NEW destinations in a short window). This is where
	// rate-based schemes hurt: the throttle's 1/s service rate queues
	// bursts, while the M-limit doesn't care about rate at all as long
	// as the monthly distinct-address total stays under M.
	bursty := sim.BackgroundConfig{Hosts: bgHosts, ConnRate: 2, NewDestProb: 0.5}
	burstyNotes, err := parallel.MapSlot(len(cases), opts.Workers, func(ci, slot int) (string, error) {
		d, err := cases[ci].make()
		if err != nil {
			return "", err
		}
		// M sized from a trace audit, far above bursty-legit totals.
		if ci == 1 {
			if d, err = defense.NewMLimit(5000, 365*24*time.Hour); err != nil {
				return "", err
			}
		}
		cfg, err := enterpriseConfig(20, d, opts.Seed, uint64(100+ci))
		if err != nil {
			return "", err
		}
		cfg.Horizon = horizon
		cfg.MaxInfected = 0
		cfg.Background = &bursty
		cfg.Kernel = opts.kernel
		out, err := sim.RunWith(cfg, pool.Get(slot))
		if err != nil {
			return "", err
		}
		bg := out.Background
		return fmt.Sprintf(
			"bursty-legit under %s: %d conns, %d dropped (fp %.4f), %d delayed (mean %v)",
			d.Name(), bg.Conns, bg.Dropped, bg.FalsePositiveRate(),
			bg.Delayed, bg.MeanDelay().Round(time.Millisecond)), nil
	})
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, burstyNotes...)
	res.Notes = append(res.Notes,
		"two-sided reading: only the M-limit sits in the good corner — "+
			"contained outbreak AND untouched legitimate traffic, for both "+
			"repeat-heavy and bursty legitimate profiles")
	return res, nil
}
