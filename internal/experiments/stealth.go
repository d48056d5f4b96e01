package experiments

import (
	"fmt"
	"time"

	"wormcontain/internal/defense"
	"wormcontain/internal/parallel"
	"wormcontain/internal/sim"
)

func init() {
	register("ablation-stealth", runAblationStealth)
}

// runAblationStealth (A6) exercises the paper's stealth-worm claim:
// "slow scanning worms with scanning rate below 1 Hz and stealth worms
// that may turn themselves off at times will however elude detection"
// by rate-based countermeasures, whereas the total-scan limit contains
// them — "including stealth worms that may turn themselves off at
// times", because dormancy never refunds scan budget.
//
// The stealth worm bursts at 20 scans/s for 2 seconds, then sleeps for
// 58: a 0.69 scans/s average, under the Williamson throttle's 1/s
// service rate. The throttle queues each burst and drains it during the
// following sleep, so every scan is eventually delivered and the worm
// spreads essentially unimpeded; the M-limit stops it at exactly the
// same outbreak law as its always-on twin, only stretched in time.
func runAblationStealth(opts Options) (*Result, error) {
	opts = opts.normalize()
	horizon := 60 * time.Minute
	runs := 5
	if opts.Quick {
		horizon = 25 * time.Minute
		runs = 2
	}
	duty := sim.DutyCycleConfig{On: 2 * time.Second, Off: 58 * time.Second}
	const (
		burstRate = 20.0 // scans/s while active
		mLimit    = 25
	)

	res := &Result{
		ID:    "ablation-stealth",
		Title: "A6: stealth (burst/sleep) worm vs rate throttle and M-limit",
	}

	type scenario struct {
		label string
		mk    func() (defense.Defense, error)
	}
	scenarios := []scenario{
		{"no defense", func() (defense.Defense, error) { return defense.Null{}, nil }},
		{"throttle (1/s)", func() (defense.Defense, error) {
			return defense.NewWilliamsonThrottle(), nil
		}},
		{"m-limit (M=25)", func() (defense.Defense, error) {
			return defense.NewMLimit(mLimit, 365*24*time.Hour)
		}},
	}
	var means []float64
	var labels []string
	pool := parallel.NewScratchPool(parallel.ClampWorkers(opts.Workers, runs), sim.NewScratch)
	for si, sc := range scenarios {
		totals, err := parallel.MapSlot(runs, opts.Workers, func(r, slot int) (int, error) {
			d, err := sc.mk()
			if err != nil {
				return 0, err
			}
			cfg, err := enterpriseConfig(burstRate, d, opts.Seed, uint64(si*100+r))
			if err != nil {
				return 0, err
			}
			cfg.DutyCycle = &duty
			cfg.Horizon = horizon
			cfg.Kernel = opts.kernel
			out, err := sim.RunWith(cfg, pool.Get(slot))
			if err != nil {
				return 0, err
			}
			return out.TotalInfected, nil
		})
		if err != nil {
			return nil, err
		}
		total := 0
		for _, t := range totals {
			total += t
		}
		mean := float64(total) / float64(runs)
		means = append(means, mean)
		labels = append(labels, sc.label)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"stealth worm (avg %.2f scans/s) under %s: mean total infected %.1f of 2000 over %d runs",
			burstRate*duty.On.Seconds()/(duty.On+duty.Off).Seconds(), sc.label, mean, runs))
	}
	xs := make([]float64, len(means))
	for i := range xs {
		xs[i] = float64(i)
	}
	res.Series = append(res.Series, Series{
		Label: "stealth worm mean total infected by defense " + fmt.Sprint(labels),
		X:     xs,
		Y:     means,
	})

	// Time-stretching demonstration: the same M-limit containment, with
	// and without the duty cycle, run to extinction. The two variants are
	// independent replications, so they ride the same worker pool.
	stretchPool := parallel.NewScratchPool(parallel.ClampWorkers(opts.Workers, 2), sim.NewScratch)
	stretchNotes, err := parallel.MapSlot(2, opts.Workers, func(r, slot int) (string, error) {
		stealthy := r == 1
		d, err := defense.NewMLimit(mLimit, 365*24*time.Hour)
		if err != nil {
			return "", err
		}
		// 1 scan/s so the M=25 budget spans multiple duty cycles.
		cfg, err := enterpriseConfig(1, d, opts.Seed, 777)
		if err != nil {
			return "", err
		}
		label := "always-on"
		cfg.Kernel = opts.kernel
		if stealthy {
			cfg.DutyCycle = &sim.DutyCycleConfig{On: 10 * time.Second, Off: 90 * time.Second}
			label = "stealth (10s on / 90s off)"
		}
		out, err := sim.RunWith(cfg, stretchPool.Get(slot))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf(
			"%s worm at 1 scan/s under m-limit(M=%d): total infected %d, extinct %v, duration %v",
			label, mLimit, out.TotalInfected, out.Extinct, out.EndTime.Round(time.Second)), nil
	})
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, stretchNotes...)
	res.Notes = append(res.Notes,
		"reading: the throttle queues each burst and serves it during the sleep "+
			"(average rate < 1/s), so the stealth worm spreads as if undefended; "+
			"the M-limit contains it to the same outbreak size, only later")
	return res, nil
}
