package sim

import (
	"fmt"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/defense"
	"wormcontain/internal/des"
	"wormcontain/internal/rng"
)

// BackgroundConfig models legitimate hosts sending traffic through the
// same defense that polices the worm, so a run measures collateral
// damage alongside containment — the paper's non-intrusiveness argument
// ("the value of M is a large number that prevents worm spreading
// without interfering with legitimate traffic") made quantitative.
//
// Background traffic requires a positive Config.Horizon: legitimate
// hosts generate connections forever, so an open-ended run would never
// drain its event queue.
type BackgroundConfig struct {
	// Hosts is the number of legitimate (non-vulnerable) hosts.
	Hosts int
	// ConnRate is each host's connection rate (connections/second).
	ConnRate float64
	// NewDestProb is the probability a connection goes to a destination
	// the host has never contacted before; the complement revisits the
	// host's existing pool. Normal traffic is repeat-heavy (the LBL
	// trace medians ≈12 distinct destinations per month), so this is
	// small in realistic settings.
	NewDestProb float64
}

// validate checks the background parameters.
func (b BackgroundConfig) validate() error {
	switch {
	case b.Hosts < 1:
		return fmt.Errorf("sim: background hosts %d, must be >= 1", b.Hosts)
	case b.ConnRate <= 0:
		return fmt.Errorf("sim: background rate %v, must be > 0", b.ConnRate)
	case b.NewDestProb < 0 || b.NewDestProb > 1:
		return fmt.Errorf("sim: background new-destination probability %v outside [0, 1]", b.NewDestProb)
	}
	return nil
}

// BackgroundStats reports the fate of legitimate traffic in a run.
type BackgroundStats struct {
	// Conns is the number of legitimate connection attempts.
	Conns uint64
	// Delayed counts attempts the defense queued; DelaySum accumulates
	// their waiting time (mean delay = DelaySum / Delayed).
	Delayed  uint64
	DelaySum time.Duration
	// Dropped counts attempts the defense refused — false positives.
	Dropped uint64
	// HostsBlocked is the number of legitimate hosts the defense had
	// blocked at the end of the run.
	HostsBlocked int
}

// FalsePositiveRate returns Dropped/Conns (0 for no traffic).
func (b BackgroundStats) FalsePositiveRate() float64 {
	if b.Conns == 0 {
		return 0
	}
	return float64(b.Dropped) / float64(b.Conns)
}

// MeanDelay returns the average queueing delay over delayed attempts.
func (b BackgroundStats) MeanDelay() time.Duration {
	if b.Delayed == 0 {
		return 0
	}
	return b.DelaySum / time.Duration(b.Delayed)
}

// backgroundHost is one legitimate host's state.
type backgroundHost struct {
	ip   addr.IP
	pool []addr.IP // destinations contacted so far
}

// backgroundDriver generates the legitimate traffic inside a run. It
// owns a random stream independent of the worm's, so enabling
// background traffic does not perturb the worm's sample path.
type backgroundDriver struct {
	cfg     BackgroundConfig
	d       defense.Defense
	sim     *des.Simulator
	src     *rng.PCG64
	horizon time.Duration
	stats   BackgroundStats
	hosts   []backgroundHost
	connFn  des.ArgHandler // connect, bound once: events carry a host index
}

// newBackgroundDriver builds the driver and schedules each host's first
// connection.
func newBackgroundDriver(s *des.Simulator, d defense.Defense, cfg BackgroundConfig, horizon time.Duration, seed, stream uint64) *backgroundDriver {
	bd := &backgroundDriver{
		cfg:     cfg,
		d:       d,
		sim:     s,
		src:     rng.NewPCG64(seed^0xba5e11fe, stream),
		horizon: horizon,
		hosts:   make([]backgroundHost, cfg.Hosts),
	}
	bd.connFn = bd.connect
	for i := range bd.hosts {
		// Legitimate hosts live in a reserved block so they never
		// collide with the vulnerable population.
		bd.hosts[i].ip = addr.IP(0xF0000000 | uint32(i))
		bd.scheduleNext(i)
	}
	return bd
}

// scheduleNext books host i's next connection if it lands before the
// horizon.
func (bd *backgroundDriver) scheduleNext(i int) {
	at, ok := expAt(bd.src, bd.cfg.ConnRate, bd.sim.Now())
	if !ok || at > bd.horizon {
		return
	}
	bd.sim.EmitAt(at, bd.connFn, i)
}

// connect performs one legitimate connection attempt by host i.
func (bd *backgroundDriver) connect(i int) {
	h := &bd.hosts[i]
	var dst addr.IP
	if len(h.pool) == 0 || bd.src.Float64() < bd.cfg.NewDestProb {
		// A brand-new destination; popular internet servers share a
		// block distinct from both the vulnerable population and the
		// legitimate-host block.
		dst = addr.IP(0xE0000000 | addr.IP(rng.Uint64n(bd.src, 1<<27)))
		h.pool = append(h.pool, dst)
	} else {
		dst = h.pool[rng.Intn(bd.src, len(h.pool))]
	}
	bd.stats.Conns++
	v := bd.d.OnScan(h.ip, dst, bd.sim.Now())
	switch v.Action {
	case defense.Permit:
	case defense.Delay:
		bd.stats.Delayed++
		bd.stats.DelaySum += v.Delay
	case defense.Drop:
		bd.stats.Dropped++
	}
	bd.scheduleNext(i)
}

// finalize counts still-blocked hosts and returns the stats.
func (bd *backgroundDriver) finalize() BackgroundStats {
	out := bd.stats
	for _, h := range bd.hosts {
		if bd.d.Blocked(h.ip, bd.sim.Now()) {
			out.HostsBlocked++
		}
	}
	return out
}
