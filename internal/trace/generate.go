package trace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"wormcontain/internal/dist"
	"wormcontain/internal/rng"
)

// GeneratorConfig calibrates the synthetic 30-day trace. The defaults
// (DefaultGeneratorConfig) match the statistics the paper extracts from
// LBL-CONN-7: 1645 local hosts over 30 days, 97% of hosts below 100
// distinct destinations, exactly six hosts above 1000, the most active
// near 4000.
type GeneratorConfig struct {
	// Hosts is the number of local hosts.
	Hosts int
	// Span is the trace duration.
	Span time.Duration
	// HeavyTargets are the distinct-destination counts of the few
	// "power" hosts, descending (the six curves of Fig. 6).
	HeavyTargets []int
	// BodyMedian and BodySigma parameterize the lognormal body of the
	// per-host distinct-destination distribution.
	BodyMedian float64
	BodySigma  float64
	// BodyCap truncates the body so that only HeavyTargets exceed it.
	BodyCap int
	// RepeatFactor is the mean number of connections per distinct
	// destination (traffic beyond first contacts; repeats do not affect
	// the distinct count but make the trace realistic).
	RepeatFactor float64
	// Seed selects the deterministic random stream.
	Seed uint64
}

// DefaultGeneratorConfig reproduces the paper's trace statistics.
func DefaultGeneratorConfig(seed uint64) GeneratorConfig {
	return GeneratorConfig{
		Hosts: 1645,
		Span:  30 * 24 * time.Hour,
		// Fig. 6's six most active hosts: the top curve reaches ≈4000
		// distinct destinations, the others spread over 1000–3000.
		HeavyTargets: []int{4000, 3000, 2400, 1900, 1500, 1100},
		// With median 12 and sigma 1.15, P{D < 100} = Φ(ln(100/12)/1.15)
		// ≈ 0.97, the paper's "97% of hosts contacted less than 100
		// distinct destination IP addresses".
		BodyMedian:   12,
		BodySigma:    1.15,
		BodyCap:      999,
		RepeatFactor: 3,
		Seed:         seed,
	}
}

// validate reports whether the configuration is usable.
func (c GeneratorConfig) validate() error {
	switch {
	case c.Hosts < 1:
		return fmt.Errorf("trace: hosts = %d, must be >= 1", c.Hosts)
	case len(c.HeavyTargets) > c.Hosts:
		return fmt.Errorf("trace: %d heavy hosts exceed %d hosts", len(c.HeavyTargets), c.Hosts)
	case c.Span <= 0:
		return fmt.Errorf("trace: span %v, must be > 0", c.Span)
	case c.BodyMedian <= 0 || c.BodySigma < 0:
		return fmt.Errorf("trace: body lognormal (median %v, sigma %v) invalid",
			c.BodyMedian, c.BodySigma)
	case c.BodyCap < 1:
		return fmt.Errorf("trace: body cap %d, must be >= 1", c.BodyCap)
	case c.RepeatFactor < 0:
		return fmt.Errorf("trace: repeat factor %v, must be >= 0", c.RepeatFactor)
	}
	for _, tgt := range c.HeavyTargets {
		if tgt < 1 {
			return fmt.Errorf("trace: heavy target %d, must be >= 1", tgt)
		}
	}
	return nil
}

// protoMix is the protocol labels stamped on synthetic connections,
// roughly the mix dominating mid-90s wide-area traffic.
var protoMix = []string{"smtp", "nntp", "telnet", "ftp-data", "http", "finger", "domain"}

// Generate produces a synthetic connection trace. Records are returned
// sorted by start time. Per host h, the generator:
//
//  1. assigns a distinct-destination target D(h) — from HeavyTargets for
//     the designated power hosts, otherwise lognormal truncated at
//     BodyCap;
//  2. spreads D(h) first-contact events over the span at uniform random
//     instants (yielding the near-linear growth curves of Fig. 6); and
//  3. adds RepeatFactor·D(h) repeat connections to already-contacted
//     destinations, Zipf-weighted so popular destinations dominate.
//
// Remote destination identifiers are globally unique per (host, index)
// so the distinct count per host is exactly D(h).
func Generate(cfg GeneratorConfig) ([]Record, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := rng.NewPCG64(cfg.Seed, 0)
	// The lognormal median is e^mu, so mu = ln(median).
	body := dist.Lognormal{Mu: math.Log(cfg.BodyMedian), Sigma: cfg.BodySigma}

	targets := make([]int, cfg.Hosts)
	for h := range targets {
		if h < len(cfg.HeavyTargets) {
			targets[h] = cfg.HeavyTargets[h]
			continue
		}
		d := int(body.Sample(src))
		if d < 1 {
			d = 1
		}
		if d > cfg.BodyCap {
			d = cfg.BodyCap
		}
		targets[h] = d
	}

	var records []Record
	// Remote identifiers: host h owns the block [h<<16, h<<16 + D). A
	// 16-bit per-host destination index bounds targets at 65535, far
	// above any realistic calibration.
	for h, d := range targets {
		if d > 0xffff {
			return nil, fmt.Errorf("trace: host %d target %d exceeds 65535", h, d)
		}
		zipf, err := dist.NewZipf(d, 1.1)
		if err != nil {
			return nil, err
		}
		// First contacts.
		for i := 0; i < d; i++ {
			records = append(records, synthRecord(cfg, src, uint32(h), uint32(i)))
		}
		// Repeats to already-known destinations.
		repeats := int(cfg.RepeatFactor * float64(d))
		for i := 0; i < repeats; i++ {
			dst := uint32(zipf.Sample(src) - 1)
			records = append(records, synthRecord(cfg, src, uint32(h), dst))
		}
	}
	sort.Slice(records, func(i, j int) bool {
		if records[i].Start != records[j].Start {
			return records[i].Start < records[j].Start
		}
		return records[i].Local < records[j].Local
	})
	return records, nil
}

// synthRecord fabricates one connection from host h to its dst-th
// destination at a uniform random instant of the span.
func synthRecord(cfg GeneratorConfig, src rng.Source, h, dst uint32) Record {
	return Record{
		Start:     time.Duration(rng.Uint64n(src, uint64(cfg.Span))),
		Duration:  time.Duration(rng.Exponential(src, 1.0/30) * float64(time.Second)),
		Proto:     protoMix[rng.Intn(src, len(protoMix))],
		BytesOrig: int64(rng.Uint64n(src, 1<<16)),
		BytesResp: int64(rng.Uint64n(src, 1<<20)),
		Local:     h,
		Remote:    h<<16 | dst,
		State:     "SF",
	}
}
