package addr

import (
	"fmt"
	"strings"

	"wormcontain/internal/rng"
)

// Scanner is a worm target-selection strategy: given the scanning host's
// own address it produces the next address to probe. Implementations
// must be deterministic functions of the supplied Source.
type Scanner interface {
	// Next returns the next address host self will scan.
	Next(src rng.Source, self IP) IP
	// Name identifies the strategy and its parameters canonically:
	// scanners with equal names draw equal targets from equal streams.
	Name() string
}

// Uniform scans the entire IPv4 space uniformly at random — the paper's
// model ("uniform scanning worms are those in which the addresses are
// chosen completely randomly").
type Uniform struct{}

var _ Scanner = Uniform{}

// Next returns a uniform random address.
func (Uniform) Next(src rng.Source, _ IP) IP {
	return IP(rng.Uint64n(src, SpaceSize))
}

// Name implements Scanner.
func (Uniform) Name() string { return "uniform" }

// SubnetPreference implements preference scanning (Section VI's future-
// work direction), modelled on Code Red II's strategy: with probability
// PSame8 scan inside the host's own /8, with probability PSame16 inside
// its /16, otherwise uniformly. Probabilities must sum to at most 1.
type SubnetPreference struct {
	PSame8  float64
	PSame16 float64
}

var _ Scanner = SubnetPreference{}

// NewSubnetPreference validates the mixture weights.
func NewSubnetPreference(pSame8, pSame16 float64) (SubnetPreference, error) {
	if pSame8 < 0 || pSame16 < 0 || pSame8+pSame16 > 1 {
		return SubnetPreference{}, fmt.Errorf(
			"addr: preference weights /8=%v /16=%v invalid (need >= 0, sum <= 1)",
			pSame8, pSame16)
	}
	return SubnetPreference{PSame8: pSame8, PSame16: pSame16}, nil
}

// Next returns the next preferentially chosen address.
func (s SubnetPreference) Next(src rng.Source, self IP) IP {
	u := src.Float64()
	switch {
	case u < s.PSame8:
		// Random host within self's /8.
		return self&0xff000000 | IP(rng.Uint64n(src, 1<<24))
	case u < s.PSame8+s.PSame16:
		// Random host within self's /16.
		return self&0xffff0000 | IP(rng.Uint64n(src, 1<<16))
	default:
		return IP(rng.Uint64n(src, SpaceSize))
	}
}

// Name implements Scanner.
func (s SubnetPreference) Name() string {
	return fmt.Sprintf("subnet-preference(/8=%g,/16=%g)", s.PSame8, s.PSame16)
}

// Routable scans uniformly over a fixed set of prefixes instead of the
// whole space, modelling a worm with knowledge of the allocated
// (BGP-routable) address blocks. Scanning only routable space multiplies
// the effective vulnerability density by SpaceSize/total, which is how
// Slammer-class worms beat naive uniform scanners.
type Routable struct {
	prefixes []Prefix
	cum      []uint64 // cumulative sizes for weighted selection
	total    uint64
}

var _ Scanner = (*Routable)(nil)

// NewRoutable builds a scanner over the given prefixes (weighted by
// size). Prefixes may not be empty.
func NewRoutable(prefixes []Prefix) (*Routable, error) {
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("addr: routable scanner needs at least one prefix")
	}
	r := &Routable{
		prefixes: append([]Prefix(nil), prefixes...),
		cum:      make([]uint64, len(prefixes)),
	}
	for i, p := range r.prefixes {
		r.total += p.Size()
		r.cum[i] = r.total
	}
	return r, nil
}

// Next picks a prefix weighted by size, then a uniform address inside it.
func (r *Routable) Next(src rng.Source, _ IP) IP {
	x := rng.Uint64n(src, r.total)
	// Binary search the cumulative table.
	lo, hi := 0, len(r.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if r.cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	p := r.prefixes[lo]
	var before uint64
	if lo > 0 {
		before = r.cum[lo-1]
	}
	return p.Net + IP(x-before)
}

// Name implements Scanner. The prefixes are listed in their draw order,
// which the cumulative table depends on.
func (r *Routable) Name() string {
	names := make([]string, len(r.prefixes))
	for i, p := range r.prefixes {
		names[i] = p.String()
	}
	return "routable(" + strings.Join(names, ",") + ")"
}
