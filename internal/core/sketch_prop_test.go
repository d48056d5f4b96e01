package core

import (
	"testing"
	"time"

	"wormcontain/internal/rng"
)

// TestSketchExactVerdictAgreementProperty is the PR's agreement
// property: for hosts whose true distinct-destination count is far from
// the removal threshold — at least 2× above or at most ½ below M — the
// sketch backend must reach the same removal verdict as the exact
// backend. Near the threshold the estimator may legitimately disagree
// (that band is what the accuracy study measures); far from it, a
// disagreement means the estimator is broken, not merely imprecise.
//
// Randomized workloads across seeds 1, 7 and 1905: each host draws a
// true distinct count in one of the two far bands, its contacts are
// interleaved across hosts in random order with repeats mixed in, and
// both limiters consume the identical stream.
func TestSketchExactVerdictAgreementProperty(t *testing.T) {
	const M = 100
	start := time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC)
	for _, seed := range []uint64{1, 7, 1905} {
		for _, bits := range []int{128, 256, 1024} {
			src := rng.NewPCG64(seed, uint64(bits))
			exact, err := NewLimiter(LimiterConfig{M: M, Cycle: 24 * time.Hour}, start)
			if err != nil {
				t.Fatal(err)
			}
			sketch, err := NewSketchLimiter(SketchConfig{
				LimiterConfig: LimiterConfig{M: M, Cycle: 24 * time.Hour},
				Bits:          bits,
			}, start)
			if err != nil {
				t.Fatal(err)
			}

			// Assign each host a true distinct count far from M: the low
			// band [1, M/2] or the high band [2M, 4M].
			const hosts = 60
			truth := make([]int, hosts)
			for h := range truth {
				if src.Uint64()%2 == 0 {
					truth[h] = 1 + rng.Intn(src, M/2)
				} else {
					truth[h] = 2*M + rng.Intn(src, 2*M)
				}
			}

			// Build the contact stream: each host contributes its distinct
			// destinations plus ~30% repeats, then the whole stream is
			// shuffled so hosts interleave as they would at a gateway.
			type contact struct{ src, dst uint32 }
			var stream []contact
			for h, n := range truth {
				for d := 0; d < n; d++ {
					stream = append(stream, contact{uint32(h), uint32(h)<<16 | uint32(d)})
					if src.Float64() < 0.3 {
						repeat := uint32(rng.Intn(src, d+1))
						stream = append(stream, contact{uint32(h), uint32(h)<<16 | repeat})
					}
				}
			}
			for i := len(stream) - 1; i > 0; i-- { // Fisher–Yates
				j := rng.Intn(src, i+1)
				stream[i], stream[j] = stream[j], stream[i]
			}

			at := start
			for _, c := range stream {
				at = at.Add(time.Millisecond)
				exact.Observe(c.src, c.dst, at)
				sketch.Observe(c.src, c.dst, at)
			}

			for h, n := range truth {
				er := exact.Removed(uint32(h))
				sr := sketch.Removed(uint32(h))
				if er != sr {
					t.Errorf("seed=%d bits=%d host=%d true distinct=%d: exact removed=%v sketch removed=%v",
						seed, bits, h, n, er, sr)
				}
				// The bands themselves pin what the verdict must be.
				if want := n > M; er != want {
					t.Errorf("seed=%d host=%d true distinct=%d: exact removed=%v, want %v",
						seed, h, n, er, want)
				}
			}
		}
	}
}
