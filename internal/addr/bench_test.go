package addr

import (
	"testing"

	"wormcontain/internal/rng"
)

// The layer benchmarks of the Code-Red-scale population: 10M hosts
// drawn inside 10.0.0.0/8, density 0.6 — the table (128 MB) and the
// address slab (40 MB) are far past every cache, so these measure the
// memory system, which is what the build and the hit test cost at that
// scale. All three recycle their Population; the steady state must not
// allocate (make bench-allocs gates BenchmarkRepopulate10M,
// BenchmarkRestoreAddrs10M and the Lookup rows at 0 allocs/op).

const bench10MHosts = 10_000_000

func bench10MPopulation(b *testing.B) (*Population, *Prefix, *rng.PCG64) {
	b.Helper()
	pfx, err := ParsePrefix("10.0.0.0/8")
	if err != nil {
		b.Fatal(err)
	}
	src := rng.NewPCG64(1905, 1)
	pop, err := NewPopulation(bench10MHosts, &pfx, src)
	if err != nil {
		b.Fatal(err)
	}
	return pop, &pfx, src
}

// BenchmarkRepopulate10M redraws the population into the same buffers:
// ~15.4M rejection draws per op for 10M hosts.
func BenchmarkRepopulate10M(b *testing.B) {
	pop, pfx, src := bench10MPopulation(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reseed(1905, 1)
		if err := pop.Repopulate(bench10MHosts, pfx, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreAddrs10M rebuilds the table from the address list —
// what resuming a checkpoint pays before the first event.
func BenchmarkRestoreAddrs10M(b *testing.B) {
	pop, _, _ := bench10MPopulation(b)
	addrs := pop.Addrs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pop.RestoreAddrs(addrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupDense10M is the per-scan hit test over the scan's own
// target distribution: uniform in the /8, three probes in five hitting
// a host. Targets are drawn up front so the op is the lookup alone.
func BenchmarkLookupDense10M(b *testing.B) {
	pop, pfx, src := bench10MPopulation(b)
	targets := make([]IP, 1<<20)
	for i := range targets {
		targets[i] = pfx.Net + IP(rng.Uint64n(src, pfx.Size()))
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pop.Lookup(targets[i&(len(targets)-1)]); ok {
			hits++
		}
	}
	b.StopTimer()
	if b.N >= len(targets) {
		if ratio := float64(hits) / float64(b.N); ratio < 0.55 || ratio > 0.65 {
			b.Fatalf("hit ratio %.3f, want the population's density ~0.6", ratio)
		}
	}
}

// BenchmarkLookupSparse360k is the hit test in sim-mc's regime: the
// paper's 360 000 Code Red hosts spread over the whole IPv4 space and
// scanned uniformly, so about one probe in 12 000 hits (8.4e-5). The
// table (8 MB) sits in the last-level cache or just past it, and the
// hashed probe loop is what runs.
func BenchmarkLookupSparse360k(b *testing.B) {
	const hosts = 360_000
	src := rng.NewPCG64(1905, 2)
	pop, err := NewPopulation(hosts, nil, src)
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]IP, 1<<20)
	for i := range targets {
		targets[i] = IP(rng.Uint64n(src, SpaceSize))
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pop.Lookup(targets[i&(len(targets)-1)]); ok {
			hits++
		}
	}
	b.StopTimer()
	if ratio := float64(hits) / float64(b.N); b.N >= len(targets) && ratio > 1e-3 {
		b.Fatalf("hit ratio %.2g, want the population's density ~8e-5", ratio)
	}
}
