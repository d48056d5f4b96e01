package addr

import (
	"fmt"
	"testing"

	"wormcontain/internal/rng"
)

func TestNewPopulationDistinctAddresses(t *testing.T) {
	src := rng.NewPCG64(1, 0)
	pop, err := NewPopulation(10000, nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.addrs) != 10000 {
		t.Fatalf("size = %d", len(pop.addrs))
	}
	seen := make(map[IP]bool, 10000)
	for i := 0; i < len(pop.addrs); i++ {
		ip := pop.Addr(i)
		if seen[ip] {
			t.Fatalf("duplicate address %v", ip)
		}
		seen[ip] = true
	}
}

func TestPopulationLookup(t *testing.T) {
	src := rng.NewPCG64(2, 0)
	pop, err := NewPopulation(1000, nil, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pop.addrs); i++ {
		got, ok := pop.Lookup(pop.Addr(i))
		if !ok || got != i {
			t.Fatalf("lookup(%v) = (%d, %v), want (%d, true)", pop.Addr(i), got, ok, i)
		}
	}
	// A miss: find an address not in the map.
	probe := IP(0)
	for {
		if _, ok := pop.Lookup(probe); !ok {
			break
		}
		probe++
	}
	if _, ok := pop.Lookup(probe); ok {
		t.Error("expected miss")
	}
}

func TestNewPopulationValidation(t *testing.T) {
	src := rng.NewPCG64(3, 0)
	if _, err := NewPopulation(0, nil, src); err == nil {
		t.Error("expected error for v = 0")
	}
	tiny, _ := newPrefix(0, 30) // 4 addresses
	if _, err := NewPopulation(5, &tiny, src); err == nil {
		t.Error("expected error when v exceeds prefix capacity")
	}
}

func TestNewPopulationClustered(t *testing.T) {
	src := rng.NewPCG64(4, 0)
	pfx, _ := ParsePrefix("10.0.0.0/8")
	pop, err := NewPopulation(5000, &pfx, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pop.addrs); i++ {
		if !pfx.Contains(pop.Addr(i)) {
			t.Fatalf("host %d at %v escapes %v", i, pop.Addr(i), pfx)
		}
	}
}

func TestNewPopulationFullPrefix(t *testing.T) {
	// Exactly filling a small prefix must terminate (every address used).
	src := rng.NewPCG64(5, 0)
	pfx, _ := newPrefix(0x0a000000, 28) // 16 addresses
	pop, err := NewPopulation(16, &pfx, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.addrs) != 16 {
		t.Fatalf("size = %d", len(pop.addrs))
	}
}

func TestPopulationAddrsIsCopy(t *testing.T) {
	src := rng.NewPCG64(6, 0)
	pop, _ := NewPopulation(10, nil, src)
	addrs := pop.Addrs()
	orig := pop.Addr(0)
	addrs[0] = orig + 1
	if pop.Addr(0) != orig {
		t.Error("Addrs() must return a defensive copy")
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a, _ := NewPopulation(500, nil, rng.NewPCG64(7, 0))
	b, _ := NewPopulation(500, nil, rng.NewPCG64(7, 0))
	for i := 0; i < 500; i++ {
		if a.Addr(i) != b.Addr(i) {
			t.Fatalf("population not reproducible at host %d", i)
		}
	}
}

// TestPopulationDrawSequenceMatchesMapReference pins the Repopulate
// contract the golden fingerprints depend on: the open-addressing
// table, built in batches, must consume the RNG stream exactly like the
// original one-draw-at-a-time map-based implementation — duplicate
// draws redraw without extra randomness, membership tests consume none,
// no batch draws past the last host — so the drawn address sequence and
// the generator state after it are identical. The cases cover the
// paper's density (1e-4), the Code-Red-scale run's (0.6, two draws in
// five rejected) and a full prefix, population sizes on both sides of
// the batch width, and each of them again on a Population that keeps
// the oversize table and mask of a larger earlier draw. The dense
// prefixes, and every prefix drawn into the larger table, take the
// direct (offset-indexed) mode, so the probes also cover the addresses
// below the prefix and past its end that alias onto occupied home slots
// after masking.
func TestPopulationDrawSequenceMatchesMapReference(t *testing.T) {
	type drawCase struct {
		name string
		v    int
		pfx  string
	}
	cases := []drawCase{
		{"sparse-internet", 2000, ""},
		{"density-1e-4", 1678, "10.0.0.0/8"},
		{"density-0.6", 39322, "10.0.0.0/16"},
		{"dense-prefix", 900, "10.0.0.0/22"}, // 900 of 1024: heavy rejection
		{"full-prefix", 256, "10.0.0.0/24"},
		{"full-prefix-4096", 4096, "10.0.0.0/20"},
	}
	for _, v := range []int{1, popBatch - 1, popBatch, popBatch + 1, 3*popBatch + 7} {
		cases = append(cases,
			drawCase{fmt.Sprintf("v=%d-internet", v), v, ""},
			drawCase{fmt.Sprintf("v=%d-of-128", v), v, "10.0.0.0/25"})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var pfx *Prefix
			var base IP
			size := uint64(SpaceSize)
			if c.pfx != "" {
				p, err := ParsePrefix(c.pfx)
				if err != nil {
					t.Fatal(err)
				}
				pfx, base, size = &p, p.Net, p.Size()
			}
			// Reference: the original map-based rejection sampler.
			ref := make([]IP, 0, c.v)
			seen := make(map[IP]int, c.v)
			src := rng.NewPCG64(1905, 7)
			for len(ref) < c.v {
				ip := base + IP(rng.Uint64n(src, size))
				if _, dup := seen[ip]; dup {
					continue
				}
				seen[ip] = len(ref)
				ref = append(ref, ip)
			}
			refState := src.State() // stream position after the draw

			larger, err := NewPopulation(50000, nil, rng.NewPCG64(3, 3))
			if err != nil {
				t.Fatal(err)
			}
			for _, reuse := range []struct {
				name string
				pop  *Population
			}{{"fresh", &Population{}}, {"reused", larger}} {
				pop := reuse.pop
				src := rng.NewPCG64(1905, 7)
				if err := pop.Repopulate(c.v, pfx, src); err != nil {
					t.Fatal(err)
				}
				if len(pop.addrs) != c.v {
					t.Fatalf("%s: size %d, want %d", reuse.name, len(pop.addrs), c.v)
				}
				for i, want := range ref {
					if pop.Addr(i) != want {
						t.Fatalf("%s: host %d: addr %v, reference %v", reuse.name, i, pop.Addr(i), want)
					}
				}
				if got := src.State(); got != refState {
					t.Fatalf("%s: RNG stream position diverged: %+v != %+v", reuse.name, got, refState)
				}
				for i := 0; i < len(pop.addrs); i++ {
					if got, ok := pop.Lookup(pop.Addr(i)); !ok || got != i {
						t.Fatalf("%s: lookup(%v) = (%d, %v), want (%d, true)",
							reuse.name, pop.Addr(i), got, ok, i)
					}
				}
				if c.name == "density-0.6" && !pop.direct {
					t.Fatalf("%s: the Code-Red density did not take the direct index", reuse.name)
				}
				probe := func(ip IP) {
					wantIdx, want := seen[ip]
					if idx, ok := pop.Lookup(ip); ok != want || (ok && idx != wantIdx) {
						t.Fatalf("%s: lookup(%v) = (%d, %v), reference (%d, %v)",
							reuse.name, ip, idx, ok, wantIdx, want)
					}
				}
				for k := IP(0); k < 4096; k++ {
					probe(base + k)
					probe(base - 1 - k)              // below the prefix
					probe(base + IP(size-1) + 1 + k) // past its end
				}
				n := IP(len(pop.table))
				for _, ip := range ref[:min(len(ref), 4096)] {
					probe(ip - n) // the same home slot as ip's after masking
					probe(ip + n)
				}
			}
		})
	}
}

// TestPopulationModeFlip takes one Population through both indexes and
// back on the same table — a direct draw in a dense prefix, a hashed
// internet-wide draw, a direct restore of another range — and checks
// after each build that the mode is the build's own and that every
// lookup answers from the build's hosts alone: a direct flag carried
// over from the previous build would misplace them.
func TestPopulationModeFlip(t *testing.T) {
	const v = 3000
	dense := mustParsePrefix(t, "10.1.0.0/20") // 4096 addresses, 8192-slot table
	pop := &Population{}
	check := func(stage string, wantDirect bool) {
		t.Helper()
		if pop.direct != wantDirect {
			t.Fatalf("%s: direct = %v, want %v", stage, pop.direct, wantDirect)
		}
		hosts := make(map[IP]int, len(pop.addrs))
		for i, ip := range pop.addrs {
			hosts[ip] = i
		}
		probe := func(ip IP) {
			wantIdx, want := hosts[ip]
			if idx, ok := pop.Lookup(ip); ok != want || (ok && idx != wantIdx) {
				t.Fatalf("%s: lookup(%v) = (%d, %v), want (%d, %v)", stage, ip, idx, ok, wantIdx, want)
			}
		}
		n := IP(len(pop.table))
		for _, ip := range pop.Addrs() {
			probe(ip)
			probe(ip - n)
			probe(ip + n)
		}
		for k := IP(0); k < 2*4096; k++ {
			probe(dense.Net - 4096 + k*2) // around the first draw's prefix
			probe(0xac100000 + k)         // the restore's range
		}
	}
	if err := pop.Repopulate(v, &dense, rng.NewPCG64(9, 1)); err != nil {
		t.Fatal(err)
	}
	check("direct draw", true)
	if err := pop.Repopulate(v, nil, rng.NewPCG64(9, 2)); err != nil {
		t.Fatal(err)
	}
	check("internet draw", false)
	restore := make([]IP, v)
	for i := range restore {
		restore[i] = 0xac100000 + IP(2*((i*7)%v)) // 172.16.0.0 onward, shuffled, span 5998
	}
	if err := pop.RestoreAddrs(restore); err != nil {
		t.Fatal(err)
	}
	check("direct restore", true)
}

// TestPopulationRepopulateReuse redraws through one Population at
// mixed sizes and checks each draw matches a fresh construction —
// the table clear and slice reuse must not leak state across draws.
func TestPopulationRepopulateReuse(t *testing.T) {
	pop := &Population{}
	for _, v := range []int{1000, 10, 4000, 1000} {
		if err := pop.Repopulate(v, nil, rng.NewPCG64(uint64(v), 1)); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPopulation(v, nil, rng.NewPCG64(uint64(v), 1))
		if err != nil {
			t.Fatal(err)
		}
		if len(pop.addrs) != len(fresh.addrs) {
			t.Fatalf("v=%d: size %d != %d", v, len(pop.addrs), len(fresh.addrs))
		}
		for i := 0; i < v; i++ {
			if pop.Addr(i) != fresh.Addr(i) {
				t.Fatalf("v=%d: host %d diverges after reuse", v, i)
			}
			if got, ok := pop.Lookup(fresh.Addr(i)); !ok || got != i {
				t.Fatalf("v=%d: lookup(%v) = (%d, %v) after reuse",
					v, fresh.Addr(i), got, ok)
			}
		}
		// Addresses from a larger previous draw must be gone.
		misses := 0
		for probe := IP(0); probe < 4096; probe++ {
			if _, ok := pop.Lookup(probe); !ok {
				misses++
			}
		}
		if misses == 0 {
			t.Fatal("no misses at all — stale table entries suspected")
		}
	}
}

func TestPopulationMemory(t *testing.T) {
	pop, _ := NewPopulation(10000, nil, rng.NewPCG64(8, 0))
	got := pop.Memory()
	// 10k addresses (4B each) plus a 16384-slot table (12B/slot,
	// rounded up to 8B keys+vals pairs = 16k*(4+..)): just sanity-check
	// the order of magnitude and monotonicity.
	if got < 10000*4 || got > 1<<22 {
		t.Fatalf("Memory() = %d, outside sane bounds", got)
	}
	big, _ := NewPopulation(100000, nil, rng.NewPCG64(8, 0))
	if big.Memory() <= got {
		t.Fatal("Memory() not monotone in population size")
	}
	var empty Population
	if _, ok := empty.Lookup(IP(1)); ok {
		t.Fatal("zero-value Population must miss")
	}
	// The filter is counted in hashed mode and only there, and
	// EstimateMemory predicts an internet-wide (hashed) draw exactly.
	slab, table := uint64(cap(pop.addrs))*4, uint64(len(pop.table))*8
	if pop.direct || got != slab+table+filterBits(len(pop.table))/8 {
		t.Fatalf("hashed: Memory() = %d, want slab %d + table %d + filter %d",
			got, slab, table, filterBits(len(pop.table))/8)
	}
	if est := EstimateMemory(10000); est != got {
		t.Fatalf("EstimateMemory(10000) = %d, a drawn population has %d", est, got)
	}
	dense, _ := ParsePrefix("10.0.0.0/16")
	if err := pop.Repopulate(40000, &dense, rng.NewPCG64(8, 1)); err != nil {
		t.Fatal(err)
	}
	if !pop.direct || pop.Memory() != uint64(cap(pop.addrs))*4+uint64(len(pop.table))*8 {
		t.Fatalf("direct: Memory() = %d, want slab and table only", pop.Memory())
	}
}

// Addrs returns a copy of all host addresses (index order).
func (p *Population) Addrs() []IP {
	out := make([]IP, len(p.addrs))
	copy(out, p.addrs)
	return out
}

// checkFilter checks p's filter against the one its hosts alone
// define: in hashed mode exactly the bits of p's addresses are set, so
// a bit left from an earlier build, or one a build missed, fails; in
// direct mode there is no filter.
func checkFilter(t *testing.T, stage string, p *Population) {
	t.Helper()
	if p.direct {
		if p.filter != nil || p.fmask != 0 {
			t.Fatalf("%s: direct population keeps a %d-word filter", stage, len(p.filter))
		}
		return
	}
	bits := filterBits(len(p.table))
	if uint64(len(p.filter))*64 != bits || uint64(p.fmask) != bits-1 {
		t.Fatalf("%s: %d-word filter, mask %#x, for %d slots", stage, len(p.filter), p.fmask, len(p.table))
	}
	want := make([]uint64, len(p.filter))
	for _, ip := range p.addrs {
		h := hashIP(ip) & p.fmask
		want[h>>6] |= 1 << (h & 63)
	}
	for w := range want {
		if p.filter[w] != want[w] {
			t.Fatalf("%s: filter word %d = %#x, its hosts set %#x", stage, w, p.filter[w], want[w])
		}
	}
}

// filterSet reports whether ip's filter bit is set.
func filterSet(p *Population, ip IP) bool {
	h := hashIP(ip) & p.fmask
	return p.filter[h>>6]&(1<<(h&63)) != 0
}

// probeAgainstMap checks Lookup against a map of p's own hosts for
// every host and for n addresses drawn uniformly over the whole space,
// and returns how many of the drawn non-hosts had their filter bit set
// and so were answered by the probe loop rather than by the filter.
func probeAgainstMap(t *testing.T, stage string, p *Population, n int, src rng.Source) (fallThrough int) {
	t.Helper()
	hosts := make(map[IP]int, len(p.addrs))
	for i, ip := range p.addrs {
		hosts[ip] = i
	}
	probe := func(ip IP) {
		wantIdx, want := hosts[ip]
		if idx, ok := p.Lookup(ip); ok != want || (ok && idx != wantIdx) {
			t.Fatalf("%s: lookup(%v) = (%d, %v), want (%d, %v)", stage, ip, idx, ok, wantIdx, want)
		}
		if _, host := hosts[ip]; !host && !p.direct && filterSet(p, ip) {
			fallThrough++
		}
	}
	for _, ip := range p.addrs {
		probe(ip)
	}
	for k := 0; k < n; k++ {
		probe(IP(rng.Uint64n(src, SpaceSize)))
	}
	return fallThrough
}

// TestPopulationFilterNoStaleBits draws a smaller hashed population into
// the table and filter of a larger hashed draw: the filter must hold the
// new hosts' bits and nothing else, and every host of the larger draw
// that is not in the smaller must miss.
func TestPopulationFilterNoStaleBits(t *testing.T) {
	pop, err := NewPopulation(50000, nil, rng.NewPCG64(11, 1))
	if err != nil {
		t.Fatal(err)
	}
	checkFilter(t, "larger draw", pop)
	earlier := pop.Addrs()
	if err := pop.Repopulate(3000, nil, rng.NewPCG64(11, 2)); err != nil {
		t.Fatal(err)
	}
	checkFilter(t, "smaller draw", pop)
	hosts := make(map[IP]bool, len(pop.addrs))
	for _, ip := range pop.addrs {
		hosts[ip] = true
	}
	for _, ip := range earlier {
		if _, ok := pop.Lookup(ip); ok != hosts[ip] {
			t.Fatalf("earlier host %v: lookup hit = %v, want %v", ip, ok, hosts[ip])
		}
	}
	probeAgainstMap(t, "smaller draw", pop, 1<<16, rng.NewPCG64(11, 3))
}

// TestPopulationFilterModeFlip takes one Population from a hashed draw
// to a direct draw and back: the direct build must drop the filter, and
// the second hashed build must build one from its own hosts alone.
func TestPopulationFilterModeFlip(t *testing.T) {
	const v = 3000
	dense := mustParsePrefix(t, "10.1.0.0/20") // 4096 addresses, 8192-slot table
	pop := &Population{}
	for _, step := range []struct {
		stage  string
		pfx    *Prefix
		stream uint64
	}{{"hashed", nil, 1}, {"direct", &dense, 2}, {"hashed again", nil, 3}} {
		if err := pop.Repopulate(v, step.pfx, rng.NewPCG64(12, step.stream)); err != nil {
			t.Fatal(err)
		}
		if pop.direct != (step.pfx != nil) {
			t.Fatalf("%s: direct = %v", step.stage, pop.direct)
		}
		checkFilter(t, step.stage, pop)
		probeAgainstMap(t, step.stage, pop, 1<<16, rng.NewPCG64(12, 10+step.stream))
		for k := IP(0); k < 4096; k++ {
			if idx, ok := pop.Lookup(dense.Net + k); ok && pop.Addr(idx) != dense.Net+k {
				t.Fatalf("%s: lookup(%v) names host %d at %v", step.stage, dense.Net+k, idx, pop.Addr(idx))
			}
		}
	}
}

// TestRestoreAddrsHashedFilter restores a list spread wider than its
// table, into a fresh Population and into one that holds a larger
// hashed draw, and checks that both build the filter the list's hosts
// define and answer like the drawn original.
func TestRestoreAddrsHashedFilter(t *testing.T) {
	orig, err := NewPopulation(20000, nil, rng.NewPCG64(13, 1))
	if err != nil {
		t.Fatal(err)
	}
	larger, err := NewPopulation(100000, nil, rng.NewPCG64(13, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pop  *Population
	}{{"fresh", &Population{}}, {"reused", larger}} {
		if err := c.pop.RestoreAddrs(orig.Addrs()); err != nil {
			t.Fatal(err)
		}
		if c.pop.direct {
			t.Fatalf("%s: direct restore of an internet-wide list", c.name)
		}
		checkFilter(t, c.name, c.pop)
		probeAgainstMap(t, c.name, c.pop, 1<<16, rng.NewPCG64(13, 3))
	}
}

// TestPopulationFilterSweep compares Lookup with a map of the hosts over
// a million addresses drawn across the whole space, at the paper's
// density (360 000 hosts in 2^32) and at a denser one, and requires the
// sweep to reach the probe loop through addresses whose filter bit is
// set but which hold no host: the filter may say "maybe", never "no"
// for a host.
func TestPopulationFilterSweep(t *testing.T) {
	for _, v := range []int{360_000, 5000} {
		pop, err := NewPopulation(v, nil, rng.NewPCG64(14, uint64(v)))
		if err != nil {
			t.Fatal(err)
		}
		stage := fmt.Sprintf("v=%d", v)
		checkFilter(t, stage, pop)
		if n := probeAgainstMap(t, stage, pop, 1<<20, rng.NewPCG64(15, uint64(v))); n < 100 {
			t.Fatalf("%s: %d of 2^20 probes fell through the filter; the probe loop went untested", stage, n)
		}
	}
}
