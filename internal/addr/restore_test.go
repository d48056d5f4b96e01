package addr

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"wormcontain/internal/rng"
)

// TestRestorePopulationRoundTrip checks that a population rebuilt from
// its exported address list answers every lookup identically to the
// original — the checkpoint/restore contract.
func TestRestorePopulationRoundTrip(t *testing.T) {
	pfx := mustParsePrefix(t, "10.20.0.0/16")
	for _, tc := range []struct {
		v                           int
		cluster                     *Prefix
		drawnDirect, restoredDirect bool // which builds take the direct index
	}{
		{1, nil, false, true}, // one address spans nothing
		{100, nil, false, false},
		{5000, &pfx, false, false},
		{30000, &pfx, true, true}, // density 0.46
	} {
		src := rng.NewPCG64(1905, 4)
		orig, err := NewPopulation(tc.v, tc.cluster, src)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestorePopulation(orig.Addrs())
		if err != nil {
			t.Fatal(err)
		}
		if len(restored.addrs) != len(orig.addrs) {
			t.Fatalf("size %d != %d", len(restored.addrs), len(orig.addrs))
		}
		for i := 0; i < len(orig.addrs); i++ {
			ip := orig.Addr(i)
			if got := restored.Addr(i); got != ip {
				t.Fatalf("host %d: addr %v != %v", i, got, ip)
			}
			idx, ok := restored.Lookup(ip)
			if !ok || idx != i {
				t.Fatalf("host %d: lookup %v -> %d %v", i, ip, idx, ok)
			}
		}
		if orig.direct != tc.drawnDirect || restored.direct != tc.restoredDirect {
			t.Fatalf("v=%d: direct = %v drawn, %v restored, want %v, %v",
				tc.v, orig.direct, restored.direct, tc.drawnDirect, tc.restoredDirect)
		}
		// Misses stay misses, inside the prefix and out of it.
		probe := rng.NewPCG64(3, 3)
		for k := 0; k < 2000; k++ {
			ip := IP(rng.Uint64n(probe, SpaceSize))
			if k%2 == 0 {
				ip = pfx.Net + IP(rng.Uint64n(probe, pfx.Size()))
			}
			wantIdx, want := orig.Lookup(ip)
			gotIdx, got := restored.Lookup(ip)
			if want != got || (want && wantIdx != gotIdx) {
				t.Fatalf("lookup %v: restored (%d,%v) != original (%d,%v)",
					ip, gotIdx, got, wantIdx, want)
			}
		}
	}
}

// TestRestoreAddrsReuse checks the in-place restore over a previously
// populated arena, including a shrink, and the duplicate rejection.
func TestRestoreAddrsReuse(t *testing.T) {
	src := rng.NewPCG64(7, 0)
	p, err := NewPopulation(4096, nil, src)
	if err != nil {
		t.Fatal(err)
	}
	small := []IP{9, 1, 5, 0xffffffff}
	if err := p.RestoreAddrs(small); err != nil {
		t.Fatal(err)
	}
	if len(p.addrs) != len(small) {
		t.Fatalf("size = %d, want %d", len(p.addrs), len(small))
	}
	for i, ip := range small {
		if idx, ok := p.Lookup(ip); !ok || idx != i {
			t.Fatalf("lookup %v -> %d %v, want %d", ip, idx, ok, i)
		}
	}
	if _, ok := p.Lookup(2); ok {
		t.Fatal("stale entry survived restore")
	}
	if err := p.RestoreAddrs([]IP{1, 2, 1}); err == nil {
		t.Fatal("duplicate address accepted")
	}
	if err := p.RestoreAddrs(nil); err == nil {
		t.Fatal("empty restore accepted")
	}
}

// TestRestoreAddrsDuplicatePositions plants one duplicated address at
// every position the batched build treats differently — both copies in
// one batch, one on each side of a batch boundary, first and last
// element of the list — and checks that each is still rejected with the
// duplicate error, and that the same Population then restores the clean
// list correctly. Each position is tried on a list spread wider than the
// table (the hashed, batched build) and on a contiguous one (the direct
// build, where a duplicate is a filled home slot). Last, a direct list
// long enough to be shared by slot range between two workers gets two
// different duplicates, one in each worker's range: the error must
// name the one whose second copy comes first in the list, whichever
// worker finds it, as the serial build does.
func TestRestoreAddrsDuplicatePositions(t *testing.T) {
	const n = 3*popBatch + 7
	type list struct {
		name   string
		direct bool
		clean  []IP
	}
	var lists []list
	for _, l := range []struct {
		name   string
		stride int
	}{{"hashed", 977}, {"direct", 1}} {
		clean := make([]IP, n)
		for i := range clean {
			clean[i] = IP(0x0a000000 + l.stride*(n-1-i))
		}
		lists = append(lists, list{l.name, l.stride == 1, clean})
	}
	p := &Population{}
	for _, c := range []struct {
		name     string
		src, dst int // addrs[dst] = addrs[src]
	}{
		{"adjacent-in-first-batch", 3, 4},
		{"ends-of-one-batch", popBatch, 2*popBatch - 1},
		{"straddling-boundary", popBatch - 1, popBatch},
		{"two-batches-apart", 5, 2*popBatch + 5},
		{"first-and-last", 0, n - 1},
		{"in-short-last-batch", 3 * popBatch, n - 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, l := range lists {
				bad := append([]IP(nil), l.clean...)
				bad[c.dst] = bad[c.src]
				err := p.RestoreAddrs(bad)
				if err == nil || !strings.Contains(err.Error(), "duplicate address "+bad[c.src].String()) {
					t.Fatalf("%s: RestoreAddrs = %v, want the duplicate-address error for %v", l.name, err, bad[c.src])
				}
				if err := p.RestoreAddrs(l.clean); err != nil {
					t.Fatalf("%s: restore after a rejected one: %v", l.name, err)
				}
				if len(p.addrs) != n || p.direct != l.direct {
					t.Fatalf("%s: size %d, direct %v, want %d, %v", l.name, len(p.addrs), p.direct, n, l.direct)
				}
				for i, ip := range l.clean {
					if idx, ok := p.Lookup(ip); !ok || idx != i || p.Addr(i) != ip {
						t.Fatalf("%s: host %d: lookup %v -> %d %v, addr %v", l.name, i, ip, idx, ok, p.Addr(i))
					}
				}
			}
		})
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const long = restoreSplitMin + 7
	clean := make([]IP, long)
	for i := range clean {
		clean[i] = IP(0x0a000000 + long - 1 - i) // host i in slot long-1-i
	}
	if err := p.RestoreAddrs(clean); err != nil {
		t.Fatal(err)
	}
	// Host 1 is filed by the upper worker and host 50 by the lower one.
	if half := uint32(len(p.table) / 2); !p.direct || p.home(clean[1]) < half || p.home(clean[50]) >= half {
		t.Fatalf("direct %v, homes %d and %d of %d slots: hosts 1 and 50 not in different halves",
			p.direct, p.home(clean[1]), p.home(clean[50]), len(p.table))
	}
	for _, c := range []struct {
		name         string
		upper, lower int // index of each duplicate's second copy
		want         int // the host whose address the error names
	}{
		{"split/upper-worker-first", 100, 200, 1},
		{"split/lower-worker-first", 300, 200, 50},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := append([]IP(nil), clean...)
			bad[c.upper], bad[c.lower] = clean[1], clean[50]
			err := p.RestoreAddrs(bad)
			if err == nil || !strings.Contains(err.Error(), "duplicate address "+clean[c.want].String()) {
				t.Fatalf("RestoreAddrs = %v, want the duplicate-address error for %v", err, clean[c.want])
			}
			if err := p.RestoreAddrs(clean); err != nil {
				t.Fatalf("restore after a rejected one: %v", err)
			}
			for i, ip := range clean {
				if idx, ok := p.Lookup(ip); !ok || idx != i || p.Addr(i) != ip {
					t.Fatalf("host %d: lookup %v -> %d %v, addr %v", i, ip, idx, ok, p.Addr(i))
				}
			}
		})
	}
}

// TestRestoreAddrsWorkerCount restores one direct list, long enough to
// be split, under one, two and three workers, into a fresh population
// and into one that keeps a larger table from an earlier draw. The
// table, the mode and every lookup in and around the list's span must
// not depend on the worker count.
func TestRestoreAddrsWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	pfx := mustParsePrefix(t, "10.64.0.0/14")
	orig, err := NewPopulation(3*restoreSplitMin, &pfx, rng.NewPCG64(1905, 9))
	if err != nil {
		t.Fatal(err)
	}
	addrs := orig.Addrs()
	refs := map[int][]popSlot{} // GOMAXPROCS 1's table, by size
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		larger, err := NewPopulation(1<<19, nil, rng.NewPCG64(7, 7))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*Population{{}, larger} {
			if err := p.RestoreAddrs(addrs); err != nil {
				t.Fatal(err)
			}
			if !p.direct {
				t.Fatalf("GOMAXPROCS %d, %d slots: hashed build, want direct", procs, len(p.table))
			}
			if ref, ok := refs[len(p.table)]; !ok {
				refs[len(p.table)] = p.table
			} else if !slices.Equal(p.table, ref) {
				t.Fatalf("GOMAXPROCS %d, %d slots: table differs from GOMAXPROCS 1", procs, len(p.table))
			}
			for ip := pfx.Net - 1024; ip < pfx.Net+IP(pfx.Size())+1024; ip++ {
				wantIdx, want := orig.Lookup(ip)
				if idx, ok := p.Lookup(ip); ok != want || idx != wantIdx {
					t.Fatalf("GOMAXPROCS %d, %d slots: lookup %v -> %d %v, want %d %v",
						procs, len(p.table), ip, idx, ok, wantIdx, want)
				}
			}
		}
	}
}

// TestRestoreAddrsSpanBoundary restores lists whose span sits on either
// side of the direct-mode bound. Two addresses exactly len(table) apart
// share their low bits, so a list spanning the table's size must take
// the hashed build; one address less apart and it is direct.
func TestRestoreAddrsSpanBoundary(t *testing.T) {
	const v, slots = 16, 32 // tableSize(16)
	for _, c := range []struct {
		span   IP
		direct bool
	}{{slots - 1, true}, {slots, false}, {slots + 1, false}} {
		addrs := []IP{0x0a000000 + c.span}
		for i := IP(0); i < v-1; i++ {
			addrs = append(addrs, 0x0a000000+i)
		}
		p, err := RestorePopulation(addrs)
		if err != nil {
			t.Fatalf("span %d: %v", c.span, err)
		}
		if len(p.table) != slots || p.direct != c.direct {
			t.Fatalf("span %d: %d slots, direct %v, want %d, %v", c.span, len(p.table), p.direct, slots, c.direct)
		}
		for i, ip := range addrs {
			if idx, ok := p.Lookup(ip); !ok || idx != i {
				t.Fatalf("span %d: lookup %v -> %d %v, want %d", c.span, ip, idx, ok, i)
			}
		}
	}
}

func mustParsePrefix(t *testing.T, s string) Prefix {
	t.Helper()
	p, err := ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRestoreAddrsConcurrentSplit restores two direct lists long enough
// to be split, each into its own Population, from two goroutines at
// once, several times over: the restores share one set of workers and
// must each build their own table.
func TestRestoreAddrsConcurrentSplit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pfx := []Prefix{mustParsePrefix(t, "10.64.0.0/15"), mustParsePrefix(t, "172.16.0.0/15")}
	var origs [2]*Population
	for k := range origs {
		var err error
		if origs[k], err = NewPopulation(restoreSplitMin+restoreSplitMin/2, &pfx[k], rng.NewPCG64(1905, uint64(20+k))); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, len(origs))
	for k := range origs {
		go func(orig *Population) {
			addrs := orig.Addrs()
			p := &Population{}
			for round := 0; round < 4; round++ {
				if err := p.RestoreAddrs(addrs); err != nil {
					errs <- err
					return
				}
				if !p.direct || !slices.Equal(p.addrs, addrs) {
					errs <- fmt.Errorf("round %d: direct %v, addresses differ", round, p.direct)
					return
				}
				for i, ip := range addrs {
					if idx, ok := p.Lookup(ip); !ok || idx != i {
						errs <- fmt.Errorf("round %d: lookup %v -> %d %v, want %d", round, ip, idx, ok, i)
						return
					}
				}
			}
			errs <- nil
		}(origs[k])
	}
	for range origs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
