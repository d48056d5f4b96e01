package addr

import (
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
		v       int
		cluster *Prefix
	}{
		{1, nil}, {100, nil}, {5000, &pfx},
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
		// Misses stay misses.
		probe := rng.NewPCG64(3, 3)
		for k := 0; k < 1000; k++ {
			ip := IP(rng.Uint64n(probe, SpaceSize))
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
// list correctly.
func TestRestoreAddrsDuplicatePositions(t *testing.T) {
	const n = 3*popBatch + 7
	clean := make([]IP, n)
	for i := range clean {
		clean[i] = IP(0x0a000000 + 977*i)
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
			bad := append([]IP(nil), clean...)
			bad[c.dst] = bad[c.src]
			err := p.RestoreAddrs(bad)
			if err == nil || !strings.Contains(err.Error(), "duplicate address "+bad[c.src].String()) {
				t.Fatalf("RestoreAddrs = %v, want the duplicate-address error for %v", err, bad[c.src])
			}
			if err := p.RestoreAddrs(clean); err != nil {
				t.Fatalf("restore after a rejected one: %v", err)
			}
			if len(p.addrs) != n {
				t.Fatalf("size %d, want %d", len(p.addrs), n)
			}
			for i, ip := range clean {
				if idx, ok := p.Lookup(ip); !ok || idx != i || p.Addr(i) != ip {
					t.Fatalf("host %d: lookup %v -> %d %v, addr %v", i, ip, idx, ok, p.Addr(i))
				}
			}
		})
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
