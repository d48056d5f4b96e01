package addr

import (
	"math"
	"testing"

	"wormcontain/internal/rng"
)

func TestUniformCoversSpace(t *testing.T) {
	src := rng.NewPCG64(10, 0)
	var s Uniform
	// First-octet histogram should be roughly flat.
	counts := make([]int, 256)
	const draws = 256 * 400
	for i := 0; i < draws; i++ {
		counts[s.Next(src, 0)>>24]++
	}
	for o, c := range counts {
		if math.Abs(float64(c)-400) > 5*math.Sqrt(400) {
			t.Errorf("octet %d drawn %d times, want ~400", o, c)
		}
	}
}

func TestSubnetPreferenceValidation(t *testing.T) {
	if _, err := NewSubnetPreference(-0.1, 0.5); err == nil {
		t.Error("expected error for negative weight")
	}
	if _, err := NewSubnetPreference(0.6, 0.5); err == nil {
		t.Error("expected error for weights summing > 1")
	}
	if _, err := NewSubnetPreference(0.5, 0.375); err != nil {
		t.Errorf("Code Red II weights rejected: %v", err)
	}
}

func TestSubnetPreferenceMixture(t *testing.T) {
	src := rng.NewPCG64(11, 0)
	s, err := NewSubnetPreference(0.5, 0.375) // Code Red II profile
	if err != nil {
		t.Fatal(err)
	}
	self, _ := ParseIP("10.20.30.40")
	const draws = 100000
	same8, same16 := 0, 0
	for i := 0; i < draws; i++ {
		ip := s.Next(src, self)
		if SameSubnet(ip, self, 8) {
			same8++
		}
		if SameSubnet(ip, self, 16) {
			same16++
		}
	}
	// P(same /16) ≈ 0.375 + tiny uniform/same-8 contribution.
	frac16 := float64(same16) / draws
	if math.Abs(frac16-0.377) > 0.01 {
		t.Errorf("same-/16 fraction %v, want ≈0.377", frac16)
	}
	// P(same /8) ≈ 0.5 + 0.375 + negligible uniform leakage.
	frac8 := float64(same8) / draws
	if math.Abs(frac8-0.879) > 0.01 {
		t.Errorf("same-/8 fraction %v, want ≈0.879", frac8)
	}
}

func TestSubnetPreferenceZeroIsUniform(t *testing.T) {
	src := rng.NewPCG64(12, 0)
	s, _ := NewSubnetPreference(0, 0)
	self, _ := ParseIP("10.20.30.40")
	same8 := 0
	const draws = 200000
	for i := 0; i < draws; i++ {
		if SameSubnet(s.Next(src, self), self, 8) {
			same8++
		}
	}
	// Uniform probability of same /8 is 1/256 ≈ 0.0039.
	frac := float64(same8) / draws
	if math.Abs(frac-1.0/256) > 0.002 {
		t.Errorf("same-/8 fraction %v under zero preference, want ≈1/256", frac)
	}
}

func TestHitListOrderThenFallback(t *testing.T) {
	src := rng.NewPCG64(13, 0)
	list := []IP{100, 200, 300}
	h, err := newHitList(list, Uniform{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range list {
		if h.Remaining() != len(list)-i {
			t.Errorf("remaining = %d before draw %d", h.Remaining(), i)
		}
		if got := h.Next(src, 0); got != want {
			t.Errorf("draw %d = %v, want %v", i, got, want)
		}
	}
	if h.Remaining() != 0 {
		t.Errorf("remaining = %d after exhaustion", h.Remaining())
	}
	// Fallback draws are uniform — just verify they do not panic and
	// differ across calls with overwhelming probability.
	a, b := h.Next(src, 0), h.Next(src, 0)
	if a == b {
		t.Logf("two uniform draws coincided (possible but ~2^-32): %v", a)
	}
}

func TestHitListClone(t *testing.T) {
	h, _ := newHitList([]IP{1, 2}, Uniform{})
	src := rng.NewPCG64(14, 0)
	h.Next(src, 0)
	c := h.Clone()
	if c.Remaining() != 2 {
		t.Errorf("clone remaining = %d, want fresh cursor 2", c.Remaining())
	}
	if h.Remaining() != 1 {
		t.Errorf("original remaining = %d, want 1", h.Remaining())
	}
}

func TestHitListValidation(t *testing.T) {
	if _, err := newHitList([]IP{1}, nil); err == nil {
		t.Error("expected error for nil fallback")
	}
}

func TestHitListCopiesInput(t *testing.T) {
	list := []IP{7}
	h, _ := newHitList(list, Uniform{})
	list[0] = 99
	src := rng.NewPCG64(15, 0)
	if got := h.Next(src, 0); got != 7 {
		t.Errorf("hit list affected by caller mutation: %v", got)
	}
}

func TestRoutableValidation(t *testing.T) {
	if _, err := NewRoutable(nil); err == nil {
		t.Error("expected error for empty prefix list")
	}
}

func TestRoutableStaysInside(t *testing.T) {
	src := rng.NewPCG64(16, 0)
	p1, _ := ParsePrefix("10.0.0.0/8")
	p2, _ := ParsePrefix("192.168.0.0/16")
	r, err := NewRoutable([]Prefix{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	if r.total != p1.Size()+p2.Size() {
		t.Errorf("total = %d", r.total)
	}
	in1, in2 := 0, 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		ip := r.Next(src, 0)
		switch {
		case p1.Contains(ip):
			in1++
		case p2.Contains(ip):
			in2++
		default:
			t.Fatalf("address %v outside both prefixes", ip)
		}
	}
	// Selection is size-weighted: p1 is 256x larger than p2.
	wantFrac := float64(p2.Size()) / float64(p1.Size()+p2.Size())
	gotFrac := float64(in2) / draws
	if math.Abs(gotFrac-wantFrac) > 0.002 {
		t.Errorf("p2 fraction %v, want ≈%v", gotFrac, wantFrac)
	}
}

func TestRoutableSinglePrefixUniform(t *testing.T) {
	src := rng.NewPCG64(17, 0)
	p, _ := ParsePrefix("172.16.0.0/12")
	r, _ := NewRoutable([]Prefix{p})
	for i := 0; i < 10000; i++ {
		if ip := r.Next(src, 0); !p.Contains(ip) {
			t.Fatalf("address %v escaped %v", ip, p)
		}
	}
}

func TestRoutableDensityAmplification(t *testing.T) {
	// Scanning only 1/256 of the space (one /8) amplifies the effective
	// hit rate on hosts inside it by 256x vs uniform — the reason
	// routable-space scanning matters. Verified empirically.
	pfx, _ := ParsePrefix("10.0.0.0/8")
	popSrc := rng.NewPCG64(18, 0)
	pop, err := NewPopulation(4000, &pfx, popSrc)
	if err != nil {
		t.Fatal(err)
	}
	scanSrc := rng.NewPCG64(19, 0)
	r, _ := NewRoutable([]Prefix{pfx})
	var u Uniform
	const draws = 2_000_000
	hitsRoutable, hitsUniform := 0, 0
	for i := 0; i < draws; i++ {
		if _, ok := pop.Lookup(r.Next(scanSrc, 0)); ok {
			hitsRoutable++
		}
		if _, ok := pop.Lookup(u.Next(scanSrc, 0)); ok {
			hitsUniform++
		}
	}
	// Expected hits: routable = draws·4000/2^24 ≈ 477; uniform =
	// draws·4000/2^32 ≈ 1.9. Allow generous Poisson noise bands.
	if hitsRoutable < 350 || hitsRoutable > 620 {
		t.Errorf("routable hits %d, want ≈477", hitsRoutable)
	}
	if hitsUniform > 15 {
		t.Errorf("uniform hits %d, want ≈2", hitsUniform)
	}
}
