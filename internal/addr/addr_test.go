package addr

import (
	"testing"
	"testing/quick"
)

func TestIPString(t *testing.T) {
	cases := map[IP]string{
		0:          "0.0.0.0",
		0xffffffff: "255.255.255.255",
		0xc0a80101: "192.168.1.1",
		0x08080808: "8.8.8.8",
		1:          "0.0.0.1",
		0x7f000001: "127.0.0.1",
	}
	for ip, want := range cases {
		if got := ip.String(); got != want {
			t.Errorf("IP(%#x).String() = %q, want %q", uint32(ip), got, want)
		}
	}
}

func TestParseIPRoundTrip(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "255.255.255.255", "10.1.2.3", "192.168.1.1"} {
		ip, err := ParseIP(s)
		if err != nil {
			t.Fatalf("ParseIP(%q): %v", s, err)
		}
		if got := ip.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseIPErrors(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "-1.2.3.4", "a.b.c.d", "01.2.3.4", "1..2.3"}
	for _, s := range bad {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) succeeded, want error", s)
		}
	}
}

func TestPrefixBasics(t *testing.T) {
	p, err := ParsePrefix("10.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 1<<24 {
		t.Errorf("size = %d, want 2^24", p.Size())
	}
	in, _ := ParseIP("10.255.0.1")
	out, _ := ParseIP("11.0.0.1")
	if !p.Contains(in) {
		t.Errorf("%v should contain %v", p, in)
	}
	if p.Contains(out) {
		t.Errorf("%v should not contain %v", p, out)
	}
	if got := p.String(); got != "10.0.0.0/8" {
		t.Errorf("String = %q", got)
	}
}

func TestNewPrefixCanonicalizes(t *testing.T) {
	ip, _ := ParseIP("10.1.2.3")
	p, err := newPrefix(ip, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ParseIP("10.0.0.0")
	if p.Net != want {
		t.Errorf("network = %v, want %v", p.Net, want)
	}
}

func TestNewPrefixValidation(t *testing.T) {
	if _, err := newPrefix(0, -1); err == nil {
		t.Error("expected error for negative bits")
	}
	if _, err := newPrefix(0, 33); err == nil {
		t.Error("expected error for bits > 32")
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, s := range []string{"10.0.0.0", "10.0.0.0/x", "300.0.0.0/8", "10.0.0.0/40"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", s)
		}
	}
}

func TestPrefixEdgeLengths(t *testing.T) {
	all, _ := newPrefix(0, 0)
	if all.Size() != SpaceSize {
		t.Errorf("/0 size = %d", all.Size())
	}
	if !all.Contains(0xdeadbeef) {
		t.Error("/0 must contain everything")
	}
	host, _ := newPrefix(42, 32)
	if host.Size() != 1 || !host.Contains(42) || host.Contains(43) {
		t.Error("/32 must contain exactly its own address")
	}
}

func TestSameSubnet(t *testing.T) {
	a, _ := ParseIP("10.1.2.3")
	b, _ := ParseIP("10.1.9.9")
	c, _ := ParseIP("10.2.2.3")
	d, _ := ParseIP("11.1.2.3")
	if !SameSubnet(a, b, 16) || SameSubnet(a, c, 16) {
		t.Error("/16 comparison wrong")
	}
	if !SameSubnet(a, c, 8) || SameSubnet(a, d, 8) {
		t.Error("/8 comparison wrong")
	}
	if !SameSubnet(a, d, 0) {
		t.Error("/0 must match everything")
	}
	if SameSubnet(a, b, 32) || !SameSubnet(a, a, 32) {
		t.Error("/32 must require equality")
	}
}

// Property: String/ParseIP round-trips for any address.
func TestQuickIPRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		ip := IP(raw)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a prefix contains exactly Size() addresses (checked on small
// prefixes by brute force).
func TestQuickPrefixContainsCount(t *testing.T) {
	f := func(raw uint32, bitsRaw uint8) bool {
		bits := 24 + int(bitsRaw%9) // /24../32: enumerable
		p, err := newPrefix(IP(raw), bits)
		if err != nil {
			return false
		}
		count := 0
		for off := uint64(0); off < p.Size(); off++ {
			if p.Contains(p.Net + IP(off)) {
				count++
			}
		}
		return uint64(count) == p.Size() && !p.Contains(p.Net+IP(p.Size()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Contains reports whether the address lies inside the prefix.
func (p Prefix) Contains(ip IP) bool {
	return ip&mask(p.Bits) == p.Net
}

// SameSubnet reports whether two addresses share the leading bits-long
// prefix; subnet-preference scanners use it with bits = 8 and 16.
func SameSubnet(a, b IP, bits int) bool {
	if bits <= 0 {
		return true
	}
	if bits >= 32 {
		return a == b
	}
	return a&mask(bits) == b&mask(bits)
}
