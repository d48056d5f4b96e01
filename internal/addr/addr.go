// Package addr models the IPv4 address space that scanning worms probe:
// address arithmetic, the placement of vulnerable hosts at random
// addresses, and the scanning strategies worms use to pick targets —
// uniform scanning (the paper's model), subnet-preference scanning (the
// Section VI future-work extension, as used by Code Red II/Nimda), and
// hit-list scanning (Staniford's "Warhol worm" accelerant).
package addr

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address as a big-endian 32-bit integer. The whole
// simulator works on this representation; dotted-quad strings appear only
// at the CLI boundary.
type IP uint32

// SpaceSize is the number of addresses in the IPv4 space.
const SpaceSize = 1 << 32

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	var b strings.Builder
	b.Grow(15)
	b.WriteString(strconv.Itoa(int(ip >> 24)))
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(int(ip >> 16 & 0xff)))
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(int(ip >> 8 & 0xff)))
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(int(ip & 0xff)))
	return b.String()
}

// ParseIP parses a dotted-quad IPv4 address. It allocates nothing on
// the success path: the gateway parses two addresses per connection, so
// the strings.Split of the naive form was a measurable share of the
// per-connection allocation budget. Octets are strictly decimal digits
// with no leading zeros.
func ParseIP(s string) (IP, error) {
	var ip uint32
	i := 0
	for octet := 0; octet < 4; octet++ {
		if octet > 0 {
			if i >= len(s) || s[i] != '.' {
				return 0, fmt.Errorf("addr: %q is not a dotted-quad IPv4 address", s)
			}
			i++
		}
		start := i
		n := 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			n = n*10 + int(s[i]-'0')
			if n > 255 {
				return 0, fmt.Errorf("addr: %q has invalid octet %q", s, s[start:])
			}
			i++
		}
		if i == start || (i-start > 1 && s[start] == '0') {
			return 0, fmt.Errorf("addr: %q has invalid octet %q", s, s[start:i])
		}
		ip = ip<<8 | uint32(n)
	}
	if i != len(s) {
		return 0, fmt.Errorf("addr: %q is not a dotted-quad IPv4 address", s)
	}
	return IP(ip), nil
}

// Prefix is a CIDR prefix (network address plus mask length).
type Prefix struct {
	Net  IP
	Bits int // mask length in [0, 32]
}

// newPrefix validates and canonicalizes a prefix (host bits are zeroed).
func newPrefix(network IP, bits int) (Prefix, error) {
	if bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("addr: prefix length %d out of [0, 32]", bits)
	}
	return Prefix{Net: network & mask(bits), Bits: bits}, nil
}

// ParsePrefix parses "a.b.c.d/n" CIDR notation.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("addr: %q is missing the /bits suffix", s)
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil {
		return Prefix{}, fmt.Errorf("addr: %q has invalid prefix length", s)
	}
	return newPrefix(ip, bits)
}

// mask returns the netmask for a prefix length.
func mask(bits int) IP {
	if bits == 0 {
		return 0
	}
	return IP(^uint32(0) << (32 - bits))
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 {
	return 1 << (32 - p.Bits)
}

// String renders CIDR notation.
func (p Prefix) String() string {
	return p.Net.String() + "/" + strconv.Itoa(p.Bits)
}
