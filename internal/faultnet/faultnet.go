// Package faultnet provides deterministic network fault injection and
// the retry/backoff primitives that make the gateway fleet survive it.
//
// The paper's containment scheme is only as good as the substrate it
// runs on: during a real outbreak, gateways relay scans and push fleet
// reports over exactly the network the worm is saturating. Follow-on
// work (Zhou et al.'s connection-failure modeling, Shakkottai &
// Srikant's worm-defense overlays) treats messy failure behavior as the
// operating regime, not the exception. This package makes that regime
// testable: net.Conn and dialer wrappers inject dial
// failures, connection resets, latency, stalls, short writes and byte
// corruption according to a schedule drawn from a seeded rng.PCG64
// stream — the same seed always produces the same fault sequence for
// the same operation sequence, so chaos tests replay bit-identically.
//
// The companion retry.go provides RetryConfig/Backoff, the capped
// exponential backoff with deterministic jitter that the gateway's
// upstream dial and the client use to ride out the injected (and real)
// faults.
package faultnet

import (
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wormcontain/internal/rng"
)

// Fault identifies one kind of injected failure.
type Fault int

const (
	// faultNone means the operation proceeds untouched.
	faultNone Fault = iota
	// faultDialFail makes a dial return an error without connecting.
	faultDialFail
	// faultReset closes the underlying connection and surfaces an error,
	// imitating a peer RST mid-conversation.
	faultReset
	// faultLatency delays the operation by a duration drawn from
	// [LatencyLow, LatencyHigh].
	faultLatency
	// faultStall blocks the operation for StallFor before proceeding —
	// long enough to trip deadlines, unlike ordinary latency.
	faultStall
	// faultShortWrite delivers only a prefix of the buffer and returns
	// an error, the partial-write behavior of a congested socket.
	faultShortWrite
	// faultCorrupt flips one byte of a completed read.
	faultCorrupt

	numFaults
)

// String implements fmt.Stringer with stable names (they appear in
// traces that tests compare byte-for-byte).
func (f Fault) String() string {
	switch f {
	case faultNone:
		return "none"
	case faultDialFail:
		return "dialfail"
	case faultReset:
		return "reset"
	case faultLatency:
		return "latency"
	case faultStall:
		return "stall"
	case faultShortWrite:
		return "shortwrite"
	case faultCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// Op identifies which network operation a fault decision applies to.
type Op int

const (
	// opDial is a connection-establishment attempt.
	opDial Op = iota
	// opRead is one Read call on a wrapped connection.
	opRead
	// opWrite is one Write call on a wrapped connection.
	opWrite
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case opDial:
		return "dial"
	case opRead:
		return "read"
	case opWrite:
		return "write"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Profile sets the per-operation probability of each fault and the
// magnitude of the time-based ones. The zero Profile injects nothing.
type Profile struct {
	// DialFail is P(a dial attempt errors out) per opDial.
	DialFail float64
	// Reset is P(injected connection reset) per Read/Write.
	Reset float64
	// Latency is P(added delay) per Read/Write.
	Latency float64
	// LatencyLow/LatencyHigh bound the injected delay (defaults 1–10ms).
	LatencyLow  time.Duration
	LatencyHigh time.Duration
	// ShortWrite is P(partial delivery) per Write.
	ShortWrite float64
	// Stall is P(the op blocks for StallFor) per Read/Write.
	Stall float64
	// StallFor is the stall duration (default 100ms).
	StallFor time.Duration
	// Corrupt is P(one byte of the result is flipped) per Read.
	Corrupt float64
}

// withDefaults fills zero durations with usable magnitudes.
func (p Profile) withDefaults() Profile {
	if p.LatencyLow <= 0 {
		p.LatencyLow = time.Millisecond
	}
	if p.LatencyHigh < p.LatencyLow {
		p.LatencyHigh = 10 * time.Millisecond
		if p.LatencyHigh < p.LatencyLow {
			p.LatencyHigh = p.LatencyLow
		}
	}
	if p.StallFor <= 0 {
		p.StallFor = 100 * time.Millisecond
	}
	return p
}

// String renders the profile in the key=value form ParseProfile accepts,
// omitting zero-probability faults.
func (p Profile) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("dialfail", p.DialFail)
	add("reset", p.Reset)
	add("latency", p.Latency)
	add("shortwrite", p.ShortWrite)
	add("stall", p.Stall)
	add("corrupt", p.Corrupt)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseProfile parses a comma-separated key=value fault profile, e.g.
//
//	dialfail=0.1,reset=0.05,latency=0.2,latency-low=1ms,latency-high=20ms,
//	shortwrite=0.1,stall=0.02,stall-for=150ms,corrupt=0.01
//
// Probability keys take floats in [0, 1]; duration keys take Go
// durations. An empty string yields the zero (no-fault) profile.
func ParseProfile(s string) (Profile, error) {
	var p Profile
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Profile{}, fmt.Errorf("faultnet: bad profile term %q (want key=value)", kv)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "latency-low", "latency-high", "stall-for":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Profile{}, fmt.Errorf("faultnet: bad duration %q for %s", val, key)
			}
			switch key {
			case "latency-low":
				p.LatencyLow = d
			case "latency-high":
				p.LatencyHigh = d
			case "stall-for":
				p.StallFor = d
			}
			continue
		}
		prob, err := strconv.ParseFloat(val, 64)
		if err != nil || prob < 0 || prob > 1 {
			return Profile{}, fmt.Errorf("faultnet: bad probability %q for %s (want [0,1])", val, key)
		}
		switch key {
		case "dialfail":
			p.DialFail = prob
		case "reset":
			p.Reset = prob
		case "latency":
			p.Latency = prob
		case "shortwrite":
			p.ShortWrite = prob
		case "stall":
			p.Stall = prob
		case "corrupt":
			p.Corrupt = prob
		default:
			return Profile{}, fmt.Errorf("faultnet: unknown profile key %q", key)
		}
	}
	return p, nil
}

// Event is one fault decision in an Injector's schedule: the n-th
// operation presented to the injector and what it decided to do.
type Event struct {
	// Seq numbers decisions from 1 in the order they were drawn.
	Seq uint64
	// Op is the operation the decision applies to.
	Op Op
	// Fault is the injected fault (faultNone for a clean pass).
	Fault Fault
	// Delay is the injected latency/stall duration (zero otherwise).
	Delay time.Duration
	// Aux parameterizes the fault (corrupt position/bits, short-write
	// prefix selector); zero when unused.
	Aux uint64
}

// String renders one trace line; TraceString joins them.
func (e Event) String() string {
	return fmt.Sprintf("%d %s %s %d %d", e.Seq, e.Op, e.Fault, e.Delay.Nanoseconds(), e.Aux)
}

// maxTrace bounds the recorded schedule so long chaos runs cannot grow
// memory without bound; decisions beyond it still happen, just
// unrecorded.
const maxTrace = 1 << 14

// InjectedError is the error surfaced by every injected failure, so
// callers (and tests) can tell synthetic faults from real ones with
// errors.As.
type InjectedError struct {
	// Fault is the failure kind that produced this error.
	Fault Fault
}

// Error implements error.
func (e *InjectedError) Error() string {
	return "faultnet: injected " + e.Fault.String()
}

// Timeout implements the net.Error timeout probe (always false: the
// injected faults model hard failures, not deadline expiry).
func (e *InjectedError) Timeout() bool { return false }

// Temporary reports injected faults as transient — retrying is exactly
// the behavior under test.
func (e *InjectedError) Temporary() bool { return true }

// Injector draws a deterministic fault schedule from a seeded PCG64
// stream and applies it to wrapped dials and conns. It is
// safe for concurrent use; decisions are serialized, so the schedule is
// a pure function of the seed and the order operations reach the
// injector. Single-goroutine drivers therefore replay bit-identically
// (see TraceString).
type Injector struct {
	profile Profile
	sleep   func(time.Duration)

	mu     sync.Mutex
	src    *rng.PCG64
	seq    uint64
	trace  []Event
	counts [numFaults]uint64
}

// New returns an injector for the profile whose schedule is seeded by
// seed. The same (profile, seed) pair always yields the same schedule.
func New(profile Profile, seed uint64) *Injector {
	return &Injector{
		profile: profile.withDefaults(),
		sleep:   time.Sleep,
		src:     rng.NewPCG64(seed, 0x0fa17),
	}
}

// SetSleep overrides how injected delays are realized (tests use a
// recording no-op so stall-heavy schedules run instantly).
func (in *Injector) SetSleep(sleep func(time.Duration)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if sleep == nil {
		sleep = time.Sleep
	}
	in.sleep = sleep
}

// decide draws the fault decision for one operation. Every op consumes
// a fixed number of stream values for its kind, so the schedule depends
// only on the operation sequence, never on which faults happened to
// fire.
func (in *Injector) decide(op Op) Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq++
	e := Event{Seq: in.seq, Op: op}
	switch op {
	case opDial:
		if in.src.Float64() < in.profile.DialFail {
			e.Fault = faultDialFail
		}
	case opRead, opWrite:
		uReset := in.src.Float64()
		uStall := in.src.Float64()
		uLat := in.src.Float64()
		uKind := in.src.Float64() // corrupt (read) or short write (write)
		durU := in.src.Float64()
		aux := in.src.Uint64()
		switch {
		case uReset < in.profile.Reset:
			e.Fault = faultReset
		case op == opRead && uKind < in.profile.Corrupt:
			e.Fault = faultCorrupt
			e.Aux = aux
		case op == opWrite && uKind < in.profile.ShortWrite:
			e.Fault = faultShortWrite
			e.Aux = aux
		case uStall < in.profile.Stall:
			e.Fault = faultStall
			e.Delay = in.profile.StallFor
		case uLat < in.profile.Latency:
			e.Fault = faultLatency
			span := in.profile.LatencyHigh - in.profile.LatencyLow
			e.Delay = in.profile.LatencyLow + time.Duration(durU*float64(span))
		}
	}
	in.counts[e.Fault]++
	if len(in.trace) < maxTrace {
		in.trace = append(in.trace, e)
	}
	return e
}

// countsByName returns how many times each fault fired (faultNone counts
// clean passes), keyed by Fault name.
func (in *Injector) countsByName() map[string]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]uint64, int(numFaults))
	for f := faultNone; f < numFaults; f++ {
		if in.counts[f] > 0 {
			out[f.String()] = in.counts[f]
		}
	}
	return out
}

// CountsString renders countsByName as "k=v k=v" in sorted key order — the
// human-readable campaign summary.
func (in *Injector) CountsString() string {
	counts := in.countsByName()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	return strings.Join(parts, " ")
}

// Trace returns a copy of the recorded schedule (capped at maxTrace
// events).
func (in *Injector) Trace() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.trace...)
}

// TraceString renders the schedule one event per line. Two injectors
// with the same profile and seed, driven through the same operation
// sequence, produce byte-identical TraceStrings — the replay guarantee
// the chaos suite asserts.
func (in *Injector) TraceString() string {
	events := in.Trace()
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// DialFunc matches the dialer signature used across the gateway fleet.
type DialFunc func(network, address string) (net.Conn, error)

// Dial wraps next so dial attempts can fail per the profile and every
// successful connection is fault-wrapped.
func (in *Injector) Dial(next DialFunc) DialFunc {
	return func(network, address string) (net.Conn, error) {
		if e := in.decide(opDial); e.Fault == faultDialFail {
			return nil, &InjectedError{Fault: faultDialFail}
		}
		conn, err := next(network, address)
		if err != nil {
			return nil, err
		}
		return in.conn(conn), nil
	}
}

// DialOnly wraps next so dial attempts can fail per the profile while
// established connections pass through unwrapped. Use it when the test
// needs a replayable schedule under a concurrent workload: dial
// attempts are serialized by their caller, whereas reads and writes on
// live connections interleave at the scheduler's whim and would make
// the draw order run-dependent.
func (in *Injector) DialOnly(next DialFunc) DialFunc {
	return func(network, address string) (net.Conn, error) {
		if e := in.decide(opDial); e.Fault == faultDialFail {
			return nil, &InjectedError{Fault: faultDialFail}
		}
		return next(network, address)
	}
}

// conn wraps an established connection with the injector's fault
// schedule.
func (in *Injector) conn(conn net.Conn) net.Conn {
	return &faultConn{Conn: conn, in: in}
}

// faultConn applies per-operation fault decisions to an underlying
// connection.
type faultConn struct {
	net.Conn
	in *Injector
}

// Read applies the schedule: reset aborts, stall/latency delay, corrupt
// flips one byte of a successful read.
func (c *faultConn) Read(p []byte) (int, error) {
	e := c.in.decide(opRead)
	switch e.Fault {
	case faultReset:
		_ = c.Conn.Close()
		return 0, &InjectedError{Fault: faultReset}
	case faultStall, faultLatency:
		c.in.sleep(e.Delay)
	}
	n, err := c.Conn.Read(p)
	if e.Fault == faultCorrupt && n > 0 {
		// Aux picks the position and (always non-zero) flip pattern.
		p[int(e.Aux%uint64(n))] ^= byte(e.Aux>>8) | 1
	}
	return n, err
}

// Write applies the schedule: reset aborts, stall/latency delay, short
// write delivers only a prefix and reports the failure.
func (c *faultConn) Write(p []byte) (int, error) {
	e := c.in.decide(opWrite)
	switch e.Fault {
	case faultReset:
		_ = c.Conn.Close()
		return 0, &InjectedError{Fault: faultReset}
	case faultStall, faultLatency:
		c.in.sleep(e.Delay)
	case faultShortWrite:
		if len(p) > 1 {
			n, err := c.Conn.Write(p[:1+int(e.Aux%uint64(len(p)-1))])
			if err != nil {
				return n, err
			}
			return n, &InjectedError{Fault: faultShortWrite}
		}
	}
	return c.Conn.Write(p)
}
