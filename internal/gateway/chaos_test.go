package gateway

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/core"
	"wormcontain/internal/faultnet"
)

// chaosSeed returns the seed for this run's fault schedules. CI sweeps
// WORMGATE_CHAOS_SEED across several values; locally the default keeps
// failures reproducible with plain `go test`.
func chaosSeed(t *testing.T) uint64 {
	t.Helper()
	s := os.Getenv("WORMGATE_CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("WORMGATE_CHAOS_SEED=%q: %v", s, err)
	}
	t.Logf("chaos seed %d", v)
	return v
}

// newChaosGateway builds a gateway whose upstream dialer goes through
// the given injector-wrapped dial, with a large scan budget so faults —
// not containment — decide every connection's fate.
func newChaosGateway(t *testing.T, dial Dialer, retry faultnet.RetryConfig) *Gateway {
	t.Helper()
	lim, err := core.NewLimiter(core.LimiterConfig{
		M:     1 << 20,
		Cycle: 30 * 24 * time.Hour,
	}, time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{
		Limiter:   lim,
		Dial:      dial,
		DialRetry: retry,
		sleep:     func(time.Duration) {}, // backoff must not slow the suite
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	t.Cleanup(gw.Shutdown)
	return gw
}

// TestChaosRelayUnderFaults hammers a gateway whose upstream network
// misbehaves per a seeded schedule — failed dials, resets, short
// writes, corruption, latency — and checks the bookkeeping invariants
// that must survive any fault mix: every request is observed exactly
// once (no double-counted decisions), every observed request is
// accounted as either relayed or a dial failure, and no goroutine
// outlives its connection.
func TestChaosRelayUnderFaults(t *testing.T) {
	leakCheck(t)
	seed := chaosSeed(t)

	upstream := newEchoUpstream(t)
	inj := faultnet.New(faultnet.Profile{
		DialFail:    0.3,
		Reset:       0.1,
		ShortWrite:  0.1,
		Corrupt:     0.1,
		Latency:     0.2,
		LatencyLow:  50 * time.Microsecond,
		LatencyHigh: 500 * time.Microsecond,
		Stall:       0.05,
		StallFor:    time.Millisecond,
	}, seed)
	dial := Dialer(inj.Dial(func(network, address string) (net.Conn, error) {
		return net.DialTimeout(network, upstream.ln.Addr().String(), 5*time.Second)
	}))
	gw := newChaosGateway(t, dial, faultnet.RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond})

	const requests = 200
	client := Client{GatewayAddr: gw.Addr(), Timeout: 5 * time.Second}
	src := mustIP(t, "10.7.0.1")
	for i := 0; i < requests; i++ {
		dst, err := addr.ParseIP(fmt.Sprintf("198.51.%d.%d", i/250, 1+i%250))
		if err != nil {
			t.Fatal(err)
		}
		conn, _, err := client.Connect(src, dst, 80)
		if err != nil {
			// The client↔gateway leg is clean; the verdict always lands.
			t.Fatalf("connect %d: %v", i, err)
		}
		// Push a payload through the (possibly faulty) relay; outcome
		// does not matter, the accounting below does.
		_, _ = conn.Write([]byte("ping\n"))
		conn.Close()
	}

	// Shutdown waits for every in-flight handler, so the counters are
	// final afterwards.
	gw.Shutdown()
	s := gw.Stats()
	if got := s.Limiter.TotalObserved; got != requests {
		t.Errorf("TotalObserved = %d, want exactly %d (double- or under-counted decisions)", got, requests)
	}
	dialFailed := gw.metrics.dialErrors.Value()
	if s.Relayed+dialFailed != requests {
		t.Errorf("relayed (%d) + dial failures (%d) = %d, want %d",
			s.Relayed, dialFailed, s.Relayed+dialFailed, requests)
	}
	// With dial-fail probability 0.3 over 200 requests the chance of a
	// fault-free run is ~1e-31 for any seed.
	if s.DialRetries == 0 {
		t.Errorf("DialRetries = 0, want > 0 under profile %v", inj.CountsString())
	}
	t.Logf("faults: %s", inj.CountsString())
	t.Logf("relayed=%d dialFailed=%d retries=%d", s.Relayed, dialFailed, s.DialRetries)
}

// TestChaosDeterministicDialSchedule replays the same seeded dial-fault
// schedule through a live gateway twice and requires byte-identical
// fault traces — the property that makes any chaos failure reproducible
// from its seed. Dial decisions are serialized by the sequential client
// (DialOnly leaves live connections unwrapped), so the draw order is a
// pure function of the request sequence.
func TestChaosDeterministicDialSchedule(t *testing.T) {
	leakCheck(t)
	seed := chaosSeed(t)

	const requests = 40
	run := func(seed uint64) string {
		upstream := newEchoUpstream(t)
		inj := faultnet.New(faultnet.Profile{DialFail: 0.5}, seed)
		dial := Dialer(inj.DialOnly(func(network, address string) (net.Conn, error) {
			return net.DialTimeout(network, upstream.ln.Addr().String(), 5*time.Second)
		}))
		gw := newChaosGateway(t, dial, faultnet.RetryConfig{MaxAttempts: 1})
		client := Client{GatewayAddr: gw.Addr(), Timeout: 5 * time.Second}
		src := mustIP(t, "10.8.0.1")
		for i := 0; i < requests; i++ {
			dst, err := addr.ParseIP(fmt.Sprintf("203.0.113.%d", 1+i))
			if err != nil {
				t.Fatal(err)
			}
			conn, _, err := client.Connect(src, dst, 80)
			if err != nil {
				t.Fatalf("connect %d: %v", i, err)
			}
			conn.Close()
			// The dial happens after the verdict is written; wait for
			// its draw so request i+1 cannot race it.
			want := i + 1
			waitFor(t, fmt.Sprintf("dial draw %d", want), func() bool {
				return len(inj.Trace()) >= want
			})
		}
		gw.Shutdown()
		if got := len(inj.Trace()); got != requests {
			t.Fatalf("trace length = %d, want %d", got, requests)
		}
		return inj.TraceString()
	}

	first := run(seed)
	second := run(seed)
	if first != second {
		t.Errorf("same seed produced different fault schedules:\n--- run 1\n%s--- run 2\n%s", first, second)
	}
	other := run(seed + 1)
	if other == first {
		t.Errorf("seed %d and %d produced identical schedules", seed, seed+1)
	}
}

// TestChaosFailClosedDegradation drives the degradation policy end to
// end: a fail-closed gateway whose reporter misses a tick — here the
// collector answers 503 — must deny new connections with the degraded
// verdict (without charging the limiter), flip /readyz to 503, and
// recover on the next tick the collector acknowledges.
func TestChaosFailClosedDegradation(t *testing.T) {
	leakCheck(t)

	upstream := newEchoUpstream(t)
	lim, err := core.NewLimiter(core.LimiterConfig{M: 100, Cycle: 30 * 24 * time.Hour},
		time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{
		Limiter:  lim,
		FailMode: failClosed,
		Dial: func(network, address string) (net.Conn, error) {
			return net.DialTimeout(network, upstream.ln.Addr().String(), 5*time.Second)
		},
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	t.Cleanup(gw.Shutdown)

	// The collector acknowledges while status holds 204.
	var status atomic.Int32
	status.Store(http.StatusNoContent)
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(int(status.Load()))
	}))
	t.Cleanup(collector.Close)
	rep := &Reporter{
		GatewayID:     "fail-closed-gw",
		CollectorAddr: collector.Listener.Addr().String(),
		// Long enough that an acknowledged POST never overruns its
		// one-interval deadline on a loaded machine.
		Interval:      100 * time.Millisecond,
		Source:        gw.Stats,
		OnStateChange: func(connected bool) { gw.SetDegraded(!connected) },
	}
	go func() { _ = rep.Run() }()
	t.Cleanup(rep.Stop)

	admin, err := NewAdmin(AdminConfig{
		Stats: func() any { return gw.Stats() },
		Ready: gw.Ready,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = admin.Serve() }()
	t.Cleanup(admin.Shutdown)
	readyz := func() int {
		code, _ := httpGet(t, "http://"+admin.Addr()+"/readyz")
		return code
	}

	client := Client{GatewayAddr: gw.Addr(), Timeout: 5 * time.Second}
	src := mustIP(t, "10.5.0.1")

	// Healthy: reports are acknowledged, relays fine, ready.
	waitFor(t, "a sent report", func() bool { return rep.Stats().Sent > 0 })
	if gw.degraded.Load() {
		t.Fatal("degraded while the collector acknowledges reports")
	}
	conn, _, err := client.Connect(src, mustIP(t, "198.51.100.10"), 80)
	if err != nil {
		t.Fatalf("healthy connect: %v", err)
	}
	conn.Close()
	if got := readyz(); got != http.StatusOK {
		t.Errorf("healthy /readyz = %d, want 200", got)
	}

	// Degraded: the collector answers, but not with a 2xx, so the tick
	// is missed.
	status.Store(http.StatusServiceUnavailable)
	waitFor(t, "degradation on a missed tick", gw.degraded.Load)
	if rep.Stats().Missed == 0 {
		t.Error("degraded without a missed tick")
	}
	conn, _, err = client.Connect(src, mustIP(t, "198.51.100.11"), 80)
	var denied *DeniedError
	if !errors.As(err, &denied) || denied.Reason != "degraded-fail-closed" {
		if err == nil {
			conn.Close() // or gw.Shutdown waits for the relay
		}
		t.Fatalf("degraded connect: err = %v, want degraded-fail-closed denial", err)
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Errorf("degraded /readyz = %d, want 503", got)
	}
	s := gw.Stats()
	if s.DegradedDenied != 1 || !s.Degraded {
		t.Errorf("stats = %+v, want DegradedDenied 1 and Degraded true", s)
	}
	// A policy denial must not consume the source's scan budget.
	if s.Limiter.TotalObserved != 1 {
		t.Errorf("TotalObserved = %d after policy denial, want 1 (healthy connect only)",
			s.Limiter.TotalObserved)
	}

	// Recovered: the next acknowledged tick lifts the degradation.
	sent := rep.Stats().Sent
	status.Store(http.StatusNoContent)
	waitFor(t, "recovery on a sent tick", func() bool { return !gw.degraded.Load() })
	if rep.Stats().Sent == sent {
		t.Error("recovered without a sent tick")
	}
	conn, _, err = client.Connect(src, mustIP(t, "198.51.100.12"), 80)
	if err != nil {
		t.Fatalf("recovered connect: %v", err)
	}
	conn.Close()
	if got := readyz(); got != http.StatusOK {
		t.Errorf("recovered /readyz = %d, want 200", got)
	}
}

// TestParseFailMode pins the flag surface of the degradation policy.
func TestParseFailMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FailMode
	}{{"open", failOpen}, {"closed", failClosed}} {
		got, err := ParseFailMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFailMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("FailMode(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseFailMode("ajar"); err == nil {
		t.Error("ParseFailMode(ajar) should fail")
	}
	if got := FailMode(9).String(); got != "FailMode(9)" {
		t.Errorf("FailMode(9).String() = %q", got)
	}
}

// TestChaosCollectorOutage starts a reporter against a dead collector
// address, lets ticks go missed, then brings the collector up and
// requires exact accounting — every tick sent or counted missed — and a
// collector whose latest report after the outage carries the gateway's
// current stats, not a snapshot from the outage.
func TestChaosCollectorOutage(t *testing.T) {
	leakCheck(t)

	// Reserve an address, then free it: the collector is "down" first.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	collectorAddr := ln.Addr().String()
	ln.Close()

	gw, _ := newTestGateway(t, 3, 0.5)
	client := Client{GatewayAddr: gw.Addr(), Timeout: 5 * time.Second}
	connect := func(dst string) {
		t.Helper()
		conn, _, err := client.Connect(mustIP(t, "10.7.0.1"), mustIP(t, dst), 80)
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	connect("198.51.100.1")
	rep := &Reporter{
		GatewayID:     "outage-gw",
		CollectorAddr: collectorAddr,
		Interval:      20 * time.Millisecond,
		Source:        gw.Stats,
		Logf:          t.Logf,
	}
	repErr := make(chan error, 1)
	go func() { repErr <- rep.Run() }()

	// Outage: every tick is missed, none is sent.
	waitFor(t, "missed ticks", func() bool { return rep.Stats().Missed >= 5 })
	if s := rep.Stats(); s.Sent != 0 {
		t.Errorf("outage stats %+v: want nothing sent", s)
	}

	// Recovery: the collector appears on the very address the reporter
	// has been posting to, and the gateway relays once more.
	c := NewCollector()
	admin, err := NewAdmin(AdminConfig{Registry: c.Registry(), Collector: c}, collectorAddr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = admin.Serve() }()
	t.Cleanup(admin.Shutdown)
	waitFor(t, "a sent tick after the outage", func() bool { return rep.Stats().Sent > 0 })
	connect("198.51.100.2")
	waitFor(t, "the second relay to finish", func() bool { return gw.Stats().Relayed == 2 })
	sent := rep.Stats().Sent
	waitFor(t, "a sent tick after the second relay", func() bool { return rep.Stats().Sent > sent })

	rep.Stop()
	if err := <-repErr; err != nil {
		t.Fatalf("reporter: %v", err)
	}
	s := rep.Stats()
	if s.Ticks != s.Sent+s.Missed {
		t.Errorf("accounting broken: ticks %d != sent %d + missed %d", s.Ticks, s.Sent, s.Missed)
	}
	if got := uint64(c.ReportsReceived()); got < s.Sent || got > s.Ticks {
		t.Errorf("collector received %d reports, want between sent %d and ticks %d", got, s.Sent, s.Ticks)
	}
	if got, want := c.Latest()["outage-gw"].Stats, gw.Stats(); got != want {
		t.Errorf("latest report after the outage carries %+v, the gateway's current stats are %+v", got, want)
	}
	t.Logf("reporter stats: %+v", s)
}

// TestChaosFleetUnderFaults runs the full fleet pipeline — gateways,
// reporters, collector — with every reporter's collector link wrapped
// in a seeded fault injector. The fleet view must still converge and
// the delivery ledger must balance despite resets and short writes
// tearing requests and answers mid-report.
func TestChaosFleetUnderFaults(t *testing.T) {
	leakCheck(t)
	seed := chaosSeed(t)

	collector, collectorAddr := newTestCollector(t)
	profile := faultnet.Profile{
		DialFail:    0.2,
		Reset:       0.15,
		ShortWrite:  0.15,
		Latency:     0.1,
		LatencyLow:  50 * time.Microsecond,
		LatencyHigh: 200 * time.Microsecond,
	}

	var reporters []*Reporter
	for g := 0; g < 2; g++ {
		gw, _ := newTestGateway(t, 3, 0.5)
		inj := faultnet.New(profile, seed+uint64(g))
		rep := &Reporter{
			GatewayID:     fmt.Sprintf("chaos-site-%d", g),
			CollectorAddr: collectorAddr,
			Interval:      5 * time.Millisecond,
			Source:        gw.Stats,
			dial: inj.Dial(func(network, address string) (net.Conn, error) {
				return net.DialTimeout(network, address, 5*time.Second)
			}),
			Logf: t.Logf,
		}
		go func() { _ = rep.Run() }()
		reporters = append(reporters, rep)
		if g == 0 {
			// Burn the first gateway's scan budget so the fleet view has
			// containment activity to converge on.
			client := Client{GatewayAddr: gw.Addr(), Timeout: 5 * time.Second}
			src := mustIP(t, "10.6.0.1")
			for i := 1; i <= 5; i++ {
				conn, _, err := client.Connect(src, mustIP(t, fmt.Sprintf("198.51.200.%d", i)), 80)
				if err == nil {
					conn.Close()
				}
			}
		}
	}

	waitFor(t, "fleet aggregate despite faults", func() bool {
		f := collector.Aggregate()
		return f.Gateways == 2 && f.TotalRemovals == 1
	})
	// Soak until the injectors have cost every reporter a tick;
	// convergence alone can happen before any fault fires.
	waitFor(t, "a missed tick on every reporter", func() bool {
		for _, rep := range reporters {
			if rep.Stats().Missed == 0 {
				return false
			}
		}
		return true
	})

	var sent, ticks uint64
	for _, rep := range reporters {
		rep.Stop()
		s := rep.Stats()
		if s.Ticks != s.Sent+s.Missed || s.Sent == 0 || s.Missed == 0 {
			t.Errorf("%s accounting broken: %+v", rep.GatewayID, s)
		}
		sent += s.Sent
		ticks += s.Ticks
		t.Logf("%s: %+v", rep.GatewayID, s)
	}
	// A Sent report was acknowledged, so the collector holds it; a
	// missed one may still have arrived before its answer was lost.
	if got := uint64(collector.ReportsReceived()); got < sent || got > ticks {
		t.Errorf("collector received %d reports, want between sent %d and ticks %d", got, sent, ticks)
	}
}
