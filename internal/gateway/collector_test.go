package gateway

import (
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/faultnet"
)

func newTestCollector(t *testing.T) *Collector {
	t.Helper()
	c, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = c.Serve() }()
	t.Cleanup(c.Shutdown)
	return c
}

// waitFor polls cond until it is true or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCollectorReceivesReports(t *testing.T) {
	c := newTestCollector(t)
	conn, err := net.DialTimeout("tcp", c.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	for i := 0; i < 3; i++ {
		if err := enc.Encode(report{
			GatewayID:        "gw-1",
			SentAtUnixMillis: int64(i),
			Stats:            GatewayStats{Relayed: uint64(i + 1)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "3 reports", func() bool { return c.ReportsReceived() == 3 })
	latest := c.Latest()
	if len(latest) != 1 || latest["gw-1"].Stats.Relayed != 3 {
		t.Errorf("latest = %+v", latest)
	}
}

func TestCollectorAggregatesFleet(t *testing.T) {
	c := newTestCollector(t)
	for g := 0; g < 4; g++ {
		conn, err := net.DialTimeout("tcp", c.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewEncoder(conn).Encode(report{
			GatewayID: fmt.Sprintf("gw-%d", g),
			Stats: GatewayStats{
				Relayed: 10,
				Denied:  2,
				Flagged: 1,
			},
		})
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "4 gateways", func() bool { return len(c.Latest()) == 4 })
	f := c.Aggregate()
	if f.Gateways != 4 || f.Relayed != 40 || f.Denied != 8 || f.Flagged != 4 {
		t.Errorf("aggregate = %+v", f)
	}
}

func TestCollectorRejectsGarbage(t *testing.T) {
	c := newTestCollector(t)
	conn, err := net.DialTimeout("tcp", c.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "this is not json\n")
	fmt.Fprintf(conn, "{\"stats\":{}}\n") // valid JSON, missing gateway id
	if err := json.NewEncoder(conn).Encode(report{GatewayID: "ok"}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, "1 good + 2 bad lines", func() bool {
		return c.ReportsReceived() == 1 && c.badLines() == 2
	})
}

// Shutdown must terminate even while a reporter holds an open
// connection: consume blocks in Scan until its peer hangs up, and a
// reconnecting reporter never hangs up, so Shutdown has to close the
// accepted connections itself.
func TestCollectorShutdownClosesOpenConns(t *testing.T) {
	leakCheck(t)
	c, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = c.Serve() }()
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(report{GatewayID: "held"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "report consumed", func() bool { return c.ReportsReceived() == 1 })

	done := make(chan struct{})
	go func() { c.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return with an open reporter connection")
	}
}

func TestReporterPushesPeriodically(t *testing.T) {
	leakCheck(t)
	c := newTestCollector(t)
	var calls int
	r := &Reporter{
		GatewayID:     "gw-r",
		CollectorAddr: c.Addr(),
		Interval:      10 * time.Millisecond,
		Source: func() GatewayStats {
			calls++
			return GatewayStats{Relayed: uint64(calls)}
		},
	}
	errCh := make(chan error, 1)
	go func() { errCh <- r.Run() }()
	waitFor(t, "3 reports", func() bool { return c.ReportsReceived() >= 3 })
	r.Stop()
	if err := <-errCh; err != nil {
		t.Fatalf("reporter run: %v", err)
	}
	// Latest report carries the newest snapshot.
	if got := c.Latest()["gw-r"].Stats.Relayed; got < 3 {
		t.Errorf("latest relayed = %d, want >= 3", got)
	}
}

func TestReporterValidation(t *testing.T) {
	if err := (&Reporter{}).Run(); err == nil {
		t.Error("expected error for missing fields")
	}
	// With a bounded retry budget, exhausting consecutive dial failures
	// surfaces the last error (the default budget retries forever).
	r := &Reporter{
		GatewayID:     "x",
		CollectorAddr: "127.0.0.1:1", // nothing listens here
		Interval:      2 * time.Millisecond,
		Source:        func() GatewayStats { return GatewayStats{} },
		Retry:         faultnet.RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond},
	}
	if err := r.Run(); err == nil {
		t.Error("expected dial error after retry budget exhausted")
	}
	if s := r.Stats(); s.Redials != 2 || s.Sent != 0 {
		t.Errorf("stats = %+v, want 2 redials, 0 sent", s)
	}
}

func TestReporterStopBeforeRunIsNoop(t *testing.T) {
	(&Reporter{}).Stop() // must not panic
}

func TestEndToEndFleet(t *testing.T) {
	// Full pipeline: two gateways with their own limiters, a scanning
	// source tripping one of them, reporters pushing to one collector,
	// operator reads the fleet aggregate.
	leakCheck(t)
	collector := newTestCollector(t)

	var reporters []*Reporter
	var gws []*Gateway
	for g := 0; g < 2; g++ {
		gw, _ := newTestGateway(t, 3, 0.5)
		gws = append(gws, gw)
		rep := &Reporter{
			GatewayID:     fmt.Sprintf("site-%d", g),
			CollectorAddr: collector.Addr(),
			Interval:      10 * time.Millisecond,
			Source:        gw.Stats,
		}
		go func() { _ = rep.Run() }()
		reporters = append(reporters, rep)
	}
	defer func() {
		for _, rep := range reporters {
			rep.Stop()
		}
	}()

	// A scanner behind site-0 burns through its budget.
	client := Client{GatewayAddr: gws[0].Addr(), Timeout: 5 * time.Second}
	src, err := addr.ParseIP("10.2.0.1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		dst, err := addr.ParseIP(fmt.Sprintf("198.51.100.%d", i))
		if err != nil {
			t.Fatal(err)
		}
		conn, _, err := client.Connect(src, dst, 80)
		if err == nil {
			conn.Close()
		}
	}

	waitFor(t, "fleet aggregate to show the removal", func() bool {
		f := collector.Aggregate()
		return f.Gateways == 2 && f.TotalRemovals == 1 && f.Denied >= 1
	})
}

// Latest returns a copy of the most recent report per gateway.
func (c *Collector) Latest() map[string]report {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]report, len(c.latest))
	for k, v := range c.latest {
		out[k] = v
	}
	return out
}
