package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"wormcontain/internal/addr"
)

// newTestCollector serves a fresh collector on a loopback admin
// endpoint and returns it with that endpoint's address.
func newTestCollector(t *testing.T) (*Collector, string) {
	t.Helper()
	c := NewCollector()
	a, err := NewAdmin(AdminConfig{
		Stats:     func() any { return c.Aggregate() },
		Registry:  c.Registry(),
		Collector: c,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = a.Serve() }()
	t.Cleanup(a.Shutdown)
	return c, a.Addr()
}

// postReport POSTs body to the collector at addr and returns the status.
func postReport(t *testing.T, addr string, body []byte) int {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post("http://"+addr+"/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// mustJSON encodes a report body.
func mustJSON(t *testing.T, r report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
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
	c, addr := newTestCollector(t)
	for i := 0; i < 3; i++ {
		body := mustJSON(t, report{
			GatewayID:        "gw-1",
			SentAtUnixMillis: int64(i),
			Stats:            GatewayStats{Relayed: uint64(i + 1)},
		})
		if code := postReport(t, addr, body); code != http.StatusNoContent {
			t.Fatalf("report %d: status %d, want 204", i, code)
		}
	}
	// A 204 means the report is already the gateway's latest.
	if got := c.ReportsReceived(); got != 3 {
		t.Errorf("ReportsReceived = %d, want 3", got)
	}
	latest := c.Latest()
	if len(latest) != 1 || latest["gw-1"].Stats.Relayed != 3 {
		t.Errorf("latest = %+v", latest)
	}
}

func TestCollectorAggregatesFleet(t *testing.T) {
	c, addr := newTestCollector(t)
	for g := 0; g < 4; g++ {
		body := mustJSON(t, report{
			GatewayID: fmt.Sprintf("gw-%d", g),
			Stats: GatewayStats{
				Relayed: 10,
				Denied:  2,
				Flagged: 1,
			},
		})
		if code := postReport(t, addr, body); code != http.StatusNoContent {
			t.Fatalf("gateway %d: status %d, want 204", g, code)
		}
	}
	f := c.Aggregate()
	if f.Gateways != 4 || f.Relayed != 40 || f.Denied != 8 || f.Flagged != 4 {
		t.Errorf("aggregate = %+v", f)
	}
}

func TestCollectorRejectsGarbage(t *testing.T) {
	c, addr := newTestCollector(t)
	oversized := mustJSON(t, report{GatewayID: strings.Repeat("x", maxReportLine)})
	for _, body := range [][]byte{
		[]byte("this is not json"),
		[]byte(`{"stats":{}}`), // valid JSON, missing gateway id
		oversized,              // cut at maxReportLine by the body limit
	} {
		if code := postReport(t, addr, body); code != http.StatusBadRequest {
			t.Errorf("POST %.20q...: status %d, want 400", body, code)
		}
	}
	if code := postReport(t, addr, mustJSON(t, report{GatewayID: "ok"})); code != http.StatusNoContent {
		t.Errorf("valid report: status %d, want 204", code)
	}
	if c.ReportsReceived() != 1 || c.badLines() != 3 {
		t.Errorf("received %d, bad %d; want 1 good and 3 bad", c.ReportsReceived(), c.badLines())
	}
	if code, _ := httpGet(t, "http://"+addr+"/report"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /report = %d, want 405", code)
	}
}

// Shutdown must terminate even while a reporter holds an open
// keep-alive connection to the collector's listener, and that
// connection must not outlive the reporter and the listener.
func TestCollectorShutdownClosesOpenConns(t *testing.T) {
	leakCheck(t)
	c := NewCollector()
	a, err := NewAdmin(AdminConfig{Registry: c.Registry(), Collector: c}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = a.Serve() }()
	rep := &Reporter{
		GatewayID:     "held",
		CollectorAddr: a.Addr(),
		Interval:      time.Hour, // one report, then an idle connection
		Source:        func() GatewayStats { return GatewayStats{} },
	}
	go func() { _ = rep.Run() }()
	waitFor(t, "report consumed", func() bool { return c.ReportsReceived() == 1 })

	done := make(chan struct{})
	go func() { a.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return with a reporter connected")
	}
	rep.Stop()
}

func TestReporterPushesPeriodically(t *testing.T) {
	leakCheck(t)
	c, collectorAddr := newTestCollector(t)
	var calls int
	r := &Reporter{
		GatewayID:     "gw-r",
		CollectorAddr: collectorAddr,
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
	// A dead collector never ends Run: every tick is missed, the first
	// one already reports the collector unreachable, and Stop returns
	// nil.
	var states []bool
	r := &Reporter{
		GatewayID:     "x",
		CollectorAddr: "127.0.0.1:1", // nothing listens here
		Interval:      2 * time.Millisecond,
		Source:        func() GatewayStats { return GatewayStats{} },
		OnStateChange: func(connected bool) { states = append(states, connected) },
	}
	errCh := make(chan error, 1)
	go func() { errCh <- r.Run() }()
	waitFor(t, "missed ticks", func() bool { return r.Stats().Missed >= 3 })
	r.Stop()
	if err := <-errCh; err != nil {
		t.Errorf("Run = %v, want nil after Stop", err)
	}
	if s := r.Stats(); s.Sent != 0 || s.Missed != s.Ticks {
		t.Errorf("stats = %+v, want every tick missed", s)
	}
	if len(states) != 1 || states[0] {
		t.Errorf("state changes = %v, want [false]", states)
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
	collector, collectorAddr := newTestCollector(t)

	var reporters []*Reporter
	var gws []*Gateway
	for g := 0; g < 2; g++ {
		gw, _ := newTestGateway(t, 3, 0.5)
		gws = append(gws, gw)
		rep := &Reporter{
			GatewayID:     fmt.Sprintf("site-%d", g),
			CollectorAddr: collectorAddr,
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
