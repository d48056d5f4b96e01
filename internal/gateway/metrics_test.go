package gateway

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/telemetry"
)

// newMetricsAdmin mounts a gateway's full admin surface (stats +
// metrics, optional pprof) for tests.
func newMetricsAdmin(t *testing.T, gw *Gateway, pprofOn bool) *AdminServer {
	t.Helper()
	a, err := NewAdmin(AdminConfig{
		Stats:    func() any { return gw.Stats() },
		Registry: gw.Registry(),
		Pprof:    pprofOn,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = a.Serve() }()
	t.Cleanup(a.Shutdown)
	return a
}

func TestMetricsEndpointFamilies(t *testing.T) {
	gw, _ := newTestGateway(t, 10, 0)
	admin := newMetricsAdmin(t, gw, false)

	// Drive one relay so the counters are live, not just declared.
	client := Client{GatewayAddr: gw.Addr(), Timeout: 5 * time.Second}
	conn, _, err := client.Connect(mustIP(t, "10.0.0.1"), mustIP(t, "198.51.100.7"), 80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	var body string
	waitFor(t, "relay counters to land in /metrics", func() bool {
		_, body = httpGet(t, "http://"+admin.Addr()+"/metrics")
		// Decision series read the limiter through a short-TTL cache,
		// and the byte counters land only when the relay goroutines
		// wind down after Close — wait for all of it before asserting.
		return strings.Contains(body, "wormgate_relayed_connections_total 1") &&
			strings.Contains(body, `wormgate_decisions_total{decision="allow"} 1`) &&
			strings.Contains(body, `wormgate_relay_bytes_total{direction="upstream_to_client"} 4`)
	})

	families := []string{
		"wormgate_decisions_total",
		"wormgate_relayed_connections_total",
		"wormgate_protocol_errors_total",
		"wormgate_upstream_dial_errors_total",
		"wormgate_relay_bytes_total",
		"wormgate_active_relays",
		"wormgate_decision_seconds",
		"wormgate_limiter_active_hosts",
		"wormgate_limiter_removed_hosts",
		"wormgate_limiter_flagged_hosts",
		"wormgate_limiter_removals_total",
		"wormgate_limiter_flags_total",
		"wormgate_limiter_denied_total",
	}
	if len(families) < 10 {
		t.Fatal("acceptance requires at least 10 families")
	}
	for _, f := range families {
		if !strings.Contains(body, "# TYPE "+f+" ") {
			t.Errorf("/metrics missing family %s", f)
		}
	}
	if !strings.Contains(body, `wormgate_decisions_total{decision="allow"} 1`) {
		t.Errorf("allow decision not counted:\n%s", body)
	}
	// The echo upstream returned the 4 bytes we sent.
	if !strings.Contains(body, `wormgate_relay_bytes_total{direction="client_to_upstream"} 4`) ||
		!strings.Contains(body, `wormgate_relay_bytes_total{direction="upstream_to_client"} 4`) {
		t.Errorf("relay bytes not counted:\n%s", body)
	}
}

func TestMetricsSharedRegistry(t *testing.T) {
	// A caller-supplied registry receives the gateway's families.
	reg := telemetry.NewRegistry()
	lim, err := core.NewLimiter(core.LimiterConfig{M: 5, Cycle: time.Hour},
		time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{Limiter: lim, Metrics: reg}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Shutdown()
	if gw.Registry() != reg {
		t.Error("gateway should adopt the supplied registry")
	}
	if _, ok := reg.Snapshot().Value("wormgate_relayed_connections_total"); !ok {
		t.Error("families not registered into the supplied registry")
	}
}

func TestStatsAndMetricsAgree(t *testing.T) {
	gw, _ := newTestGateway(t, 1, 0)
	client := Client{GatewayAddr: gw.Addr(), Timeout: 5 * time.Second}
	// Two distinct destinations with M=1: first relays, second denies.
	if conn, _, err := client.Connect(mustIP(t, "10.0.0.1"), mustIP(t, "198.51.100.1"), 80); err != nil {
		t.Fatal(err)
	} else {
		conn.Close()
	}
	if _, _, err := client.Connect(mustIP(t, "10.0.0.1"), mustIP(t, "198.51.100.2"), 80); err == nil {
		t.Fatal("second destination should be denied")
	}
	waitFor(t, "counters to settle", func() bool {
		s := gw.Stats()
		return s.Relayed == 1 && s.Denied == 1
	})
	snap := gw.Registry().Snapshot()
	if v, _ := snap.Value("wormgate_decisions_total", "deny"); v != 1 {
		t.Errorf("deny decisions = %v, want 1", v)
	}
	if v, _ := snap.Value("wormgate_limiter_denied_total"); v != 1 {
		t.Errorf("limiter denied = %v, want 1", v)
	}
}

func TestMetricsGetOnly(t *testing.T) {
	gw, _ := newTestGateway(t, 5, 0)
	admin := newMetricsAdmin(t, gw, false)
	client := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/healthz", "/stats", "/metrics"} {
		resp, err := client.Post("http://"+admin.Addr()+path, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

func TestPprofOptIn(t *testing.T) {
	gw, _ := newTestGateway(t, 5, 0)

	off := newMetricsAdmin(t, gw, false)
	code, _ := httpGet(t, "http://"+off.Addr()+"/debug/pprof/")
	if code != http.StatusNotFound {
		t.Errorf("pprof off: GET /debug/pprof/ = %d, want 404", code)
	}

	on := newMetricsAdmin(t, gw, true)
	code, body := httpGet(t, "http://"+on.Addr()+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof on: GET /debug/pprof/ = %d, want profile index", code)
	}
}

func TestAdminRequiresSomeSource(t *testing.T) {
	if _, err := NewAdmin(AdminConfig{}, "127.0.0.1:0"); err == nil {
		t.Error("expected error for empty AdminConfig")
	}
}

// TestCollectorScrapeWhileReporting hammers /metrics scrapes while a
// reporter keeps pushing gateway snapshots to the same listener,
// asserting that reports keep flowing throughout. Run under -race, this
// is the collector half of the concurrent-telemetry certification.
func TestCollectorScrapeWhileReporting(t *testing.T) {
	gw, _ := newTestGateway(t, 10, 0)
	// One listener takes both the reports and the scrapes.
	coll, collAddr := newTestCollector(t)

	rep := &Reporter{
		GatewayID:     "gw-under-test",
		CollectorAddr: collAddr,
		Interval:      5 * time.Millisecond,
		Source:        gw.Stats,
	}
	repDone := make(chan error, 1)
	go func() { repDone <- rep.Run() }()
	defer rep.Stop()

	// Scrape loudly while reports arrive.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _ := httpGet(t, "http://"+collAddr+"/metrics")
				if code != http.StatusOK {
					t.Errorf("scrape status %d", code)
					return
				}
			}
		}()
	}

	// Reports must keep flowing while the scrapers run.
	waitFor(t, "10 reports under scrape load", func() bool {
		return coll.ReportsReceived() >= 10
	})
	close(stop)
	wg.Wait()

	_, body := httpGet(t, "http://"+collAddr+"/metrics")
	if !strings.Contains(body, "wormgate_collector_gateways 1") {
		t.Errorf("collector metrics missing gateway count:\n%s", body)
	}
	if !strings.Contains(body, "wormgate_collector_reports_total") {
		t.Errorf("collector metrics missing reports family:\n%s", body)
	}
	if coll.staleness() < 0 || coll.staleness() > time.Minute {
		t.Errorf("staleness = %v, want small and non-negative", coll.staleness())
	}
	select {
	case err := <-repDone:
		t.Fatalf("reporter exited early: %v", err)
	default:
	}
}
