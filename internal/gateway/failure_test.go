package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/telemetry"
)

// newFailureGateway builds a sketch-backed gateway whose upstream dialer
// always fails — every permitted connection becomes a connection
// failure, the signal the failure-counting containment variant keys on.
func newFailureGateway(t *testing.T, failureM int) (*Gateway, *core.SketchLimiter, *telemetry.Registry) {
	t.Helper()
	lim, err := core.NewSketchLimiter(core.SketchConfig{
		LimiterConfig: core.LimiterConfig{M: 1000, Cycle: 30 * 24 * time.Hour},
		Bits:          1024,
		FailureM:      failureM,
		FailureBits:   64,
	}, time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	gw, err := New(Config{
		Limiter: lim,
		Metrics: reg,
		Dial: func(network, address string) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	t.Cleanup(gw.Shutdown)
	return gw, lim, reg
}

// wcpExchange sends one WCP/1 request raw and returns the gateway's
// verdict lines: the initial status, and (when the status permitted the
// relay) the in-band line that follows — which for an unreachable
// upstream is the DENY.
func wcpExchange(t *testing.T, gwAddr, src, dst string) []string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", gwAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "WCP/1 %s %s 80\n", src, dst)
	r := bufio.NewReader(conn)
	status, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{strings.TrimSpace(status)}
	if lines[0] == "OK" || lines[0] == "CHECK" {
		next, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, strings.TrimSpace(next))
	}
	return lines
}

// TestGatewayFailureContainment drives a scanner through a gateway
// whose upstream is unreachable: each permitted-but-failed connection
// must feed the failure sketch, and once the distinct-failure estimate
// reaches FailureM the source must be removed — long before its contact
// budget (M=1000) is anywhere near spent.
func TestGatewayFailureContainment(t *testing.T) {
	const failureM = 5
	gw, lim, reg := newFailureGateway(t, failureM)

	removedAt := 0
	for i := 0; i < 100; i++ {
		lines := wcpExchange(t, gw.Addr(), "10.0.0.9", fmt.Sprintf("198.51.100.%d", i+1))
		if strings.Contains(lines[0], "scan-limit") {
			removedAt = i
			break
		}
		if lines[0] != "OK" || !strings.Contains(lines[1], "upstream-unreachable") {
			t.Fatalf("attempt %d: verdicts %q, want OK then upstream-unreachable", i, lines)
		}
	}
	if removedAt == 0 {
		t.Fatal("scanner was never removed by the failure threshold")
	}
	if removedAt > 4*failureM {
		t.Errorf("removal after %d failed attempts, want within ~%d for FailureM=%d",
			removedAt, 4*failureM, failureM)
	}
	if !lim.Removed(uint32(mustIP(t, "10.0.0.9"))) {
		t.Error("limiter does not report the source removed")
	}
	s := gw.Stats()
	if s.Limiter.TotalFailures == 0 {
		t.Error("no failure observations counted")
	}
	if s.Limiter.FailureRemovals != 1 {
		t.Errorf("FailureRemovals = %d, want 1", s.Limiter.FailureRemovals)
	}

	// The failure series must be registered and live. (The estimator's
	// gauges are cmd/wormgate's, registered from the backend it holds.)
	dump := renderMetrics(t, reg)
	for _, series := range []string{
		"wormgate_limiter_failures_total",
		"wormgate_limiter_failure_removals_total",
	} {
		if !strings.Contains(dump, series) {
			t.Errorf("metrics dump is missing %s", series)
		}
	}
}

// TestGatewayFailurePathExactBackendUnaffected pins the feature
// detection: with the exact backend (no FailureObserver), dial failures
// deny the one connection but never remove the source, and the
// failure-variant series are not registered.
func TestGatewayFailurePathExactBackendUnaffected(t *testing.T) {
	lim, err := core.NewLimiter(core.LimiterConfig{M: 1000, Cycle: 30 * 24 * time.Hour},
		time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	gw, err := New(Config{
		Limiter: lim,
		Metrics: reg,
		Dial: func(network, address string) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = gw.Serve() }()
	t.Cleanup(gw.Shutdown)

	for i := 0; i < 50; i++ {
		lines := wcpExchange(t, gw.Addr(), "10.0.0.10", fmt.Sprintf("203.0.113.%d", i+1))
		if lines[0] != "OK" || !strings.Contains(lines[1], "upstream-unreachable") {
			t.Fatalf("attempt %d: verdicts %q, want OK then upstream-unreachable", i, lines)
		}
	}
	if lim.Removed(uint32(mustIP(t, "10.0.0.10"))) {
		t.Error("exact backend removed a source from dial failures")
	}
	if dump := renderMetrics(t, reg); strings.Contains(dump, "wormgate_limiter_failures_total") {
		t.Error("failure-variant series registered for a backend that cannot observe failures")
	}
}

func renderMetrics(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
