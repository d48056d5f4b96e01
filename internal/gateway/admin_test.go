package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"
)

func newTestAdmin(t *testing.T, source func() GatewayStats) *AdminServer {
	t.Helper()
	a, err := NewAdminServer(source, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = a.Serve() }()
	t.Cleanup(a.Shutdown)
	return a
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminValidation(t *testing.T) {
	if _, err := NewAdminServer(nil, "127.0.0.1:0"); err == nil {
		t.Error("expected error for nil source")
	}
	if _, err := NewAdminServer(func() GatewayStats { return GatewayStats{} }, "256.0.0.1:bad"); err == nil {
		t.Error("expected listen error")
	}
}

func TestAdminHealthz(t *testing.T) {
	a := newTestAdmin(t, func() GatewayStats { return GatewayStats{} })
	code, body := httpGet(t, "http://"+a.Addr()+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz = %d %q", code, body)
	}
}

func TestAdminStatsJSON(t *testing.T) {
	want := GatewayStats{Relayed: 7, Denied: 2, Flagged: 1}
	a := newTestAdmin(t, func() GatewayStats { return want })
	code, body := httpGet(t, "http://"+a.Addr()+"/stats")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var got GatewayStats
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("decode: %v (body %q)", err, body)
	}
	if got.Relayed != 7 || got.Denied != 2 || got.Flagged != 1 {
		t.Errorf("stats = %+v", got)
	}
}

func TestAdminMethodNotAllowed(t *testing.T) {
	a := newTestAdmin(t, func() GatewayStats { return GatewayStats{} })
	client := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/healthz", "/stats"} {
		resp, err := client.Post("http://"+a.Addr()+path, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

func TestAdminReflectsLiveGateway(t *testing.T) {
	// End to end: the admin endpoint tracks a real gateway's counters.
	gw, _ := newTestGateway(t, 5, 0)
	admin := newTestAdmin(t, gw.Stats)

	client := Client{GatewayAddr: gw.Addr(), Timeout: 5 * time.Second}
	conn, _, err := client.Connect(mustIP(t, "10.0.0.1"), mustIP(t, "198.51.100.1"), 80)
	if err != nil {
		t.Fatal(err)
	}
	// Read the echoed byte to guarantee the relay path completed.
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	waitFor(t, "admin to report 1 relay", func() bool {
		_, body := httpGet(t, "http://"+admin.Addr()+"/stats")
		var got GatewayStats
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			return false
		}
		return got.Relayed == 1 && got.Limiter.ActiveHosts == 1
	})
}

func TestAdminShutdownUnblocksServe(t *testing.T) {
	a, err := NewAdminServer(func() GatewayStats { return GatewayStats{} }, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- a.Serve() }()
	a.Shutdown()
	select {
	case err := <-served:
		if err != http.ErrServerClosed {
			t.Errorf("serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// A request after shutdown fails.
	client := &http.Client{Timeout: time.Second}
	if _, err := client.Get(fmt.Sprintf("http://%s/healthz", a.Addr())); err == nil {
		t.Error("request after shutdown should fail")
	}
}

// NewAdminServer builds a stats-only admin endpoint for these tests
// over the given source, listening on listenAddr.
func NewAdminServer(source func() GatewayStats, listenAddr string) (*AdminServer, error) {
	if source == nil {
		return nil, errors.New("gateway: admin server needs a stats source")
	}
	return NewAdmin(AdminConfig{Stats: func() any { return source() }}, listenAddr)
}
