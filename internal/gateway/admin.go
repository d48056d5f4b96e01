package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"wormcontain/internal/telemetry"
)

// AdminConfig selects what an admin endpoint exposes.
type AdminConfig struct {
	// Stats, when non-nil, serves its return value as JSON on
	// GET /stats (typically a GatewayStats or collector aggregate).
	Stats func() any
	// Registry, when non-nil, serves the Prometheus text exposition on
	// GET /metrics.
	Registry *telemetry.Registry
	// Ready, when non-nil, backs GET /readyz: 200 while it returns
	// true, 503 otherwise. Wire it to Gateway.Ready so load balancers
	// drain fail-closed gateways that lost their collector instead of
	// sending traffic into a wall of DENYs, and keep a fail-open one,
	// which relays on without its collector.
	Ready func() bool
	// Pprof mounts net/http/pprof under /debug/pprof/. Debug-only: the
	// profiling handlers can observe and perturb the process, so they
	// are off by default and should stay firewalled when enabled.
	Pprof bool
	// Collector, when non-nil, accepts gateway reports on POST /report,
	// making this endpoint a fleet collector's one listener.
	Collector *Collector
}

// AdminServer exposes a gateway's or collector's operational state over
// HTTP for dashboards and scrapers:
//
//	GET  /healthz      — liveness probe ("ok")
//	GET  /readyz       — readiness probe (503 while not ready; with AdminConfig.Ready)
//	GET  /stats        — the configured snapshot as JSON
//	GET  /metrics      — Prometheus text exposition (v0.0.4)
//	POST /report       — one gateway report (only with AdminConfig.Collector)
//	GET  /debug/pprof/ — runtime profiles (only with AdminConfig.Pprof)
//
// Any other method on a route is answered 405. It is a separate
// listener from the WCP/1 data path, so operators can firewall the two
// independently.
type AdminServer struct {
	cfg    AdminConfig
	server *http.Server
	ln     net.Listener
	done   chan struct{}
}

// NewAdmin builds an admin endpoint from cfg, listening on listenAddr.
// At least one of Stats and Registry must be set.
func NewAdmin(cfg AdminConfig, listenAddr string) (*AdminServer, error) {
	if cfg.Stats == nil && cfg.Registry == nil {
		return nil, errors.New("gateway: admin server needs a stats source or a registry")
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("gateway: admin listen: %w", err)
	}
	a := &AdminServer{
		cfg:  cfg,
		ln:   ln,
		done: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", a.handleHealth)
	if cfg.Ready != nil {
		mux.HandleFunc("GET /readyz", a.handleReady)
	}
	if cfg.Stats != nil {
		mux.HandleFunc("GET /stats", a.handleStats)
	}
	if cfg.Registry != nil {
		mux.Handle("GET /metrics", cfg.Registry.Handler())
	}
	if cfg.Collector != nil {
		mux.HandleFunc("POST /report", cfg.Collector.handleReport)
	}
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	a.server = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return a, nil
}

// Addr returns the admin endpoint's listen address.
func (a *AdminServer) Addr() string { return a.ln.Addr().String() }

// Serve runs the HTTP server until Shutdown; it always returns a
// non-nil error (http.ErrServerClosed after a clean shutdown).
func (a *AdminServer) Serve() error {
	defer close(a.done)
	return a.server.Serve(a.ln)
}

// Shutdown stops the server and waits for Serve to return.
func (a *AdminServer) Shutdown() {
	// Close rather than graceful-shutdown: admin responses are tiny and
	// idempotent, and Close also unblocks keep-alive connections.
	if err := a.server.Close(); err != nil {
		_ = err // the listener is going away regardless
	}
	<-a.done
}

// handleHealth implements GET /healthz.
func (a *AdminServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady implements GET /readyz: the readiness (vs liveness)
// probe, 503 while the configured source reports not-ready.
func (a *AdminServer) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !a.cfg.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleStats implements GET /stats.
func (a *AdminServer) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(a.cfg.Stats()); err != nil {
		// Headers are already out; nothing useful left to send.
		_ = err
	}
}
