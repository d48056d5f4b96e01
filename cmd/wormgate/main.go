// Command wormgate runs the containment system as network software:
//
//	wormgate serve     — run a containment gateway (TCP relay + limiter)
//	wormgate collect   — run a fleet collector aggregating gateway reports
//	wormgate probe     — issue one WCP/1 connection through a gateway
//	wormgate fsck      — verify a durable state directory offline
//
// Examples:
//
//	wormgate collect -listen 127.0.0.1:7700
//	wormgate serve -listen 127.0.0.1:7800 -m 5000 -cycle 720h \
//	    -collector 127.0.0.1:7700 -id site-a -state-dir /var/lib/wormgate
//	wormgate probe -gateway 127.0.0.1:7800 -src 10.0.0.1 -dst 93.184.216.34 -port 80
//	wormgate fsck -state-dir /var/lib/wormgate
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/core"
	"wormcontain/internal/crashsafe"
	"wormcontain/internal/durable"
	"wormcontain/internal/faultfs"
	"wormcontain/internal/faultnet"
	"wormcontain/internal/fleet"
	"wormcontain/internal/gateway"
	"wormcontain/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wormgate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: wormgate <serve|collect|probe|fsck> [flags]")
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:])
	case "collect":
		return runCollect(args[1:])
	case "probe":
		return runProbe(args[1:])
	case "fsck":
		return runFsck(args[1:], os.Stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want serve, collect, probe or fsck)", args[0])
	}
}

// runServe starts a gateway, optionally restoring limiter state, and
// optionally reporting to a collector, until SIGINT/SIGTERM.
func runServe(args []string) error {
	fs := flag.NewFlagSet("wormgate serve", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", "127.0.0.1:7800", "gateway listen address")
		m           = fs.Int("m", 5000, "scan limit M (distinct destinations per cycle)")
		cycle       = fs.Duration("cycle", 30*24*time.Hour, "containment cycle duration")
		checkFrac   = fs.Float64("check-fraction", 0.9, "early-check fraction f (0 disables)")
		collector   = fs.String("collector", "", "collector address to report to (empty = none)")
		id          = fs.String("id", "gateway", "gateway id in reports")
		interval    = fs.Duration("report-interval", 10*time.Second, "reporting period")
		limiterKind = fs.String("limiter", "exact", "containment backend: exact (per-host destination sets) or sketch (fixed-size cardinality estimators)")
		sketchBits  = fs.Int("sketch-bits", 0, "sketch: per-host contact-bitmap width in bits (power of two >= 64; 0 = auto-size from -m)")
		failLimit   = fs.Int("fail-threshold", 0, "sketch: remove a host whose distinct failed destinations reach this in one cycle (0 disables the failure variant)")
		failBits    = fs.Int("fail-bits", 0, "sketch: per-host failure-bitmap width in bits (0 = auto-size from -fail-threshold)")
		statePath   = fs.String("state", "", "legacy limiter snapshot file (restored at start, saved at exit); prefer -state-dir")
		stateDir    = fs.String("state-dir", "", "durable state directory (checksummed WAL + atomic snapshots; survives kill -9)")
		snapEvery   = fs.Duration("snapshot-interval", 5*time.Minute, "full-snapshot period for -state-dir (bounds WAL growth)")
		syncEvery   = fs.Duration("fsync-interval", 10*time.Millisecond, "WAL group-commit period for -state-dir (crash loses at most this much acknowledged input)")
		adminAddr   = fs.String("admin", "", "HTTP admin endpoint address (/healthz, /readyz, /stats, /metrics); empty = off")
		pprofOn     = fs.Bool("pprof", false, "mount /debug/pprof/ on the admin endpoint (debug only)")

		peersStr    = fs.String("peers", "", "comma-separated fleet membership, every member's peer address including this node's -peer-listen (empty = standalone gateway)")
		peerListen  = fs.String("peer-listen", "", "fleet peer listen address for forwarded observations and alert gossip (required with -peers)")
		ringVnodes  = fs.Int("ring-vnodes", 64, "consistent-hash virtual nodes per fleet member")
		alertFanout = fs.Int("alert-fanout", 3, "fleet peers each alert gossip push targets")
		gossipEvery = fs.Duration("gossip-interval", time.Second, "fleet gossip period (alert push and digest anti-entropy)")

		failModeStr   = fs.String("fail-mode", "open", "degradation policy while the collector is unreachable: open (keep relaying) or closed (deny new connections)")
		dialRetries   = fs.Int("dial-retries", 3, "upstream dial attempts per connection (1 = no retries)")
		dialBackoff   = fs.Duration("dial-backoff", 50*time.Millisecond, "initial upstream dial backoff (doubles per retry, jittered)")
		spoolSize     = fs.Int("report-spool", gateway.DefaultSpoolSize, "reports buffered in memory while the collector is unreachable")
		reportRetries = fs.Int("report-retries", 0, "consecutive collector reconnect failures before giving up (0 = never)")
		reportBackoff = fs.Duration("report-backoff", time.Second, "initial collector reconnect backoff (doubles, capped, jittered)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	failMode, err := gateway.ParseFailMode(*failModeStr)
	if err != nil {
		return err
	}
	fleetPeers, err := parseFleetPeers(*peersStr, *peerListen, *ringVnodes, *alertFanout, *gossipEvery)
	if err != nil {
		return err
	}
	if len(fleetPeers) > 0 && (*failLimit != 0 || *failBits != 0) {
		// WFP/1 carries no failure frame, and a source's failures belong
		// at its ring owner, not at whichever member relayed it.
		return fmt.Errorf("-fail-threshold and -fail-bits cannot be combined with -peers: connection failures are not counted across a fleet")
	}
	if *statePath != "" && *stateDir != "" {
		return fmt.Errorf("-state and -state-dir are mutually exclusive")
	}
	if *collector != "" {
		// Reporter.Run replaces a period <= 0 with one second and a
		// spool < 1 with DefaultSpoolSize, so either value would print
		// one setting and run another. Refuse instead.
		if *interval <= 0 {
			return fmt.Errorf("-report-interval %v: must be > 0 when -collector is set", *interval)
		}
		if *spoolSize < 1 {
			return fmt.Errorf("-report-spool %d: must be >= 1 when -collector is set", *spoolSize)
		}
	}
	if *stateDir != "" {
		// Zero or negative intervals used to slip straight into
		// durable.Open, silently disabling the flusher or snapshotter —
		// a durability hole nobody asked for. Refuse instead.
		if *snapEvery <= 0 {
			return fmt.Errorf("-snapshot-interval %v: must be > 0 when -state-dir is set (snapshots bound WAL growth)", *snapEvery)
		}
		if *syncEvery <= 0 {
			return fmt.Errorf("-fsync-interval %v: must be > 0 when -state-dir is set (the WAL group-commit period)", *syncEvery)
		}
	}
	cfg := core.LimiterConfig{
		M:             *m,
		Cycle:         *cycle,
		CheckFraction: *checkFrac,
	}

	// Build the limiter factory once; both the durable and the
	// in-memory paths use it so flag validation happens up front.
	var newLimiter func(start time.Time) (core.Backend, error)
	switch *limiterKind {
	case "exact":
		if *sketchBits != 0 || *failLimit != 0 || *failBits != 0 {
			return fmt.Errorf("-sketch-bits, -fail-threshold and -fail-bits need -limiter=sketch")
		}
		newLimiter = func(start time.Time) (core.Backend, error) {
			return core.NewLimiter(cfg, start)
		}
	case "sketch":
		scfg := core.SketchConfig{
			LimiterConfig: cfg,
			Bits:          *sketchBits,
			FailureM:      *failLimit,
			FailureBits:   *failBits,
		}
		newLimiter = func(start time.Time) (core.Backend, error) {
			return core.NewSketchLimiter(scfg, start)
		}
	default:
		return fmt.Errorf("-limiter %q (want exact or sketch)", *limiterKind)
	}
	// Surface bad sketch widths and thresholds before any listener
	// comes up, not on first use.
	if _, err := newLimiter(time.Now().UTC()); err != nil {
		return err
	}

	// The admin endpoint comes up before recovery so orchestrators can
	// watch /readyz flip: 503 while the WAL replays, 200 once the
	// gateway serves with recovered state.
	reg := telemetry.NewRegistry()
	var recovered atomic.Bool
	var gwSlot atomic.Pointer[gateway.Gateway]
	var admin *gateway.AdminServer
	if *adminAddr != "" {
		a, err := gateway.NewAdmin(gateway.AdminConfig{
			Stats: func() any {
				if gw := gwSlot.Load(); gw != nil {
					return gw.Stats()
				}
				return map[string]string{"state": "recovering"}
			},
			Registry: reg,
			Ready: func() bool {
				gw := gwSlot.Load()
				return recovered.Load() && gw != nil && !gw.Degraded()
			},
			Pprof: *pprofOn,
		}, *adminAddr)
		if err != nil {
			return err
		}
		admin = a
		go func() { _ = admin.Serve() }()
		routes := "/healthz, /readyz, /stats, /metrics"
		if *pprofOn {
			routes += ", /debug/pprof/"
		}
		fmt.Printf("admin endpoint on http://%s (%s)\n", admin.Addr(), routes)
	}

	// backend is the limiter this process owns and persists; decider is
	// what the gateway asks, the backend itself or a fleet node in front
	// of it.
	var backend core.Backend
	var store *durable.Store
	if *stateDir != "" {
		store, err = durable.Open(durable.Options{
			Dir:              *stateDir,
			FsyncInterval:    *syncEvery,
			SnapshotInterval: *snapEvery,
			NewLimiter:       newLimiter,
			Metrics:          reg,
			Logf:             log.Printf,
		}, cfg, time.Now().UTC())
		if err != nil {
			if admin != nil {
				admin.Shutdown()
			}
			return err
		}
		backend = store.Limiter()
		ri := store.Recovery()
		if ri.Fresh {
			fmt.Printf("durable state: fresh start in %s\n", *stateDir)
		} else {
			fmt.Printf("durable state: recovered snapshot %d + %d WAL record(s) from %s (cycle %d, truncated %d byte(s))\n",
				ri.SnapshotSeq, ri.ReplayedRecords, *stateDir, backend.CycleIndex(), ri.TruncatedBytes)
		}
	} else {
		backend, err = loadOrCreateLimiter(*statePath, newLimiter)
		if err != nil {
			if admin != nil {
				admin.Shutdown()
			}
			return err
		}
	}
	registerSketchMetrics(reg, backend)

	// With -peers the gateway's limiter is a fleet node in front of the
	// local one: observations route to each source's ring owner, and
	// removals gossip back as alerts, so the decision path is unchanged
	// for the relay — it still just calls Observe.
	var decider core.Decider = backend
	var fleetNode *fleet.Node
	var fleetSrv *fleet.Server
	var fleetTr *fleet.TCPTransport
	closeFleet := func() {
		if fleetNode != nil {
			fleetNode.Stop()
		}
		if fleetSrv != nil {
			fleetSrv.Shutdown()
		}
		if fleetTr != nil {
			fleetTr.Close()
		}
	}
	if len(fleetPeers) > 0 {
		fleetTr = fleet.NewTCPTransport(fleet.TCPOptions{})
		fleetNode, err = fleet.NewNode(fleet.Config{
			Self:      *peerListen,
			Peers:     fleetPeers,
			Vnodes:    *ringVnodes,
			Fanout:    *alertFanout,
			Local:     backend,
			Transport: fleetTr,
			Seed:      uint64(time.Now().UnixNano()),
			Metrics:   reg,
		})
		if err == nil {
			fleetSrv, err = fleet.NewServer(fleetNode, *peerListen)
		}
		if err != nil {
			closeFleet()
			if store != nil {
				_ = store.Close()
			}
			if admin != nil {
				admin.Shutdown()
			}
			return err
		}
		go func() { _ = fleetSrv.Serve() }()
		fleetNode.Start(*gossipEvery, *gossipEvery)
		decider = fleetNode
		fmt.Printf("fleet member %s: %d peers, %d vnodes, fanout %d, gossip every %v\n",
			*peerListen, len(fleetPeers)-1, *ringVnodes, *alertFanout, *gossipEvery)
	}

	gw, err := gateway.New(gateway.Config{
		Limiter:   decider,
		Metrics:   reg,
		FailMode:  failMode,
		DialRetry: faultnet.RetryConfig{MaxAttempts: *dialRetries, BaseDelay: *dialBackoff},
	}, *listen)
	if err != nil {
		closeFleet()
		if store != nil {
			_ = store.Close()
		}
		if admin != nil {
			admin.Shutdown()
		}
		return err
	}
	fmt.Printf("gateway %s listening on %s (M=%d, cycle=%v, fail-%s)\n", *id, gw.Addr(), *m, *cycle, failMode)

	serveErr := make(chan error, 1)
	go func() { serveErr <- gw.Serve() }()
	gwSlot.Store(gw)
	recovered.Store(true)

	var reporter *gateway.Reporter
	reporterErr := make(chan error, 1)
	if *collector != "" {
		reporter = &gateway.Reporter{
			GatewayID:     *id,
			CollectorAddr: *collector,
			Interval:      *interval,
			Source:        gw.Stats,
			SpoolSize:     *spoolSize,
			Retry: faultnet.RetryConfig{
				MaxAttempts: *reportRetries,
				BaseDelay:   *reportBackoff,
			},
			Logf:          log.Printf,
			OnStateChange: func(connected bool) { gw.SetDegraded(!connected) },
		}
		go func() { reporterErr <- reporter.Run() }()
		fmt.Printf("reporting to %s every %v (spool %d, fail-%s when unreachable)\n",
			*collector, *interval, *spoolSize, failMode)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("signal %v: shutting down\n", s)
	case err := <-serveErr:
		fmt.Printf("serve ended: %v\n", err)
	case err := <-reporterErr:
		fmt.Printf("reporter ended: %v\n", err)
	}
	if reporter != nil {
		reporter.Stop()
	}
	if admin != nil {
		admin.Shutdown()
	}
	gw.Shutdown()
	// Fleet gossip stops before the final snapshot so no alert lands
	// between the state cut and process exit.
	closeFleet()

	// State is flushed only after the listeners are down, so the final
	// snapshot captures every decision the gateway made.
	if store != nil {
		if err := store.Close(); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		fmt.Printf("durable state flushed to %s (cycle %d, %d record(s) acknowledged)\n",
			*stateDir, backend.CycleIndex(), store.Acked())
	}
	if *statePath != "" {
		if err := saveLimiter(backend, *statePath); err != nil {
			return err
		}
		fmt.Printf("limiter state saved to %s\n", *statePath)
	}
	s := gw.Stats()
	fmt.Printf("final stats: relayed=%d denied=%d flagged=%d removals=%d\n",
		s.Relayed, s.Denied, s.Flagged, s.Limiter.TotalRemovals)
	if reporter != nil {
		rs := reporter.Stats()
		fmt.Printf("reporter stats: enqueued=%d sent=%d dropped=%d redials=%d reconnects=%d\n",
			rs.Enqueued, rs.Sent, rs.Dropped, rs.Redials, rs.Reconnects)
	}
	return nil
}

// parseFleetPeers validates the fleet flag group up front, before any
// listener or state directory is touched: every member address must be
// syntactically host:port, the membership must be duplicate-free, and
// this node's own -peer-listen must appear in it (every member ships
// the byte-identical list, or the rings disagree about ownership).
// Empty -peers with no -peer-listen means standalone; the parsed
// membership is returned otherwise.
func parseFleetPeers(peers, self string, vnodes, fanout int, gossip time.Duration) ([]string, error) {
	if vnodes <= 0 {
		return nil, fmt.Errorf("-ring-vnodes %d: must be positive", vnodes)
	}
	if fanout <= 0 {
		return nil, fmt.Errorf("-alert-fanout %d: must be positive", fanout)
	}
	if peers == "" {
		if self != "" {
			return nil, fmt.Errorf("-peer-listen needs -peers (the full fleet membership)")
		}
		return nil, nil
	}
	if self == "" {
		return nil, fmt.Errorf("-peers needs -peer-listen (this node's own fleet address)")
	}
	if gossip <= 0 {
		return nil, fmt.Errorf("-gossip-interval %v: must be > 0 when -peers is set", gossip)
	}
	list := strings.Split(peers, ",")
	seen := make(map[string]bool, len(list))
	selfListed := false
	for i, p := range list {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("-peers: empty member address")
		}
		host, port, err := net.SplitHostPort(p)
		if err != nil || host == "" || port == "" {
			return nil, fmt.Errorf("-peers: %q is not a host:port address", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("-peers: duplicate member %q", p)
		}
		seen[p] = true
		list[i] = p
		if p == self {
			selfListed = true
		}
	}
	if !selfListed {
		return nil, fmt.Errorf("-peer-listen %q must appear in -peers (every member runs the same membership list)", self)
	}
	return list, nil
}

// loadOrCreateLimiter restores a snapshot when present — whichever
// backend wrote it — and otherwise builds a fresh limiter via the
// factory the flags selected.
func loadOrCreateLimiter(path string, newLimiter func(time.Time) (core.Backend, error)) (core.Backend, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		switch {
		case err == nil:
			l, err := core.RestoreAnyLimiter(data)
			if err != nil {
				return nil, fmt.Errorf("restore %s: %w", path, err)
			}
			fmt.Printf("restored limiter state from %s (cycle %d)\n", path, l.CycleIndex())
			return l, nil
		case os.IsNotExist(err):
			// Fresh start below.
		default:
			return nil, err
		}
	}
	return newLimiter(time.Now().UTC())
}

// registerSketchMetrics exposes the estimator's memory footprint and
// analytic accuracy, the two numbers an operator sizing -sketch-bits
// watches. It asks the backend this process built or recovered, not the
// gateway's limiter, which may be a fleet node in front of it.
func registerSketchMetrics(reg *telemetry.Registry, backend core.Backend) {
	sk, ok := backend.(*core.SketchLimiter)
	if !ok {
		return
	}
	reg.GaugeFunc("wormgate_sketch_register_bytes",
		"Register-slab memory held by the sketch limiter (capacity, including recycled slabs).",
		func() float64 { return float64(sk.Memory().RegisterBytes) })
	reg.GaugeFunc("wormgate_sketch_tracked_hosts",
		"Hosts with sketch state in the current containment cycle.",
		func() float64 { return float64(sk.Memory().TrackedHosts) })
	reg.GaugeFunc("wormgate_sketch_bytes_per_host",
		"Fixed per-host register cost of the configured sketch widths.",
		func() float64 { return float64(sk.Memory().BytesPerHost) })
	reg.GaugeFunc("wormgate_sketch_expected_relative_error",
		"Analytic standard relative error of the cardinality estimate at the removal threshold M.",
		func() float64 { return sk.ExpectedRelativeError() })
}

// saveLimiter publishes the limiter snapshot (the bare MarshalState
// payload) atomically under path: a power loss leaves the previous file
// or the new one, never an empty or torn one. The OS literal, not NewOS:
// a missing parent directory stays an error, it is not created.
func saveLimiter(l core.Backend, path string) error {
	data, err := l.MarshalState()
	if err != nil {
		return err
	}
	return crashsafe.Publish(&faultfs.OS{Dir: filepath.Dir(path)}, filepath.Base(path), data)
}

// runCollect starts a collector and prints the fleet aggregate
// periodically until SIGINT/SIGTERM.
func runCollect(args []string) error {
	fs := flag.NewFlagSet("wormgate collect", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:7700", "collector listen address")
		interval  = fs.Duration("print-interval", 10*time.Second, "aggregate print period")
		adminAddr = fs.String("admin", "", "HTTP admin endpoint address (/healthz, /stats, /metrics); empty = off")
		pprofOn   = fs.Bool("pprof", false, "mount /debug/pprof/ on the admin endpoint (debug only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := gateway.NewCollector(*listen)
	if err != nil {
		return err
	}
	fmt.Printf("collector listening on %s\n", c.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- c.Serve() }()

	var admin *gateway.AdminServer
	if *adminAddr != "" {
		admin, err = gateway.NewAdmin(gateway.AdminConfig{
			Stats:    func() any { return c.Aggregate() },
			Registry: c.Registry(),
			Pprof:    *pprofOn,
		}, *adminAddr)
		if err != nil {
			return err
		}
		go func() { _ = admin.Serve() }()
		fmt.Printf("admin endpoint on http://%s\n", admin.Addr())
		defer admin.Shutdown()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			f := c.Aggregate()
			fmt.Printf("fleet: gateways=%d relayed=%d denied=%d flagged=%d removals=%d\n",
				f.Gateways, f.Relayed, f.Denied, f.Flagged, f.TotalRemovals)
		case s := <-sig:
			fmt.Printf("signal %v: shutting down\n", s)
			c.Shutdown()
			return nil
		case err := <-serveErr:
			return err
		}
	}
}

// runProbe issues one connection through a gateway and copies stdin to
// the destination and the response to stdout (netcat-style).
func runProbe(args []string) error {
	fs := flag.NewFlagSet("wormgate probe", flag.ContinueOnError)
	var (
		gwAddr = fs.String("gateway", "127.0.0.1:7800", "gateway address")
		srcStr = fs.String("src", "10.0.0.1", "source IPv4 the request is attributed to")
		dstStr = fs.String("dst", "", "destination IPv4")
		port   = fs.Int("port", 80, "destination port")
		send   = fs.String("send", "", "payload to send (empty = copy stdin)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dstStr == "" {
		return fmt.Errorf("probe needs -dst")
	}
	src, err := addr.ParseIP(*srcStr)
	if err != nil {
		return err
	}
	dst, err := addr.ParseIP(*dstStr)
	if err != nil {
		return err
	}
	conn, flagged, err := gateway.Client{GatewayAddr: *gwAddr}.Connect(src, dst, *port)
	if err != nil {
		return err
	}
	defer conn.Close()
	if flagged {
		fmt.Fprintln(os.Stderr, "warning: gateway flagged this source for checking")
	}
	if *send != "" {
		if _, err := conn.Write([]byte(*send)); err != nil {
			return err
		}
		if tcp, ok := conn.(interface{ CloseWrite() error }); ok {
			// Best-effort half-close: the peer may already have hung up
			// (e.g. the gateway denied after the greeting).
			_ = tcp.CloseWrite()
		}
	} else {
		go func() {
			_, _ = io.Copy(conn, os.Stdin)
		}()
	}
	_, err = io.Copy(os.Stdout, conn)
	return err
}
