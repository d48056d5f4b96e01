package gateway

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"wormcontain/internal/faultnet"
	"wormcontain/internal/telemetry"
)

// report is one gateway's periodic counter snapshot, serialized as one
// JSON object per line on the collector connection.
type report struct {
	// GatewayID names the reporting enforcement point.
	GatewayID string `json:"gatewayId"`
	// SentAtUnixMillis timestamps the snapshot at the sender.
	SentAtUnixMillis int64 `json:"sentAtUnixMillis"`
	// Stats is the gateway's counter snapshot.
	Stats GatewayStats `json:"stats"`
}

// Collector aggregates Reports from a fleet of gateways over TCP: the
// operator-side view of Section IV's monitoring (which hosts crossed
// f·M, how many were removed, whether the fleet sees an outbreak).
type Collector struct {
	listener net.Listener
	reg      *telemetry.Registry

	mu       sync.Mutex
	latest   map[string]report
	latestAt map[string]time.Time // receive time of each latest report
	total    int
	closed   bool
	badLine  int
	conns    map[net.Conn]struct{} // open reporter connections

	wg sync.WaitGroup
}

// NewCollector returns a collector listening on listenAddr.
func NewCollector(listenAddr string) (*Collector, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("gateway: collector listen: %w", err)
	}
	c := &Collector{
		listener: ln,
		reg:      telemetry.NewRegistry(),
		latest:   make(map[string]report),
		latestAt: make(map[string]time.Time),
		conns:    make(map[net.Conn]struct{}),
	}
	c.registerMetrics()
	return c, nil
}

// Registry returns the collector's telemetry registry — the source for
// an admin server's /metrics endpoint. All collector families are
// function-backed reads of state the collector already synchronizes,
// so scraping never contends with the report ingest path beyond one
// mutex acquisition.
func (c *Collector) Registry() *telemetry.Registry { return c.reg }

// registerMetrics wires the collector's families into its registry.
func (c *Collector) registerMetrics() {
	c.reg.CounterFunc("wormgate_collector_reports_total",
		"Valid gateway reports consumed.",
		func() float64 { return float64(c.ReportsReceived()) })
	c.reg.CounterFunc("wormgate_collector_bad_lines_total",
		"Malformed report lines seen.",
		func() float64 { return float64(c.badLines()) })
	c.reg.GaugeFunc("wormgate_collector_gateways",
		"Gateways with at least one report.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.latest))
		})
	c.reg.GaugeFunc("wormgate_collector_report_staleness_seconds",
		"Age of the stalest gateway's most recent report.",
		func() float64 { return c.staleness().Seconds() })
	c.reg.CounterFunc("wormgate_fleet_relayed_total",
		"Relayed connections summed over the fleet's latest reports.",
		func() float64 { return float64(c.Aggregate().Relayed) })
	c.reg.CounterFunc("wormgate_fleet_denied_total",
		"Denied connections summed over the fleet's latest reports.",
		func() float64 { return float64(c.Aggregate().Denied) })
	c.reg.CounterFunc("wormgate_fleet_flagged_total",
		"Flagged connections summed over the fleet's latest reports.",
		func() float64 { return float64(c.Aggregate().Flagged) })
	c.reg.CounterFunc("wormgate_fleet_removals_total",
		"Host removals summed over the fleet's latest reports.",
		func() float64 { return float64(c.Aggregate().TotalRemovals) })
}

// staleness returns the age of the stalest gateway's most recent
// report (zero when no gateway has reported yet) — the fleet-health
// gauge: a growing value means a gateway stopped reporting.
func (c *Collector) staleness() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var oldest time.Time
	for _, at := range c.latestAt {
		if oldest.IsZero() || at.Before(oldest) {
			oldest = at
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest)
}

// Addr returns the collector's listening address.
func (c *Collector) Addr() string { return c.listener.Addr().String() }

// Serve accepts reporter connections until Shutdown. It always returns a
// non-nil error; after Shutdown the error is net.ErrClosed.
func (c *Collector) Serve() error {
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			return err
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			continue
		}
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.consume(conn)
		}()
	}
}

// Shutdown stops accepting, closes every open reporter connection, and
// waits for readers to drain. Closing the connections is what makes
// Shutdown terminate: a consume goroutine otherwise blocks in Scan
// until its reporter hangs up, which a reconnecting reporter never does.
func (c *Collector) Shutdown() {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	if !already {
		if err := c.listener.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			_ = err
		}
		for _, conn := range conns {
			conn.Close()
		}
	}
	c.wg.Wait()
}

// Wire-format bounds for one report line. The scanner already caps the
// physical line; parseReportLine additionally rejects oversized lines
// and absurd gateway ids so a malicious or corrupted reporter cannot
// make the collector hold unbounded state per gateway.
const (
	maxReportLine = 256 * 1024
	maxGatewayID  = 128
)

// parseReportLine decodes one newline-delimited JSON report. It is the
// collector's entire wire-format parser, split out so the fuzz target
// can hammer it: it must never panic and never accept a report whose
// retained state (the gateway id key) exceeds the wire bounds.
func parseReportLine(line []byte) (report, error) {
	if len(line) > maxReportLine {
		return report{}, fmt.Errorf("gateway: report line %d bytes exceeds %d", len(line), maxReportLine)
	}
	var r report
	if err := json.Unmarshal(line, &r); err != nil {
		return report{}, fmt.Errorf("gateway: bad report line: %w", err)
	}
	if r.GatewayID == "" {
		return report{}, errors.New("gateway: report missing gatewayId")
	}
	if len(r.GatewayID) > maxGatewayID {
		return report{}, fmt.Errorf("gateway: gatewayId %d bytes exceeds %d", len(r.GatewayID), maxGatewayID)
	}
	return r, nil
}

// consume reads newline-delimited JSON reports from one connection.
func (c *Collector) consume(conn net.Conn) {
	defer func() {
		conn.Close()
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 16*1024), maxReportLine)
	for sc.Scan() {
		r, err := parseReportLine(sc.Bytes())
		if err != nil {
			c.mu.Lock()
			c.badLine++
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		c.latest[r.GatewayID] = r
		c.latestAt[r.GatewayID] = time.Now()
		c.total++
		c.mu.Unlock()
	}
}

// ReportsReceived returns the number of valid reports consumed so far.
func (c *Collector) ReportsReceived() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// badLines returns the number of malformed report lines seen.
func (c *Collector) badLines() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.badLine
}

// FleetStats is the aggregate across all reporting gateways.
type FleetStats struct {
	Gateways      int
	Relayed       uint64
	Denied        uint64
	Flagged       uint64
	RemovedHosts  int
	FlaggedHosts  int
	TotalRemovals int
}

// Aggregate sums the latest report of every gateway.
func (c *Collector) Aggregate() FleetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var f FleetStats
	f.Gateways = len(c.latest)
	for _, r := range c.latest {
		f.Relayed += r.Stats.Relayed
		f.Denied += r.Stats.Denied
		f.Flagged += r.Stats.Flagged
		f.RemovedHosts += r.Stats.Limiter.RemovedHosts
		f.FlaggedHosts += r.Stats.Limiter.FlaggedHosts
		f.TotalRemovals += r.Stats.Limiter.TotalRemovals
	}
	return f
}

// ReporterStats is the reporter's own health ledger. Every tick takes
// the gateway's current snapshot and either delivers it or misses, so
//
//	Ticks == Sent + Missed
//
// A missed snapshot is not kept for later: the next tick's is newer,
// and the collector keeps only each gateway's latest report.
type ReporterStats struct {
	// Ticks counts snapshots taken: one per tick and one at Stop.
	Ticks uint64 `json:"ticks"`
	// Sent counts snapshots delivered to the collector.
	Sent uint64 `json:"sent"`
	// Missed counts snapshots that could not be delivered.
	Missed uint64 `json:"missed"`
	// Redials counts failed (re)connect attempts.
	Redials uint64 `json:"redials"`
	// Reconnects counts successful connects, including the first.
	Reconnects uint64 `json:"reconnects"`
}

// Reporter periodically pushes a gateway's stats to a collector and
// survives collector outages: each tick sends the current snapshot, a
// tick that finds the collector unreachable is counted as missed, and
// reconnects are paced by capped exponential backoff. Start it with Run
// (usually in a goroutine) and stop it with Stop; Stop waits for the
// loop to exit.
type Reporter struct {
	// GatewayID names this gateway in reports.
	GatewayID string
	// CollectorAddr is the collector's TCP address.
	CollectorAddr string
	// Interval is the reporting period (default 1s).
	Interval time.Duration
	// Source supplies the stats snapshot, typically Gateway.Stats.
	Source func() GatewayStats
	// Retry paces reconnect attempts. MaxAttempts bounds *consecutive*
	// failed dials before Run gives up and returns the last error;
	// <= 0 (the default) retries forever, which is the right posture for
	// a production gateway — the fleet report path must outlast the
	// outage it is reporting on.
	Retry faultnet.RetryConfig
	// Logf, when non-nil, receives operational log lines (failed dials
	// and sends, reconnects). Nil means silent.
	Logf func(format string, args ...any)
	// OnStateChange, when non-nil, is called with false when the
	// collector becomes unreachable and true when the connection is
	// (re)established — the hook the gateway's fail-open/fail-closed
	// degradation policy attaches to. Called from the reporter
	// goroutine.
	OnStateChange func(connected bool)
	// dial opens the collector connection; nil means net.DialTimeout
	// with dialTimeout. The chaos tests set it to inject faults.
	dial func(network, address string) (net.Conn, error)

	mu    sync.Mutex
	stats ReporterStats

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Stats returns the reporter's delivery accounting so far. Safe to call
// concurrently with Run.
func (r *Reporter) Stats() ReporterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// logf logs through the configured sink, if any.
func (r *Reporter) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Run reports until Stop, reconnecting through outages. It returns nil
// after Stop, or the last dial error once Retry.MaxAttempts consecutive
// reconnect attempts have failed (never with the default unlimited
// budget). It sends one snapshot at once, one per Interval and a last
// one at Stop.
func (r *Reporter) Run() error {
	if r.GatewayID == "" || r.CollectorAddr == "" || r.Source == nil {
		return errors.New("gateway: reporter needs GatewayID, CollectorAddr and Source")
	}
	if r.Interval <= 0 {
		r.Interval = time.Second
	}
	dial := r.dial
	if dial == nil {
		dial = func(network, address string) (net.Conn, error) {
			return net.DialTimeout(network, address, dialTimeout)
		}
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	defer close(r.done)

	var (
		conn       net.Conn
		enc        *json.Encoder
		backoff    = r.Retry.NewBackoff()
		nextDialAt time.Time
		connected  bool
		fatal      error
	)
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	setConnected := func(v bool) {
		if v == connected {
			return
		}
		connected = v
		if r.OnStateChange != nil {
			r.OnStateChange(v)
		}
	}

	// ensureConn dials when disconnected and past the backoff deadline.
	// It returns whether a connection is available now; a permanently
	// exhausted retry budget sets fatal.
	ensureConn := func() bool {
		if conn != nil {
			return true
		}
		now := time.Now()
		if now.Before(nextDialAt) {
			return false
		}
		c, err := dial("tcp", r.CollectorAddr)
		if err != nil {
			r.mu.Lock()
			r.stats.Redials++
			r.mu.Unlock()
			setConnected(false)
			delay, ok := backoff.Next()
			if !ok {
				fatal = fmt.Errorf("gateway: reporter dial: %w", err)
				return false
			}
			nextDialAt = now.Add(delay)
			r.logf("gateway reporter %s: dial %s: %v (retry in %v, %d report(s) missed)",
				r.GatewayID, r.CollectorAddr, err, delay.Round(time.Millisecond), r.Stats().Missed)
			return false
		}
		conn = c
		enc = json.NewEncoder(conn)
		backoff.Reset()
		nextDialAt = time.Time{}
		r.mu.Lock()
		r.stats.Reconnects++
		n := r.stats.Reconnects
		r.mu.Unlock()
		setConnected(true)
		if n > 1 {
			r.logf("gateway reporter %s: reconnected to %s", r.GatewayID, r.CollectorAddr)
		}
		return true
	}

	// tick sends the current snapshot. A failed send drops the
	// connection; the next tick redials and sends a newer snapshot.
	tick := func() {
		rep := report{
			GatewayID:        r.GatewayID,
			SentAtUnixMillis: time.Now().UnixMilli(),
			Stats:            r.Source(),
		}
		sent := false
		if ensureConn() {
			if err := enc.Encode(rep); err != nil {
				conn.Close()
				conn, enc = nil, nil
				setConnected(false)
				r.logf("gateway reporter %s: send: %v", r.GatewayID, err)
			} else {
				sent = true
			}
		}
		r.mu.Lock()
		r.stats.Ticks++
		if sent {
			r.stats.Sent++
		} else {
			r.stats.Missed++
		}
		r.mu.Unlock()
	}

	// Immediate first report so collectors see new gateways promptly.
	tick()
	ticker := time.NewTicker(r.Interval)
	defer ticker.Stop()
	for {
		if fatal != nil {
			return fatal
		}
		select {
		case <-ticker.C:
			tick()
		case <-r.stop:
			// A last snapshot, so the collector holds the gateway's
			// final counters.
			tick()
			return nil
		}
	}
}

// Stop signals Run to exit and waits for it. Safe to call once Run has
// started; calling Stop on a never-started reporter is a no-op.
func (r *Reporter) Stop() {
	if r.stop == nil {
		return
	}
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}
