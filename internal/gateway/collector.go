package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"wormcontain/internal/telemetry"
)

// report is one gateway's periodic counter snapshot, the JSON body of
// one POST /report to the collector.
type report struct {
	// GatewayID names the reporting enforcement point.
	GatewayID string `json:"gatewayId"`
	// SentAtUnixMillis timestamps the snapshot at the sender.
	SentAtUnixMillis int64 `json:"sentAtUnixMillis"`
	// Stats is the gateway's counter snapshot.
	Stats GatewayStats `json:"stats"`
}

// Collector aggregates Reports from a fleet of gateways: the
// operator-side view of Section IV's monitoring (which hosts crossed
// f·M, how many were removed, whether the fleet sees an outbreak). It
// has no listener of its own: an AdminServer whose AdminConfig names it
// accepts reports on POST /report.
type Collector struct {
	reg *telemetry.Registry

	mu       sync.Mutex
	latest   map[string]report
	latestAt map[string]time.Time // receive time of each latest report
	total    int
	badLine  int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	c := &Collector{
		reg:      telemetry.NewRegistry(),
		latest:   make(map[string]report),
		latestAt: make(map[string]time.Time),
	}
	c.registerMetrics()
	return c
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
		"Malformed report bodies seen.",
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

// Wire-format bounds for one report. The handler already caps the body
// read; parseReportLine additionally rejects oversized bodies and
// absurd gateway ids so a malicious or corrupted reporter cannot make
// the collector hold unbounded state per gateway.
const (
	maxReportLine = 256 * 1024
	maxGatewayID  = 128
)

// parseReportLine decodes one JSON report. It is the collector's
// entire wire-format parser, split out so the fuzz target can hammer
// it: it must never panic and never accept a report whose retained
// state (the gateway id key) exceeds the wire bounds.
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

// handleReport implements POST /report: one report per request,
// answered 204 once it is the gateway's latest and 400 if it is
// malformed or longer than maxReportLine.
func (c *Collector) handleReport(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxReportLine))
	var r report
	if err == nil {
		r, err = parseReportLine(body)
	}
	c.mu.Lock()
	if err != nil {
		c.badLine++
	} else {
		c.latest[r.GatewayID] = r
		c.latestAt[r.GatewayID] = time.Now()
		c.total++
	}
	c.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ReportsReceived returns the number of valid reports consumed so far.
func (c *Collector) ReportsReceived() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// badLines returns the number of malformed report bodies seen.
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
	// Sent counts snapshots the collector acknowledged with a 2xx.
	Sent uint64 `json:"sent"`
	// Missed counts snapshots that were not acknowledged: the POST
	// failed, timed out or drew another status.
	Missed uint64 `json:"missed"`
}

// Reporter periodically pushes a gateway's stats to a collector and
// survives collector outages: each tick POSTs the current snapshot to
// the collector's /report with a deadline of one Interval, and a tick
// the collector does not acknowledge is counted as missed. Start it
// with Run (usually in a goroutine) and stop it with Stop; Stop waits
// for the loop to exit.
type Reporter struct {
	// GatewayID names this gateway in reports.
	GatewayID string
	// CollectorAddr is the host:port of the collector's admin endpoint.
	CollectorAddr string
	// Interval is the reporting period and each report's deadline
	// (default 1s).
	Interval time.Duration
	// Source supplies the stats snapshot, typically Gateway.Stats.
	Source func() GatewayStats
	// Logf, when non-nil, receives operational log lines (missed
	// reports, recoveries). Nil means silent.
	Logf func(format string, args ...any)
	// OnStateChange, when non-nil, is called with false on a missed
	// tick that follows a sent one (or is the first) and with true on a
	// sent tick that follows a missed one — the hook the gateway's
	// fail-open/fail-closed degradation policy attaches to. Called from
	// the reporter goroutine.
	OnStateChange func(connected bool)
	// dial opens collector connections; nil means a net.Dialer bounded
	// by the report's deadline. The chaos tests set it to inject faults.
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

// Run reports until Stop and returns nil then; it returns an error only
// for a Reporter missing GatewayID, CollectorAddr or Source. It sends
// one snapshot at once, one per Interval and a last one at Stop.
func (r *Reporter) Run() error {
	if r.GatewayID == "" || r.CollectorAddr == "" || r.Source == nil {
		return errors.New("gateway: reporter needs GatewayID, CollectorAddr and Source")
	}
	if r.Interval <= 0 {
		r.Interval = time.Second
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	defer close(r.done)

	var dialer net.Dialer
	client := &http.Client{
		Timeout: r.Interval,
		Transport: &http.Transport{
			// Proxy is nil: the report goes straight to the collector.
			DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
				if r.dial != nil {
					return r.dial(network, address)
				}
				return dialer.DialContext(ctx, network, address)
			},
		},
	}
	defer client.CloseIdleConnections()
	url := "http://" + r.CollectorAddr + "/report"

	// The gateway starts undegraded, as if the collector were reachable.
	connected := true
	tick := func() {
		body, err := json.Marshal(report{
			GatewayID:        r.GatewayID,
			SentAtUnixMillis: time.Now().UnixMilli(),
			Stats:            r.Source(),
		})
		if err == nil {
			err = post(client, url, body)
		}
		sent := err == nil
		r.mu.Lock()
		r.stats.Ticks++
		if sent {
			r.stats.Sent++
		} else {
			r.stats.Missed++
		}
		missed := r.stats.Missed
		r.mu.Unlock()
		if !sent {
			r.logf("gateway reporter %s: report to %s: %v (%d report(s) missed)",
				r.GatewayID, r.CollectorAddr, err, missed)
		}
		if sent == connected {
			return
		}
		connected = sent
		if sent {
			r.logf("gateway reporter %s: collector %s reachable again", r.GatewayID, r.CollectorAddr)
		}
		if r.OnStateChange != nil {
			r.OnStateChange(sent)
		}
	}

	// Immediate first report so collectors see new gateways promptly.
	tick()
	ticker := time.NewTicker(r.Interval)
	defer ticker.Stop()
	for {
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

// post delivers one report body and succeeds only on a 2xx answer.
func post(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	// Drain the short answer so the connection is reused next tick.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("collector answered %s", resp.Status)
	}
	return nil
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
