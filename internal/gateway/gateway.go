// Package gateway turns the paper's containment scheme into deployable
// network software: a TCP relay that sits at an enforcement point (host
// agent or LAN egress — the paper argues the scheme "is host based and
// therefore easier to deploy"), meters each source's distinct
// destinations through core.Limiter, and relays, flags or refuses
// connections accordingly. A companion Collector aggregates counter
// snapshots from a fleet of gateways so operators can watch fraction-f
// warnings across the network (Section IV's "complete checking process"
// trigger).
//
// Wire protocol (WCP/1, line-oriented, deliberately trivial):
//
//	client → gateway:  WCP/1 <src-ipv4> <dst-ipv4> <dst-port>\n
//	gateway → client:  OK\n     — relayed; bytes now pipe both ways
//	                   CHECK\n  — relayed, but the source crossed f·M
//	                   DENY <reason>\n — refused, connection closed
//
// The explicit source field supports gateway deployment at a router on
// behalf of many internal hosts; a host-local agent would fill in its
// own address.
package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/core"
	"wormcontain/internal/faultnet"
	"wormcontain/internal/telemetry"
)

// protocolMagic opens every WCP/1 request line.
const protocolMagic = "WCP/1"

// Preformatted verdict lines: the status write sits on the per-
// connection hot path, where fmt's formatting machinery is measurable
// at tens of thousands of connections per second.
var (
	respOK            = []byte("OK\n")
	respCheck         = []byte("CHECK\n")
	respDenyLimit     = []byte("DENY scan-limit-exceeded\n")
	respDenyMalformed = []byte("DENY malformed-request\n")
	respDenyUpstream  = []byte("DENY upstream-unreachable\n")
	respDenyDegraded  = []byte("DENY degraded-fail-closed\n")
)

// FailMode selects what a gateway does with new connections while it is
// degraded — its reporter has lost the collector, so the fleet cannot
// see this gateway's fraction-f warnings.
type FailMode int

const (
	// failOpen (the default) keeps relaying while degraded: containment
	// still runs locally, only fleet visibility is lost. This preserves
	// service during monitoring outages.
	failOpen FailMode = iota
	// failClosed denies new connections while degraded: the
	// conservative containment posture for deployments where an
	// unmonitored gateway during an outbreak is worse than an outage.
	failClosed
)

// String implements fmt.Stringer.
func (m FailMode) String() string {
	switch m {
	case failOpen:
		return "open"
	case failClosed:
		return "closed"
	default:
		return fmt.Sprintf("FailMode(%d)", int(m))
	}
}

// ParseFailMode parses "open" or "closed".
func ParseFailMode(s string) (FailMode, error) {
	switch s {
	case "open":
		return failOpen, nil
	case "closed":
		return failClosed, nil
	default:
		return 0, fmt.Errorf("gateway: fail mode %q (want open or closed)", s)
	}
}

// Dialer opens the upstream connection for a permitted relay. Injectable
// for tests and for policy routing; the zero Config uses net.Dial with a
// timeout.
type Dialer func(network, address string) (net.Conn, error)

// Config parameterizes a Gateway.
type Config struct {
	// Limiter is the containment engine; required. Either backend works
	// (the exact core.Limiter or the sketch-based core.SketchLimiter),
	// bare, behind a durable store or behind a fleet node: the gateway
	// calls Observe per connection and Snapshot for its statistics.
	// When the limiter additionally implements core.FailureObserver
	// (the sketch with a failure threshold configured), the gateway
	// feeds upstream dial failures into it — the connection-failure
	// containment signal.
	Limiter core.Decider
	// Dial opens upstream connections; nil means net.DialTimeout with
	// dialTimeout.
	Dial Dialer
	// Now supplies time for limiter observations; nil means time.Now.
	// Injectable so tests and simulations drive a virtual clock.
	Now func() time.Time
	// Metrics, when non-nil, is the telemetry registry the gateway
	// registers its metric families into (shared with an admin server's
	// /metrics endpoint). Nil means a private registry, reachable via
	// Gateway.Registry; instrumentation is always on — the sharded
	// counters cost single-digit nanoseconds per connection.
	Metrics *telemetry.Registry
	// DialRetry retries the upstream dial with capped exponential
	// backoff before the gateway denies the connection. MaxAttempts is
	// the total number of dial attempts; <= 0 means 1 (no retries, the
	// historical behavior). Worm-outbreak conditions make transient dial
	// failures the norm, not the exception — see internal/faultnet.
	DialRetry faultnet.RetryConfig
	// FailMode selects the degradation policy applied while
	// SetDegraded(true) is in effect (typically wired to the reporter's
	// OnStateChange). The zero value is fail-open; ParseFailMode names both.
	FailMode FailMode
	// sleep realizes dial-retry backoff delays; nil means time.Sleep.
	// The chaos tests set it so that backoff does not slow them.
	sleep func(time.Duration)
}

// dialTimeout bounds upstream connection establishment.
const dialTimeout = 10 * time.Second

// Gateway is the enforcement point. Create with New, start with Serve,
// stop with Shutdown.
type Gateway struct {
	cfg      Config
	listener net.Listener
	reg      *telemetry.Registry
	metrics  *metricSet
	failObs  core.FailureObserver // non-nil when cfg.Limiter observes failures
	degraded atomic.Bool

	mu     sync.Mutex
	closed bool

	wg sync.WaitGroup
}

// New validates the configuration and returns a gateway listening on
// listenAddr (e.g. "127.0.0.1:0").
func New(cfg Config, listenAddr string) (*Gateway, error) {
	if cfg.Limiter == nil {
		return nil, errors.New("gateway: config needs a limiter")
	}
	if cfg.Dial == nil {
		cfg.Dial = func(network, address string) (net.Conn, error) {
			return net.DialTimeout(network, address, dialTimeout)
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.DialRetry.MaxAttempts <= 0 {
		cfg.DialRetry.MaxAttempts = 1
	}
	if cfg.sleep == nil {
		cfg.sleep = time.Sleep
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen: %w", err)
	}
	g := &Gateway{
		cfg:      cfg,
		listener: ln,
		reg:      reg,
	}
	// Feature-detected once here, not per connection: the type assertion
	// stays off the relay path.
	g.failObs, _ = cfg.Limiter.(core.FailureObserver)
	g.metrics = newMetricSet(reg, cfg.Limiter, &g.degraded)
	return g, nil
}

// SetDegraded flips the gateway's degraded state — wired to the
// reporter's OnStateChange so losing the collector engages the
// configured FailMode. Safe from any goroutine.
func (g *Gateway) SetDegraded(v bool) { g.degraded.Store(v) }

// Ready reports whether the gateway should be sent new connections:
// always under fail-open, which keeps relaying while degraded, and
// under fail-closed only while it is not degraded — it would deny them.
func (g *Gateway) Ready() bool { return g.cfg.FailMode == failOpen || !g.degraded.Load() }

// Registry returns the telemetry registry holding the gateway's metric
// families — the source for an admin server's /metrics endpoint.
func (g *Gateway) Registry() *telemetry.Registry { return g.reg }

// Addr returns the gateway's listening address.
func (g *Gateway) Addr() string { return g.listener.Addr().String() }

// Serve accepts and handles connections until Shutdown. It always
// returns a non-nil error; after Shutdown the error is net.ErrClosed.
func (g *Gateway) Serve() error {
	for {
		conn, err := g.listener.Accept()
		if err != nil {
			return err
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.handle(conn)
		}()
	}
}

// Shutdown stops accepting and waits for in-flight relays to finish.
// Safe to call more than once.
func (g *Gateway) Shutdown() {
	g.mu.Lock()
	already := g.closed
	g.closed = true
	g.mu.Unlock()
	if !already {
		// Closing the listener unblocks Serve's Accept.
		if err := g.listener.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			// Nothing actionable: the listener is going away regardless.
			_ = err
		}
	}
	g.wg.Wait()
}

// GatewayStats is a snapshot of the relay counters plus the limiter's
// containment counters.
type GatewayStats struct {
	Relayed        uint64     `json:"relayed"`
	Denied         uint64     `json:"denied"`
	Flagged        uint64     `json:"flagged"`
	ProtocolErrors uint64     `json:"protocolErrors"`
	DialRetries    uint64     `json:"dialRetries"`
	DegradedDenied uint64     `json:"degradedDenied"`
	Degraded       bool       `json:"degraded"`
	Limiter        core.Stats `json:"limiter"`
}

// Stats returns the current snapshot. Relay counters come from the
// telemetry registry and decision counters from the limiter's own
// totals — the same two sources /metrics reads, so the surfaces agree.
func (g *Gateway) Stats() GatewayStats {
	lim := g.cfg.Limiter.Snapshot()
	return GatewayStats{
		Relayed:        g.metrics.relayed.Value(),
		Denied:         uint64(lim.TotalDenied),
		Flagged:        uint64(lim.TotalFlags),
		ProtocolErrors: g.metrics.protoErr.Value(),
		DialRetries:    g.metrics.dialRetries.Value(),
		DegradedDenied: g.metrics.degradedDenied.Value(),
		Degraded:       g.degraded.Load(),
		Limiter:        lim,
	}
}

// request is a parsed WCP/1 header.
type request struct {
	src     addr.IP
	dst     addr.IP
	dstPort int
}

// parseRequest parses "WCP/1 <src> <dst> <port>". The success path
// allocates nothing: tokens are substrings of line (no strings.Fields
// slice) and addr.ParseIP is split-free, which together took the
// per-connection decision path from three allocations to zero.
func parseRequest(line string) (request, error) {
	magic, rest := nextField(line)
	srcTok, rest := nextField(rest)
	dstTok, rest := nextField(rest)
	portTok, rest := nextField(rest)
	trailing, _ := nextField(rest)
	if magic != protocolMagic || portTok == "" || trailing != "" {
		return request{}, fmt.Errorf("gateway: malformed request %q", line)
	}
	src, err := addr.ParseIP(srcTok)
	if err != nil {
		return request{}, fmt.Errorf("gateway: bad source: %w", err)
	}
	dst, err := addr.ParseIP(dstTok)
	if err != nil {
		return request{}, fmt.Errorf("gateway: bad destination: %w", err)
	}
	port, err := strconv.Atoi(portTok)
	if err != nil || port < 1 || port > 65535 {
		return request{}, fmt.Errorf("gateway: bad port %q", portTok)
	}
	return request{src: src, dst: dst, dstPort: port}, nil
}

// nextField skips ASCII whitespace and returns the next token plus the
// remainder of s. Both returns are substrings of s — no allocation.
func nextField(s string) (token, rest string) {
	i := 0
	for i < len(s) && isASCIISpace(s[i]) {
		i++
	}
	j := i
	for j < len(s) && !isASCIISpace(s[j]) {
		j++
	}
	return s[i:j], s[j:]
}

// isASCIISpace matches the whitespace a WCP/1 line can legally carry.
func isASCIISpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '\v', '\f':
		return true
	}
	return false
}

// observe runs the limiter decision for one connection — the hot path.
// Decision counting happens inside the limiter (under the mutex it
// already holds), so the only cost added here is one Bernoulli coin
// flip; a sampled minority of decisions additionally pays for the two
// clock reads feeding the latency histogram.
func (g *Gateway) observe(src, dst uint32) core.Decision {
	if g.metrics.sampler.Sample() {
		start := time.Now()
		d := g.cfg.Limiter.Observe(src, dst, g.cfg.Now())
		g.metrics.decisionSeconds.Observe(time.Since(start))
		return d
	}
	return g.cfg.Limiter.Observe(src, dst, g.cfg.Now())
}

// handle serves one client connection end to end.
func (g *Gateway) handle(client net.Conn) {
	defer client.Close()

	// The request line fits in the 256-byte limit, so a full-size bufio
	// buffer would be pure allocation overhead at high accept rates.
	reader := bufio.NewReaderSize(io.LimitReader(client, 256), 256)
	line, err := reader.ReadString('\n')
	if err != nil {
		g.metrics.protoErr.Inc()
		return
	}
	req, err := parseRequest(line)
	if err != nil {
		g.metrics.protoErr.Inc()
		_, _ = client.Write(respDenyMalformed)
		return
	}

	// Fail-closed degradation: with fleet reporting down, a fail-closed
	// gateway refuses new work before the limiter ever sees it — the
	// denial is a policy outcome, not a containment decision, so it must
	// not consume the source's scan budget.
	if g.cfg.FailMode == failClosed && g.degraded.Load() {
		g.metrics.degradedDenied.Inc()
		_, _ = client.Write(respDenyDegraded)
		return
	}

	switch g.observe(uint32(req.src), uint32(req.dst)) {
	case core.Deny:
		_, _ = client.Write(respDenyLimit)
		return
	case core.AllowAndCheck:
		if _, err := client.Write(respCheck); err != nil {
			return
		}
	case core.Allow:
		if _, err := client.Write(respOK); err != nil {
			return
		}
	default:
		g.metrics.protoErr.Inc()
		return
	}

	upstream, err := g.dialUpstream(net.JoinHostPort(req.dst.String(), strconv.Itoa(req.dstPort)))
	if err != nil {
		g.metrics.dialErrors.Inc()
		// Connection-failure containment: a permitted connection that
		// could not reach its destination is exactly the signal the
		// failure-counting variant keys on — worm scans mostly hit
		// unreachable or refusing addresses. The verdict (if any) bites
		// on the source's NEXT attempt; this one is already being
		// refused as unreachable.
		if g.failObs != nil {
			g.failObs.ObserveFailure(uint32(req.src), uint32(req.dst), g.cfg.Now())
		}
		_, _ = client.Write(respDenyUpstream)
		return
	}
	defer upstream.Close()
	g.metrics.relayed.Inc()
	g.metrics.activeRelays.Add(1)
	defer g.metrics.activeRelays.Add(-1)

	// Bidirectional relay; each direction closes the other on EOF.
	done := make(chan struct{}, 1)
	go func() {
		// The header reader may hold buffered client bytes; flush them
		// upstream first.
		if n := reader.Buffered(); n > 0 {
			buffered, err := reader.Peek(n)
			if err == nil {
				if _, err := upstream.Write(buffered); err != nil {
					done <- struct{}{}
					return
				}
				g.metrics.bytesOut.Add(uint64(n))
			}
		}
		g.metrics.bytesOut.Add(copyHalf(upstream, client))
		done <- struct{}{}
	}()
	g.metrics.bytesIn.Add(copyHalf(client, upstream))
	<-done
}

// dialUpstream opens the upstream connection, retrying transient
// failures per Config.DialRetry. Each failed attempt past the first
// increments the retry counter; only total failure (budget spent)
// surfaces to the caller as a DENY.
func (g *Gateway) dialUpstream(address string) (net.Conn, error) {
	backoff := g.cfg.DialRetry.NewBackoff()
	for {
		conn, err := g.cfg.Dial("tcp", address)
		if err == nil {
			return conn, nil
		}
		delay, ok := backoff.Next()
		if !ok {
			return nil, err
		}
		g.metrics.dialRetries.Inc()
		g.cfg.sleep(delay)
	}
}

// copyBuffers pools relay copy buffers: at tens of thousands of
// connections per second, a fresh 32KB io.Copy buffer per direction is
// the dominant allocation on the whole gateway.
var copyBuffers = sync.Pool{
	New: func() any {
		b := make([]byte, 32*1024)
		return &b
	},
}

// copyHalf copies one direction, half-closes the destination so the
// peer sees EOF, and returns the bytes copied. TCP-to-TCP pairs go
// through io.Copy so the runtime can splice in-kernel; any other pair
// copies through the pool. It hides both the source's WriteTo, which
// io.CopyBuffer tries first, and the destination's ReadFrom: a TCP
// end's generic fallback for either allocates a fresh 32KB buffer per
// call.
func copyHalf(dst, src net.Conn) uint64 {
	// Errors here mean the relay is over; the deferred Closes clean up.
	var n int64
	_, dstTCP := dst.(*net.TCPConn)
	_, srcTCP := src.(*net.TCPConn)
	if dstTCP && srcTCP {
		n, _ = io.Copy(dst, src)
	} else {
		buf := copyBuffers.Get().(*[]byte)
		n, _ = io.CopyBuffer(struct{ io.Writer }{dst}, struct{ io.Reader }{src}, *buf)
		copyBuffers.Put(buf)
	}
	if tcp, ok := dst.(*net.TCPConn); ok {
		_ = tcp.CloseWrite()
	} else {
		_ = dst.Close()
	}
	return uint64(n)
}

// Client is a minimal WCP/1 client used by tests, tools and host agents.
type Client struct {
	// GatewayAddr is the gateway's listen address.
	GatewayAddr string
	// Timeout bounds the whole exchange (default 10s).
	Timeout time.Duration
	// Retry retries transient failures (dial errors, broken status
	// exchanges) with capped exponential backoff. DENY verdicts are
	// authoritative and never retried. MaxAttempts <= 0 means one
	// attempt — the historical behavior.
	Retry faultnet.RetryConfig
	// Dial overrides the gateway dialer; nil means net.DialTimeout with
	// Timeout. Injectable for fault-injection tests.
	Dial func(network, address string) (net.Conn, error)
}

// Connect asks the gateway to relay src→dst:port, retrying transient
// failures per c.Retry. On success it returns the connection (now piped
// to the destination) and whether the gateway flagged the source for a
// checking process. The caller owns the connection. A DENY from the
// gateway returns *DeniedError immediately, never retried.
func (c Client) Connect(src, dst addr.IP, port int) (net.Conn, bool, error) {
	retry := c.Retry
	if retry.MaxAttempts <= 0 {
		retry.MaxAttempts = 1
	}
	backoff := retry.NewBackoff()
	for {
		conn, flagged, err := c.connectOnce(src, dst, port)
		if err == nil {
			return conn, flagged, nil
		}
		var denied *DeniedError
		if errors.As(err, &denied) {
			return nil, false, err
		}
		delay, ok := backoff.Next()
		if !ok {
			return nil, false, err
		}
		time.Sleep(delay)
	}
}

// connectOnce performs a single WCP/1 exchange.
func (c Client) connectOnce(src, dst addr.IP, port int) (net.Conn, bool, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	dial := c.Dial
	if dial == nil {
		dial = func(network, address string) (net.Conn, error) {
			return net.DialTimeout(network, address, timeout)
		}
	}
	conn, err := dial("tcp", c.GatewayAddr)
	if err != nil {
		return nil, false, fmt.Errorf("gateway client: dial: %w", err)
	}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		conn.Close()
		return nil, false, fmt.Errorf("gateway client: deadline: %w", err)
	}
	req := make([]byte, 0, 48)
	req = append(req, protocolMagic...)
	req = append(req, ' ')
	req = append(req, src.String()...)
	req = append(req, ' ')
	req = append(req, dst.String()...)
	req = append(req, ' ')
	req = strconv.AppendInt(req, int64(port), 10)
	req = append(req, '\n')
	if _, err := conn.Write(req); err != nil {
		conn.Close()
		return nil, false, fmt.Errorf("gateway client: send request: %w", err)
	}
	status, err := bufio.NewReaderSize(io.LimitReader(conn, 256), 256).ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, false, fmt.Errorf("gateway client: read status: %w", err)
	}
	status = strings.TrimSpace(status)
	switch {
	case status == "OK":
		err = conn.SetDeadline(time.Time{})
		return conn, false, err
	case status == "CHECK":
		err = conn.SetDeadline(time.Time{})
		return conn, true, err
	case strings.HasPrefix(status, "DENY"):
		conn.Close()
		return nil, false, &DeniedError{Reason: strings.TrimPrefix(status, "DENY ")}
	default:
		conn.Close()
		return nil, false, fmt.Errorf("gateway client: unexpected status %q", status)
	}
}

// DeniedError reports a refused relay.
type DeniedError struct {
	Reason string
}

// Error implements error.
func (e *DeniedError) Error() string {
	return fmt.Sprintf("gateway denied connection: %s", e.Reason)
}
