// Command wormload is an open-loop load generator for a containment
// gateway: it fires WCP/1 connection requests at a configured arrival
// rate, measures each request's latency from its *scheduled* arrival
// time (so a slow gateway cannot hide queueing delay — the classic
// coordinated-omission correction), and reports throughput plus a
// latency histogram built from the same telemetry primitives the
// gateway itself exports.
//
// Point it at a running gateway:
//
//	wormload -gateway 127.0.0.1:7800 -rate 5000 -duration 10s
//
// or run self-contained (an in-process gateway relaying into a discard
// sink), which is how the CI smoke test certifies gateway throughput:
//
//	wormload -rate 20000 -duration 2s -dump
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/core"
	"wormcontain/internal/faultnet"
	"wormcontain/internal/gateway"
	"wormcontain/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wormload:", err)
		os.Exit(1)
	}
}

// run executes one load-generation campaign, printing the report to
// out. Split from main so tests can drive it end to end.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wormload", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		gwAddr      = fs.String("gateway", "", "gateway address; empty = in-process gateway with a discard upstream")
		rate        = fs.Float64("rate", 5000, "target arrival rate, connections/second")
		duration    = fs.Duration("duration", 3*time.Second, "campaign length at the target rate")
		concurrency = fs.Int("concurrency", 128, "maximum in-flight requests")
		sources     = fs.Int("sources", 256, "distinct source addresses cycled across requests")
		dstStr      = fs.String("dst", "198.51.100.1", "destination IPv4 requested from the gateway")
		port        = fs.Int("port", 80, "destination port requested from the gateway")
		dump        = fs.Bool("dump", false, "append the full Prometheus exposition to the report")
		faults      = fs.String("faults", "", "fault profile injected on the self-gateway's upstream, e.g. dialfail=0.05,latency=0.1 (see faultnet.ParseProfile)")
		faultSeed   = fs.Uint64("fault-seed", 1, "seed for the deterministic fault schedule")
		retries     = fs.Int("retries", 1, "client connect attempts per request (1 = no retries)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *rate <= 0:
		return fmt.Errorf("-rate %v, must be > 0", *rate)
	case *duration <= 0:
		return fmt.Errorf("-duration %v, must be > 0", *duration)
	case *concurrency < 1:
		return fmt.Errorf("-concurrency %d, must be >= 1", *concurrency)
	case *sources < 1:
		return fmt.Errorf("-sources %d, must be >= 1", *sources)
	case *port < 1 || *port > 65535:
		return fmt.Errorf("-port %d, must be in [1, 65535]", *port)
	}
	dst, err := addr.ParseIP(*dstStr)
	if err != nil {
		return err
	}

	var injector *faultnet.Injector
	if *faults != "" {
		if *gwAddr != "" {
			return errors.New("-faults applies to the self-contained gateway; drop -gateway to use it")
		}
		profile, err := faultnet.ParseProfile(*faults)
		if err != nil {
			return err
		}
		injector = faultnet.New(profile, *faultSeed)
	}

	reg := telemetry.NewRegistry()
	outcomes := reg.CounterVec("wormload_requests_total",
		"Load-generator requests by outcome.", "outcome")
	var (
		okC     = outcomes.With("ok")
		checkC  = outcomes.With("check")
		denyC   = outcomes.With("denied")
		errC    = outcomes.With("error")
		latency = reg.Histogram("wormload_request_seconds",
			"Request latency from scheduled arrival to gateway verdict.")
	)

	target := *gwAddr
	if target == "" {
		gw, err := selfGateway(reg, injector)
		if err != nil {
			return err
		}
		defer gw.Shutdown()
		go func() { _ = gw.Serve() }()
		target = gw.Addr()
		upstream := "discard upstream"
		if injector != nil {
			upstream = fmt.Sprintf("discard upstream, faults %s seed %d", *faults, *faultSeed)
		}
		fmt.Fprintf(out, "self-contained gateway on %s (%s)\n", target, upstream)
	}

	total := int64(*rate * duration.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / *rate)
	client := gateway.Client{
		GatewayAddr: target,
		Timeout:     10 * time.Second,
		Retry:       faultnet.RetryConfig{MaxAttempts: *retries, BaseDelay: 5 * time.Millisecond},
	}
	srcFirst, err := addr.ParseIP("10.0.0.1")
	if err != nil {
		return err
	}
	srcBase := uint32(srcFirst)

	// Open-loop schedule: request i is due at start + i·interval,
	// regardless of how earlier requests fared. Workers that fall
	// behind skip the sleep and catch up, so the measured latency of a
	// backlogged request includes the time it spent waiting its turn.
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				scheduled := start.Add(time.Duration(i) * interval)
				if d := time.Until(scheduled); d > 0 {
					time.Sleep(d)
				}
				src := addr.IP(srcBase + uint32(i)%uint32(*sources))
				conn, flagged, err := client.Connect(src, dst, *port)
				latency.Observe(time.Since(scheduled))
				switch {
				case err == nil:
					if flagged {
						checkC.Inc()
					} else {
						okC.Inc()
					}
					conn.Close()
				case isDenied(err):
					denyC.Inc()
				default:
					errC.Inc()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	h := latency.Snapshot()
	fmt.Fprintf(out, "%d requests in %v: %.0f conn/s\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Fprintf(out, "outcomes: ok=%d check=%d denied=%d error=%d\n",
		okC.Value(), checkC.Value(), denyC.Value(), errC.Value())
	fmt.Fprintf(out, "latency: mean=%v p50=%v p95=%v p99=%v\n",
		h.Mean().Round(time.Microsecond),
		h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.95).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond))
	if injector != nil {
		fmt.Fprintf(out, "faults injected: %s\n", injector.CountsString())
	}
	if *dump {
		fmt.Fprintln(out, "---")
		if err := reg.WritePrometheus(out); err != nil {
			return err
		}
	}
	return nil
}

// selfGateway builds an in-process gateway whose upstream dialer hands
// back one side of an in-memory pipe with a discard sink on the other,
// so the campaign measures the gateway hot path (accept, parse,
// limiter, response) rather than an external server. A non-nil
// injector wraps that dialer with deterministic fault injection so the
// campaign exercises the gateway's retry path under a seeded schedule.
func selfGateway(reg *telemetry.Registry, injector *faultnet.Injector) (*gateway.Gateway, error) {
	lim, err := core.NewLimiter(core.LimiterConfig{
		M:     1 << 20, // effectively unlimited: the load is legitimate
		Cycle: 30 * 24 * time.Hour,
	}, time.Now().UTC())
	if err != nil {
		return nil, err
	}
	dial := func(network, address string) (net.Conn, error) {
		return newDiscardConn(), nil
	}
	cfg := gateway.Config{
		Limiter: lim,
		Metrics: reg,
		Dial:    dial,
	}
	if injector != nil {
		cfg.Dial = gateway.Dialer(injector.Dial(dial))
		cfg.DialRetry = faultnet.RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond}
	}
	return gateway.New(cfg, "127.0.0.1:0")
}

// discardConn is a net.Conn that swallows writes and whose reads block
// until Close — a server that listens forever and never speaks. It
// replaces a net.Pipe plus drain goroutine per connection, which at
// >10k conn/s on one core is real overhead.
type discardConn struct {
	closed chan struct{}
	once   sync.Once
}

func newDiscardConn() *discardConn {
	return &discardConn{closed: make(chan struct{})}
}

func (c *discardConn) Read(p []byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}

func (c *discardConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
		return len(p), nil
	}
}

func (c *discardConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *discardConn) LocalAddr() net.Addr                { return discardAddr{} }
func (c *discardConn) RemoteAddr() net.Addr               { return discardAddr{} }
func (c *discardConn) SetDeadline(t time.Time) error      { return nil }
func (c *discardConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *discardConn) SetWriteDeadline(t time.Time) error { return nil }

// discardAddr is discardConn's placeholder address.
type discardAddr struct{}

func (discardAddr) Network() string { return "discard" }
func (discardAddr) String() string  { return "discard" }

// isDenied reports whether err is a gateway DENY verdict (an expected
// outcome under containment) rather than an infrastructure failure.
func isDenied(err error) bool {
	var d *gateway.DeniedError
	return errors.As(err, &d)
}
