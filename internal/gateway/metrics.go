package gateway

import (
	"sync"
	"sync/atomic"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/telemetry"
)

// decisionSampleEvery bounds the cost of latency measurement on the
// connection hot path: only ~1 in this many decisions pays for the two
// clock reads around Limiter.Observe. At any meaningful traffic rate
// the histogram still fills in seconds, and the amortized overhead
// stays within the <5% budget certified by BenchmarkDecisionHotPath.
const decisionSampleEvery = 64

// metricSet is the gateway's wiring into a telemetry.Registry: sharded
// counters for relay outcomes, byte counters for the relay, a sampled
// decision-latency histogram, and function-backed families exposing
// the limiter's containment statistics. Per-decision counters are NOT
// incremented on the hot path: the limiter already counts every
// decision under its own mutex, so wormgate_decisions_total derives
// from that exact state (allow = observed − denied − flags), and the
// only instrumentation cost per connection is one Bernoulli coin flip.
type metricSet struct {
	relayed        *telemetry.Counter
	protoErr       *telemetry.Counter
	dialErrors     *telemetry.Counter
	dialRetries    *telemetry.Counter
	degradedDenied *telemetry.Counter
	bytesIn        *telemetry.Counter // upstream → client
	bytesOut       *telemetry.Counter // client → upstream

	activeRelays    *telemetry.Gauge
	decisionSeconds *telemetry.Histogram
	sampler         *telemetry.Sampler
}

// newMetricSet registers the gateway's metric families into reg and
// returns the live instruments. Limiter statistics are exposed through
// a short-TTL cache so one scrape of the nine limiter-derived series
// costs one Snapshot (which walks the host table) instead of nine.
// degraded is the gateway's live degradation flag, exported as a 0/1
// gauge so dashboards see a gateway that lost its collector.
func newMetricSet(reg *telemetry.Registry, limiter core.Decider, degraded *atomic.Bool) *metricSet {
	bytes := reg.CounterVec("wormgate_relay_bytes_total",
		"Bytes relayed through established connections.", "direction")
	m := &metricSet{
		relayed: reg.Counter("wormgate_relayed_connections_total",
			"Connections relayed end to end (upstream dial succeeded)."),
		protoErr: reg.Counter("wormgate_protocol_errors_total",
			"Connections dropped for malformed WCP/1 requests."),
		dialErrors: reg.Counter("wormgate_upstream_dial_errors_total",
			"Permitted connections whose upstream dial failed after retries."),
		dialRetries: reg.Counter("wormgate_upstream_dial_retries_total",
			"Upstream dial attempts retried after a transient failure."),
		degradedDenied: reg.Counter("wormgate_degraded_denied_total",
			"Connections denied by the fail-closed degradation policy."),
		bytesIn:  bytes.With("upstream_to_client"),
		bytesOut: bytes.With("client_to_upstream"),
		activeRelays: reg.Gauge("wormgate_active_relays",
			"Relays currently piping bytes."),
		decisionSeconds: reg.Histogram("wormgate_decision_seconds",
			"Per-connection limiter decision latency (sampled 1/64)."),
		sampler: telemetry.NewSampler(decisionSampleEvery),
	}
	reg.GaugeFunc("wormgate_degraded",
		"1 while the gateway's fleet reporting is down (degraded), else 0.",
		func() float64 {
			if degraded.Load() {
				return 1
			}
			return 0
		})

	cache := &limiterStatsCache{limiter: limiter}
	decisions := reg.CounterVec("wormgate_decisions_total",
		"Limiter decisions on the connection hot path.", "decision")
	decisions.WithFunc(func() float64 {
		s := cache.get()
		return float64(s.TotalObserved - s.TotalDenied - s.TotalFlags)
	}, "allow")
	decisions.WithFunc(func() float64 {
		return float64(cache.get().TotalFlags)
	}, "allow_check")
	decisions.WithFunc(func() float64 {
		return float64(cache.get().TotalDenied)
	}, "deny")
	reg.GaugeFunc("wormgate_limiter_active_hosts",
		"Hosts with containment state in the current cycle.",
		func() float64 { return float64(cache.get().ActiveHosts) })
	reg.GaugeFunc("wormgate_limiter_removed_hosts",
		"Hosts currently removed (scan budget exhausted).",
		func() float64 { return float64(cache.get().RemovedHosts) })
	reg.GaugeFunc("wormgate_limiter_flagged_hosts",
		"Hosts past the fraction-f warning threshold this cycle.",
		func() float64 { return float64(cache.get().FlaggedHosts) })
	reg.CounterFunc("wormgate_limiter_removals_total",
		"Host removals across all containment cycles.",
		func() float64 { return float64(cache.get().TotalRemovals) })
	reg.CounterFunc("wormgate_limiter_flags_total",
		"Fraction-f flags across all containment cycles.",
		func() float64 { return float64(cache.get().TotalFlags) })
	reg.CounterFunc("wormgate_limiter_denied_total",
		"Denied connection attempts across all containment cycles.",
		func() float64 { return float64(cache.get().TotalDenied) })

	// Failure-variant counters, registered whenever the backend can
	// observe failures (zero until traffic exercises the path).
	if _, ok := limiter.(core.FailureObserver); ok {
		reg.CounterFunc("wormgate_limiter_failures_total",
			"Failed-connection observations across all containment cycles.",
			func() float64 { return float64(cache.get().TotalFailures) })
		reg.CounterFunc("wormgate_limiter_failure_removals_total",
			"Host removals triggered by the connection-failure threshold.",
			func() float64 { return float64(cache.get().FailureRemovals) })
	}
	return m
}

// limiterStatsCache memoizes core.Limiter.Snapshot for a scrape's
// duration: the limiter-derived series all read through here, so one
// scrape reports one consistent view (allow = observed − denied − flags
// holds within it) and stops the limiter's stripes once, not once per
// series. The snapshot itself is a sum over the stripes' counters.
type limiterStatsCache struct {
	limiter core.Decider

	mu    sync.Mutex
	at    time.Time
	stats core.Stats
}

// limiterStatsTTL is how long one snapshot serves scrape reads.
const limiterStatsTTL = 50 * time.Millisecond

// get returns a snapshot at most limiterStatsTTL old.
func (c *limiterStatsCache) get() core.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Since(c.at) > limiterStatsTTL {
		c.stats = c.limiter.Snapshot()
		c.at = time.Now()
	}
	return c.stats
}
