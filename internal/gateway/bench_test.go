package gateway

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/durable"
)

// The acceptance bar for the telemetry subsystem is that the gateway's
// instrumented per-connection hot path (parse the WCP/1 header, consult
// the limiter) stays within 5% of the uninstrumented baseline. The
// sub-benchmarks below measure exactly that pair, plus the mutex-
// counter design the instrumentation replaced, over the steady-state
// case that dominates real traffic: a repeat destination that consumes
// no budget.

const benchRequestLine = "WCP/1 10.0.0.1 198.51.100.7 80\n"

// benchLimiter returns a limiter pre-seeded with the benchmark's
// (src, dst) pair so every measured Observe takes the repeat-contact
// fast path.
func benchLimiter(b *testing.B) *core.Limiter {
	b.Helper()
	start := time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC)
	lim, err := core.NewLimiter(core.LimiterConfig{
		M:             5000,
		Cycle:         365 * 24 * time.Hour, // no rollover mid-benchmark
		CheckFraction: 0.9,
	}, start)
	if err != nil {
		b.Fatal(err)
	}
	req, err := parseRequest(benchRequestLine)
	if err != nil {
		b.Fatal(err)
	}
	lim.Observe(uint32(req.src), uint32(req.dst), time.Now())
	return lim
}

// benchSketchLimiter is benchLimiter's estimator twin: same containment
// parameters, sketch backend with the failure variant on, pre-seeded so
// the measured Observe takes the repeat-bit fast path.
func benchSketchLimiter(b *testing.B) *core.SketchLimiter {
	b.Helper()
	start := time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC)
	lim, err := core.NewSketchLimiter(core.SketchConfig{
		LimiterConfig: core.LimiterConfig{
			M:             5000,
			Cycle:         365 * 24 * time.Hour,
			CheckFraction: 0.9,
		},
		FailureM: 100,
	}, start)
	if err != nil {
		b.Fatal(err)
	}
	req, err := parseRequest(benchRequestLine)
	if err != nil {
		b.Fatal(err)
	}
	lim.Observe(uint32(req.src), uint32(req.dst), time.Now())
	return lim
}

func BenchmarkDecisionHotPath(b *testing.B) {
	b.Run("uninstrumented", func(b *testing.B) {
		lim := benchLimiter(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req, err := parseRequest(benchRequestLine)
			if err != nil {
				b.Fatal(err)
			}
			if d := lim.Observe(uint32(req.src), uint32(req.dst), time.Now()); d != core.Allow {
				b.Fatal(d)
			}
		}
	})

	// The design telemetry replaced: a per-decision counter bump under
	// a dedicated stats mutex, as the gateway did before this PR.
	b.Run("mutexcounter", func(b *testing.B) {
		lim := benchLimiter(b)
		var mu sync.Mutex
		var allowed uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req, err := parseRequest(benchRequestLine)
			if err != nil {
				b.Fatal(err)
			}
			d := lim.Observe(uint32(req.src), uint32(req.dst), time.Now())
			mu.Lock()
			if d == core.Allow {
				allowed++
			}
			mu.Unlock()
		}
		_ = allowed
	})

	b.Run("instrumented", func(b *testing.B) {
		gw, err := New(Config{Limiter: benchLimiter(b)}, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer gw.Shutdown()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req, err := parseRequest(benchRequestLine)
			if err != nil {
				b.Fatal(err)
			}
			if d := gw.observe(uint32(req.src), uint32(req.dst)); d != core.Allow {
				b.Fatal(d)
			}
		}
	})

	// The sketch-backend variant of the same steady-state decision: one
	// hash, one bit test, one integer compare instead of a set lookup.
	// Must hold the same zero-allocation bar as the exact backend.
	b.Run("sketch", func(b *testing.B) {
		gw, err := New(Config{Limiter: benchSketchLimiter(b)}, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer gw.Shutdown()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req, err := parseRequest(benchRequestLine)
			if err != nil {
				b.Fatal(err)
			}
			if d := gw.observe(uint32(req.src), uint32(req.dst)); d != core.Allow {
				b.Fatal(d)
			}
		}
	})

	// The durable-journal variant: each Observe also encodes a WAL
	// record into the store's in-memory buffer under the limiter mutex
	// while a 2ms group-commit flusher fsyncs in the background — the
	// per-decision cost a `-state-dir` gateway pays for crash safety.
	b.Run("durable", func(b *testing.B) {
		store, err := durable.Open(durable.Options{
			Dir:           b.TempDir(),
			FsyncInterval: 2 * time.Millisecond,
		}, core.LimiterConfig{
			M:             5000,
			Cycle:         365 * 24 * time.Hour,
			CheckFraction: 0.9,
		}, time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC))
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		lim := store.Limiter()
		req, err := parseRequest(benchRequestLine)
		if err != nil {
			b.Fatal(err)
		}
		lim.Observe(uint32(req.src), uint32(req.dst), time.Now())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req, err := parseRequest(benchRequestLine)
			if err != nil {
				b.Fatal(err)
			}
			if d := lim.Observe(uint32(req.src), uint32(req.dst), time.Now()); d != core.Allow {
				b.Fatal(d)
			}
		}
	})
}

// TestDecisionHotPathAllocationBudget pins the decision path's
// allocation count with testing.AllocsPerRun so a regression fails in
// `go test`, not just in a benchmark diff. The budget is at most one
// allocation per decision; the current implementation achieves zero
// (substring-based request parsing, split-free ParseIP, steady-state
// limiter).
func TestDecisionHotPathAllocationBudget(t *testing.T) {
	start := time.Date(2005, 6, 28, 0, 0, 0, 0, time.UTC)
	lim, err := core.NewLimiter(core.LimiterConfig{
		M:             5000,
		Cycle:         365 * 24 * time.Hour,
		CheckFraction: 0.9,
	}, start)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := parseRequest(benchRequestLine)
	if err != nil {
		t.Fatal(err)
	}
	lim.Observe(uint32(seed.src), uint32(seed.dst), time.Now())

	parseOnly := testing.AllocsPerRun(1000, func() {
		if _, err := parseRequest(benchRequestLine); err != nil {
			t.Fatal(err)
		}
	})
	if parseOnly != 0 {
		t.Errorf("parseRequest allocates %.1f per call, want 0", parseOnly)
	}

	full := testing.AllocsPerRun(1000, func() {
		req, err := parseRequest(benchRequestLine)
		if err != nil {
			t.Fatal(err)
		}
		if d := lim.Observe(uint32(req.src), uint32(req.dst), time.Now()); d != core.Allow {
			t.Fatal(d)
		}
	})
	if full > 1 {
		t.Errorf("decision path allocates %.1f per connection, budget is 1", full)
	}

	// The sketch backend must meet the same budget — with zero headroom,
	// since its registers never grow per destination.
	sk, err := core.NewSketchLimiter(core.SketchConfig{
		LimiterConfig: core.LimiterConfig{
			M:             5000,
			Cycle:         365 * 24 * time.Hour,
			CheckFraction: 0.9,
		},
		FailureM: 100,
	}, start)
	if err != nil {
		t.Fatal(err)
	}
	sk.Observe(uint32(seed.src), uint32(seed.dst), time.Now())
	sketchFull := testing.AllocsPerRun(1000, func() {
		req, err := parseRequest(benchRequestLine)
		if err != nil {
			t.Fatal(err)
		}
		if d := sk.Observe(uint32(req.src), uint32(req.dst), time.Now()); d != core.Allow {
			t.Fatal(d)
		}
		if d := sk.ObserveFailure(uint32(req.src), uint32(req.dst), time.Now()); d != core.Allow {
			t.Fatal(d)
		}
	})
	if sketchFull != 0 {
		t.Errorf("sketch decision path allocates %.1f per connection, want 0", sketchFull)
	}
}

// TestCopyHalfPooledBuffer relays from a real TCP client into a
// non-TCP upstream, the pair that copies through copyBuffers, and
// checks that the relay does not allocate a copy buffer of its own.
// *net.TCPConn implements io.WriterTo, which io.CopyBuffer prefers to
// the buffer it is given, and whose generic fallback allocates 32 KiB
// per call.
func TestCopyHalfPooledBuffer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	payload := make([]byte, 64*1024)
	relay := func() (allocated uint64) {
		client, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		server, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer server.Close()
		upstream, far := net.Pipe()
		defer far.Close()
		drained := make(chan int)
		buf := make([]byte, 4096)
		go func() {
			n := 0
			for {
				k, err := far.Read(buf)
				n += k
				if err != nil {
					drained <- n
					return
				}
			}
		}()
		go func() {
			_, _ = client.Write(payload)
			_ = client.(*net.TCPConn).CloseWrite()
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := copyHalf(upstream, server)
		runtime.ReadMemStats(&after)
		if n != uint64(len(payload)) {
			t.Fatalf("relayed %d bytes, want %d", n, len(payload))
		}
		if got := <-drained; got != len(payload) {
			t.Fatalf("upstream read %d bytes, want %d", got, len(payload))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	relay() // fills the pool
	// A collection empties the pool, and under the race detector Put
	// drops a quarter of what it is given, so one relay may refill it;
	// the least any relay allocates is the buffer-free cost.
	least := relay()
	for i := 0; i < 8; i++ {
		least = min(least, relay())
	}
	if least > 4*1024 {
		t.Errorf("every relay allocates %d bytes or more, want well under the 32 KiB copy buffer", least)
	}
}
