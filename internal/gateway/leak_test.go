package gateway

import (
	"runtime"
	"testing"
	"time"
)

// leakCheck snapshots the goroutine count and registers a cleanup that
// fails the test if the count has not settled back to the baseline.
// Call it first in a test body: t.Cleanup runs LIFO, so the check
// executes after every later-registered shutdown has completed.
//
// The check polls rather than comparing once — goroutines wound down by
// Shutdown/Stop calls need a few scheduler passes to actually exit, and
// a one-shot comparison would flake on every slow CI box.
func leakCheck(t *testing.T) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= baseline {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("goroutine leak: %d goroutines, baseline %d\n%s", n, baseline, buf)
	})
}

// TestLifecycleNoGoroutineLeak drives the full gateway + reporter +
// collector lifecycle and verifies every goroutine is reclaimed: the
// accept loop, per-connection handlers, the reporter loop with its HTTP
// connections, and the collector's admin server.
func TestLifecycleNoGoroutineLeak(t *testing.T) {
	leakCheck(t)

	collector, collectorAddr := newTestCollector(t)
	gw, _ := newTestGateway(t, 100, 0)
	rep := &Reporter{
		GatewayID:     "leak-gw",
		CollectorAddr: collectorAddr,
		Interval:      5 * time.Millisecond,
		Source:        gw.Stats,
	}
	repErr := make(chan error, 1)
	go func() { repErr <- rep.Run() }()

	client := Client{GatewayAddr: gw.Addr(), Timeout: 5 * time.Second}
	for i := 0; i < 5; i++ {
		conn, _, err := client.Connect(mustIP(t, "10.9.0.1"), mustIP(t, "198.51.100.9"), 80)
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		conn.Close()
	}
	waitFor(t, "a report", func() bool { return collector.ReportsReceived() >= 1 })

	rep.Stop()
	if err := <-repErr; err != nil {
		t.Fatalf("reporter: %v", err)
	}
	// Gateway and collector shut down via their t.Cleanup registrations,
	// which run before leakCheck's.
}
