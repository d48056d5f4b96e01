// Gateway walkthrough: the containment system as running network
// software, end to end on loopback.
//
//  1. Start an "internet" (echo server) and a containment gateway with
//     the paper's per-host distinct-destination limiter in the data
//     path.
//
//  2. A normal client talks to its usual few servers all day: every
//     connection relays.
//
//  3. A worm-infected host sprays distinct destinations: the gateway
//     flags it at f·M and cuts it off at M, while the normal client
//     keeps working.
//
//  4. A fleet collector aggregates the gateway's counters — the
//     operator's view. The gateway's reporter POSTs a snapshot to the
//     collector's admin endpoint every tick.
//
//     go run ./examples/gateway
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/core"
	"wormcontain/internal/gateway"
	"wormcontain/internal/rng"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- The "internet": a loopback echo service. ---
	upstream, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer upstream.Close()
	go func() {
		for {
			conn, err := upstream.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()

	// --- The containment gateway: M = 30 for a visible demo. ---
	limiter, err := core.NewLimiter(core.LimiterConfig{
		M:             30,
		Cycle:         30 * 24 * time.Hour,
		CheckFraction: 0.8,
	}, time.Now().UTC())
	if err != nil {
		return err
	}
	gw, err := gateway.New(gateway.Config{
		Limiter: limiter,
		Dial: func(network, address string) (net.Conn, error) {
			// Demo: every destination resolves to the echo service.
			return net.DialTimeout(network, upstream.Addr().String(), 5*time.Second)
		},
	}, "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = gw.Serve() }()
	defer gw.Shutdown()
	fmt.Printf("containment gateway on %s (M=30, f=0.8)\n\n", gw.Addr())

	// --- The fleet collector: POST /report on an admin endpoint. ---
	collector := gateway.NewCollector()
	collectorAdmin, err := gateway.NewAdmin(gateway.AdminConfig{
		Registry:  collector.Registry(),
		Collector: collector,
	}, "127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = collectorAdmin.Serve() }()
	defer collectorAdmin.Shutdown()
	reporter := &gateway.Reporter{
		GatewayID:     "demo-site",
		CollectorAddr: collectorAdmin.Addr(),
		Interval:      50 * time.Millisecond,
		Source:        gw.Stats,
	}
	go func() { _ = reporter.Run() }()
	defer reporter.Stop()

	client := gateway.Client{GatewayAddr: gw.Addr(), Timeout: 5 * time.Second}

	// --- A normal host: 100 connections to its usual 5 servers. ---
	normal, err := addr.ParseIP("10.0.0.10")
	if err != nil {
		return err
	}
	servers := make([]addr.IP, 5)
	for i := range servers {
		servers[i], err = addr.ParseIP(fmt.Sprintf("198.51.100.%d", i+1))
		if err != nil {
			return err
		}
	}
	normalOK := 0
	for i := 0; i < 100; i++ {
		conn, _, err := client.Connect(normal, servers[i%5], 80)
		if err != nil {
			return fmt.Errorf("normal host blocked (should never happen): %w", err)
		}
		fmt.Fprintf(conn, "req-%d", i)
		buf := make([]byte, 16)
		if _, err := conn.Read(buf); err != nil {
			return err
		}
		conn.Close()
		normalOK++
	}
	fmt.Printf("normal host: %d/100 connections relayed, distinct destinations used: %d/30\n",
		normalOK, limiter.DistinctCount(uint32(normal)))

	// --- An infected host: scanning random addresses. ---
	wormSrc, err := addr.ParseIP("10.0.0.66")
	if err != nil {
		return err
	}
	prng := rng.NewPCG64(1, 0)
	var flaggedAt, deniedAt int
	for i := 1; i <= 60; i++ {
		dst := addr.IP(rng.Uint64n(prng, 1<<32))
		conn, flagged, err := client.Connect(wormSrc, dst, 80)
		if flagged && flaggedAt == 0 {
			flaggedAt = i
		}
		var denied *gateway.DeniedError
		if errors.As(err, &denied) {
			deniedAt = i
			break
		}
		if err != nil {
			return err
		}
		conn.Close()
	}
	fmt.Printf("scanning host: flagged for checking at scan %d, cut off at scan %d\n",
		flaggedAt, deniedAt)

	// The normal host is still fine after the worm's removal.
	conn, _, err := client.Connect(normal, servers[0], 80)
	if err != nil {
		return fmt.Errorf("normal host affected by worm removal: %w", err)
	}
	conn.Close()
	fmt.Println("normal host still relays after the scanner's removal")

	// --- The operator's view via the collector. ---
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if collector.ReportsReceived() > 0 && collector.Aggregate().TotalRemovals == 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	fleet := collector.Aggregate()
	fmt.Printf("\nfleet view: gateways=%d relayed=%d denied=%d flagged=%d removals=%d\n",
		fleet.Gateways, fleet.Relayed, fleet.Denied, fleet.Flagged, fleet.TotalRemovals)
	return nil
}
