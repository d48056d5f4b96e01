package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/durable"
	"wormcontain/internal/gateway"
)

const gateSlices = 5

// gate is an in-process gateway on loopback TCP whose limiter lives in
// a durable store.
type gate struct {
	store *durable.Store
	gw    *gateway.Gateway
	dir   *ramFS
	done  chan struct{}
}

func openGate(b *bench, dir *ramFS) *gate {
	store := must1(openStore(b, dir))
	gw, err := gateway.New(gateway.Config{
		Limiter: store.Limiter(),
		Dial:    discardDial,
		// The reference limiter is fed at epoch; so is this one.
		Now: func() time.Time { return epoch },
	}, "127.0.0.1:0")
	if err != nil {
		store.Close()
		must(err)
	}
	g := &gate{store: store, gw: gw, dir: dir, done: make(chan struct{})}
	go func() {
		defer close(g.done)
		_ = gw.Serve() // returns once Shutdown closes the listener
	}()
	return g
}

// shutdown stops the gateway and waits for its accept loop.
func (g *gate) shutdown() {
	g.gw.Shutdown()
	<-g.done
}

// connLog is what one client goroutine saw.
type connLog struct {
	endNs    []int64 // completion time of each connection, since the loop's start
	latNs    []int64 // Connect latency of each completed connection
	verdicts verdicts
	failed   int
	consumed int
	lateNs   int64 // open loop: worst lag of a send behind its schedule
}

// clientLoop is one closed-loop client: Connect, Close, next, walking
// its own slice of the stream until the deadline or the slice's end.
// With interval > 0 it is one worker of an open loop instead: request
// i is due at start + i·interval and its latency runs from then.
func clientLoop(b *bench, client gateway.Client, stream []obs, start time.Time, dur time.Duration, interval time.Duration, parent int) connLog {
	l := connLog{endNs: make([]int64, 0, len(stream)), latNs: make([]int64, 0, len(stream))}
	for l.consumed < len(stream) {
		o := stream[l.consumed]
		t := time.Now()
		if interval > 0 {
			due := start.Add(time.Duration(l.consumed) * interval)
			if due.Sub(start) >= dur {
				break
			}
			if wait := due.Sub(t); wait > 0 {
				time.Sleep(wait)
			}
			if late := time.Since(due).Nanoseconds(); late > l.lateNs {
				l.lateNs = late
			}
			t = due
		} else if t.Sub(start) >= dur {
			break
		}
		l.consumed++
		id := b.tr.start(parent, "gateway.Client.Connect")
		conn, flagged, err := client.Connect(addr.IP(o.src), addr.IP(o.dst), 80)
		lat := time.Since(t).Nanoseconds()
		b.tr.end(id)
		var denied *gateway.DeniedError
		switch {
		case err == nil:
			conn.Close()
			if flagged {
				l.verdicts.check++
			} else {
				l.verdicts.allow++
			}
		case errors.As(err, &denied):
			l.verdicts.deny++
		default:
			l.failed++
			continue // a failed connection has no latency
		}
		l.latNs = append(l.latNs, lat)
		l.endNs = append(l.endNs, time.Since(start).Nanoseconds())
	}
	return l
}

// dialNoTimeWait dials a connection whose Close resets it, so that
// neither end lingers in TIME_WAIT. All of a run's connections share
// one address pair and one destination port, and the kernel keeps at
// most tcp_max_tw_buckets (65 536 here) TIME_WAIT sockets: after some
// forty seconds of back-to-back runs the table is full, the kernel stops
// adding to it, and conn_per_s steps from 13.8 k to 17 k until the
// entries expire a minute later. A rate that depends on what ran in the
// last minute is no baseline. The gateway's relay ends the same way on
// a reset as on a FIN.
func dialNoTimeWait(network, address string) (net.Conn, error) {
	conn, err := net.DialTimeout(network, address, 10*time.Second)
	if err != nil {
		return nil, err
	}
	if tcp, ok := conn.(*net.TCPConn); ok {
		if err := tcp.SetLinger(0); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return conn, nil
}

// gateLoad runs one client per slice of the stream against target and
// returns their logs.
func gateLoad(b *bench, name, target string, stream [][]obs, dur, interval time.Duration) []connLog {
	id := b.tr.start(0, name)
	client := gateway.Client{GatewayAddr: target, Timeout: 10 * time.Second, Dial: dialNoTimeWait}
	logs := make([]connLog, len(stream))
	start := time.Now()
	var wg sync.WaitGroup
	for g := range stream {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Open loop: the workers' schedules interleave evenly.
			logs[g] = clientLoop(b, client, stream[g], start.Add(interval*time.Duration(g)), dur, interval*time.Duration(len(stream)), id)
		}(g)
	}
	wg.Wait()
	conns := 0
	for g := range logs {
		conns += len(logs[g].latNs)
		b.attempted += logs[g].consumed
		b.failed += logs[g].failed
	}
	b.tr.end(id, "connections", float64(conns))
	return logs
}

// sliceRates bins completions into n equal slices of dur and returns
// each slice's rate.
func sliceRates(ends [][]int64, dur time.Duration, n int) []float64 {
	counts := make([]float64, n)
	width := dur.Nanoseconds() / int64(n)
	for _, e := range ends {
		for _, t := range e {
			counts[min(int(t/width), n-1)]++
		}
	}
	for i := range counts {
		counts[i] /= float64(width) / 1e9
	}
	return counts
}

func mergeLogs(logs []connLog) (ends [][]int64, lat []int64, v verdicts) {
	for _, l := range logs {
		ends = append(ends, l.endNs)
		lat = append(lat, l.latNs...)
		v = v.plus(l.verdicts)
	}
	return
}

// floorServer answers every WCP/1 request with OK and nothing else:
// accept, read the request line, reply, wait for the client's close.
// The same client loop against it is the loopback's own cost.
func floorServer() (addr string, stop func()) {
	ln := must1(net.Listen("tcp", "127.0.0.1:0"))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				if _, err := bufio.NewReaderSize(conn, 64).ReadString('\n'); err != nil {
					return
				}
				if _, err := conn.Write([]byte("OK\n")); err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); wg.Wait() }
}

// runGateConn: closed loop, nproc clients, Connect then Close, five
// equal time slices; then snapshots of the live store and restarts
// from its cleanly closed state directory.
func runGateConn(b *bench) {
	G := b.nproc
	perG, warmup, all := 400_000/G, 200, 0
	if b.quick {
		// Fixed counts: a quarter of the stream for the closed loop, an
		// eighth for each extra slice of the traced pass.
		perG, warmup = 8_000/G, 20
		all = perG / 4
	}
	type env struct {
		g   *gate
		cur *cursor
	}
	e := setupRounds(b, 15, func() (env, func()) {
		e := env{cur: newCursor(defaultStream(b.seed, G, perG, limiterConfig(b).M).generate())}
		e.g = openGate(b, newRamFS())
		// Warm-up connections: listener backlog, goroutine and buffer
		// pools, the first segment of the WAL.
		e.cur.advance(consumedBy(gateLoad(b, "warm-up", e.g.gw.Addr(), e.cur.window(warmup), time.Hour, 0)))
		return e, func() { e.g.shutdown(); must(e.g.store.Close()) }
	})

	dur := time.Duration(b.seconds * float64(time.Second))
	slices := gateSlices
	if b.quick {
		dur, slices = time.Hour, 1 // the window's end stops the loop: counts repeat exactly
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	logs := gateLoad(b, "closed-loop", e.g.gw.Addr(), e.cur.window(all), dur, 0)
	runtime.ReadMemStats(&ms1)
	e.cur.advance(consumedBy(logs))
	appended, acked := e.g.store.Appended(), e.g.store.Acked()
	ends, lat, v := mergeLogs(logs)
	if b.quick { // one slice, as long as the slowest client took
		dur = 0
		for _, end := range ends {
			if n := len(end); n > 0 {
				dur = max(dur, time.Duration(end[n-1]))
			}
		}
	}
	rates := sliceRates(ends, dur, slices)
	p50 := nsQuantile(lat, 0.5) / 1e3
	b.infoMedian("conn_per_s", rates, "conn/s")
	b.info("conn_p50_us", p50, "us")
	b.info("conn_latency_samples", float64(len(lat)), "count")
	b.info("clients", float64(G), "count")

	// Correctness: the gateway decided as a reference limiter fed the
	// same per-source sequences does. The reference sees the warm-up
	// connections too; their verdicts are taken off again.
	ref := referenceVerdicts(limiterConfig(b), e.cur.stream, e.cur.pos, constants(G, warmup))
	want := verdicts{ref[0].allow - ref[1].allow, ref[0].check - ref[1].check, ref[0].deny - ref[1].deny}
	b.check(b.failed > 0 || v == want, "gate-conn: verdicts %+v, reference limiter gives %+v", v, want)

	if b.tr != nil {
		gateLayers(b, e.g, e.cur, logs, rates, p50, &ms0, &ms1, float64(appended), float64(appended-acked))
	}

	// Persistence: snapshots of the loaded store; then close it, as
	// SIGTERM does, and restart from the directory.
	e.g.shutdown()
	live := e.g.store.Limiter().Snapshot()
	b.check(b.failed > 0 || live.TotalObserved == sum(e.cur.pos), "gate-conn: limiter observed %d connections, clients made %d", live.TotalObserved, sum(e.cur.pos))
	var p persistence
	snaps, opens := 11, 7
	if b.quick {
		snaps, opens = 1, 1
	}
	b.snapshots(e.g.store, e.g.dir, snaps, &p)
	must(e.g.store.Close())
	b.reopen(e.g.dir, opens, live, 0, &p)
	b.infoMedian("snapshot_mb_per_s", p.snapshotMBps, "MB/s")
	b.infoMedian("restart_s", p.openS, "s")

	if b.tr != nil {
		b.set("durable.snapshot_mb_per_s", median(p.snapshotMBps))
		return
	}
	b.set("ops_per_s", median(rates))
	b.set("restore_s", median(p.openS))
}

func consumedBy(logs []connLog) []int {
	out := make([]int, len(logs))
	for g, l := range logs {
		out[g] = l.consumed
	}
	return out
}

func constants(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}

// gateLayers is the traced pass's per-layer part of gate-conn.
func gateLayers(b *bench, g *gate, cur *cursor, logs []connLog, rates []float64, p50us float64,
	ms0, ms1 *runtime.MemStats, appended, lag float64) {
	_, lat, v := mergeLogs(logs)
	conns := float64(len(lat))
	slice, window := time.Duration(b.seconds*float64(time.Second)/gateSlices), 0
	if b.quick {
		slice, window = time.Hour, len(cur.stream[0])/8
	}
	// rate is completions over the time the slowest client took.
	rate := func(logs []connLog) float64 {
		ends, _, _ := mergeLogs(logs)
		var n, last int64
		for _, e := range ends {
			n += int64(len(e))
			if len(e) > 0 {
				last = max(last, e[len(e)-1])
			}
		}
		return float64(n) / (float64(last) / 1e9)
	}

	// Untraced reference: one more closed-loop slice with spans off.
	tr := b.tr
	b.tr = nil
	plain := gateLoad(b, "closed-loop", g.gw.Addr(), cur.window(window), slice, 0)
	b.tr = tr
	cur.advance(consumedBy(plain))
	b.set("trace.overhead_pct", (rate(plain)/median(rates)-1)*100)

	// The loopback's own cost: same loop, bare responder. The limiter
	// never sees these, so the cursor stays.
	floorAddr, stop := floorServer()
	floor := gateLoad(b, "loopback-floor", floorAddr, cur.window(window), slice, 0)
	stop()
	_, floorLat, _ := mergeLogs(floor)
	floorUs := nsQuantile(floorLat, 0.5) / 1e3
	b.set("gateway.loopback_floor_us", floorUs)
	b.set("gateway.conn_p50_us", p50us)
	b.set("gateway.overhead_us", p50us-floorUs)
	b.set("gateway.conn_p99_us", nsQuantile(lat, 0.99)/1e3)

	// The gateway's own decision histogram.
	if fam := g.gw.Registry().Snapshot().Family("wormgate_decision_seconds"); fam != nil && len(fam.Series) > 0 && fam.Series[0].Histogram != nil {
		h := fam.Series[0].Histogram
		b.set("gateway.decision_p50_ns", float64(h.Quantile(0.5).Nanoseconds()))
		b.set("gateway.decision_p99_ns", float64(h.Quantile(0.99).Nanoseconds()))
	}
	// Process-wide runtime counters over the closed loop: the client
	// goroutines' allocations are in them too.
	b.set("gateway.allocs_per_conn", float64(ms1.Mallocs-ms0.Mallocs)/conns)
	b.set("gateway.bytes_per_conn", float64(ms1.TotalAlloc-ms0.TotalAlloc)/conns)
	b.set("gateway.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	b.set("gateway.verdict_allow", float64(v.allow))
	b.set("gateway.verdict_check", float64(v.check))
	b.set("gateway.verdict_deny", float64(v.deny))
	b.set("durable.wal_appended", appended)
	b.set("durable.ack_lag_records", lag)

	// One open-loop slice at 4000 conn/s, latency from the scheduled
	// send time.
	open := gateLoad(b, "open-loop-4k", g.gw.Addr(), cur.window(window), slice, time.Second/4000)
	cur.advance(consumedBy(open))
	_, openLat, _ := mergeLogs(open)
	var late int64
	for _, l := range open {
		late = max(late, l.lateNs)
	}
	b.set("gateway.open4k_p50_us", nsQuantile(openLat, 0.5)/1e3)
	b.set("gateway.open4k_p99_us", nsQuantile(openLat, 0.99)/1e3)
	b.set("gateway.open4k_late_max_us", float64(late)/1e3)
}
