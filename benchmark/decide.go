package main

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/durable"
	"wormcontain/internal/fleet"
)

const (
	decideSlices = 10  // rounds of one slice per backend
	decideChunk  = 256 // observations between two looks at the clock
)

// observer is the one method the decision path is driven through.
type observer interface {
	Observe(src, dst uint32, t time.Time) core.Decision
}

// phase is what the timed slices of Observe calls on one backend
// measured, all slices together.
type phase struct {
	rates    []float64 // per slice, all goroutines together
	consumed []int     // per goroutine
	verdicts verdicts
	latNs    []int64 // per call, when asked for
	perOpNs  float64 // last slice: wall × goroutines ÷ calls
}

// add folds one more slice into p.
func (p *phase) add(s phase) {
	p.rates = append(p.rates, s.rates...)
	if p.consumed == nil {
		p.consumed = make([]int, len(s.consumed))
	}
	for g, n := range s.consumed {
		p.consumed[g] += n
	}
	p.verdicts = p.verdicts.plus(s.verdicts)
	p.latNs = append(p.latNs, s.latNs...)
	p.perOpNs = s.perOpNs
}

// observeSlice feeds slices[g] to lim from one goroutine per slice for
// dur (or to the slices' end), looking at the clock every decideChunk
// calls. Its rate is the calls made over the time the last goroutine
// took.
func (b *bench) observeSlice(name string, lim observer, slices [][]obs, dur time.Duration, perCall bool) phase {
	id := b.tr.start(0, name)
	G := len(slices)
	vs := make([]verdicts, G)
	lats := make([][]int64, G)
	p := phase{consumed: make([]int, G)}
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := slices[g]
			pos := 0
			for pos < len(s) && time.Since(start) < dur {
				end := min(pos+decideChunk, len(s))
				if perCall {
					for _, o := range s[pos:end] {
						t := time.Now()
						d := lim.Observe(o.src, o.dst, epoch)
						lats[g] = append(lats[g], time.Since(t).Nanoseconds())
						vs[g].add(d)
					}
				} else {
					for _, o := range s[pos:end] {
						vs[g].add(lim.Observe(o.src, o.dst, epoch))
					}
				}
				pos = end
			}
			p.consumed[g] = pos
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	if wall < dur && !b.quick { // the slices ran out before the deadline
		b.say("%s: stream exhausted after %v", name, wall)
	}
	calls := sum(p.consumed)
	for g := range vs {
		p.verdicts = p.verdicts.plus(vs[g])
		p.latNs = append(p.latNs, lats[g]...)
	}
	p.rates = []float64{float64(calls) / wall.Seconds()}
	p.perOpNs = float64(wall.Nanoseconds()) * float64(G) / float64(max(calls, 1))
	b.attempted += calls
	b.tr.end(id, "observations", float64(calls), "allow", float64(p.verdicts.allow),
		"check", float64(p.verdicts.check), "deny", float64(p.verdicts.deny))
	return p
}

// fleetPair is a two-node fleet over loopback TCP. Member names are
// fixed strings mapped to the listeners by the dialer, so that ring
// ownership — and with it which observations are forwarded — does not
// depend on the ephemeral ports.
type fleetPair struct {
	entry, owner *fleet.Node
	entryLocal   *core.Limiter
	ownerLocal   *core.Limiter
	closers      []func()
}

var fleetMembers = []string{"wormbench-entry:1", "wormbench-owner:1"}

func newFleetPair(cfg core.LimiterConfig) *fleetPair {
	addrs := map[string]string{}
	lns := make([]net.Listener, 2)
	for i, name := range fleetMembers {
		lns[i] = must1(net.Listen("tcp", "127.0.0.1:0"))
		addrs[name] = lns[i].Addr().String()
	}
	dial := func(network, name string) (net.Conn, error) {
		return net.DialTimeout(network, addrs[name], 5*time.Second)
	}
	fp := &fleetPair{}
	nodes := make([]*fleet.Node, 2)
	locals := make([]*core.Limiter, 2)
	for i, name := range fleetMembers {
		locals[i] = must1(core.NewLimiter(cfg, epoch))
		tr := fleet.NewTCPTransport(fleet.TCPOptions{Dial: dial})
		nodes[i] = must1(fleet.NewNode(fleet.Config{
			Self: name, Peers: fleetMembers, Local: locals[i], Transport: tr, Seed: 1,
			Now: func() time.Time { return epoch },
		}))
		srv := fleet.NewServerWith(nodes[i], lns[i])
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve() // returns once Shutdown closes the listener
		}()
		fp.closers = append(fp.closers, func() { tr.Close(); srv.Shutdown(); <-done })
	}
	fp.entry, fp.owner = nodes[0], nodes[1]
	fp.entryLocal, fp.ownerLocal = locals[0], locals[1]
	return fp
}

func (fp *fleetPair) close() {
	for _, c := range fp.closers {
		c()
	}
}

// ownedBy keeps the observations whose source `member` owns.
func ownedBy(ring *fleet.Ring, member string, slices [][]obs, limit int) [][]obs {
	out := make([][]obs, len(slices))
	for g, s := range slices {
		for _, o := range s {
			if len(out[g]) == limit {
				break
			}
			if ring.Owner(o.src) == member {
				out[g] = append(out[g], o)
			}
		}
	}
	return out
}

// runDecideStream: the observation stream fed straight to Observe from
// nproc goroutines to four backends (exact, sketch, durable, fleet
// forward) in turn, ten slices each; then snapshots of the durable
// store and recovery of a crash image of it.
func runDecideStream(b *bench) {
	G := b.nproc
	cfg := limiterConfig(b)
	perG, fleetPerG, all, fleetAll := 8_000_000, 400_000, 0, 0
	if b.quick {
		// Fixed counts: half of each stream for a phase, the rest for
		// the crash image's records and the traced pass's extra slices.
		perG, fleetPerG = 60_000, 4_000
		all, fleetAll = perG/2, fleetPerG/2
	}
	// The stream is generated once, ahead of the rounds: it is the
	// benchmark's own memory, and a second copy would sit in the
	// resident peak the workload reports.
	stream := defaultStream(b.seed, G, perG, cfg.M).generate()
	type env struct {
		forwarded *cursor
		exact     *core.Limiter
		sketch    *core.SketchLimiter
		store     *durable.Store
		dir       *ramFS
		fleet     *fleetPair
	}
	e := setupRounds(b, 7, func() (env, func()) {
		var e env
		e.exact = must1(core.NewLimiter(cfg, epoch))
		e.sketch = must1(core.NewSketchLimiter(core.SketchConfig{LimiterConfig: cfg, FailureM: 100}, epoch))
		e.dir = newRamFS()
		e.store = must1(openStore(b, e.dir))
		e.fleet = newFleetPair(cfg)
		e.forwarded = newCursor(ownedBy(e.fleet.entry.Ring(), fleetMembers[1], stream, fleetPerG))
		// Warm-up: the fleet's peer connection, opened by its first
		// forward. The owner's limiter counts it, so the phase goes on
		// from the second observation.
		for _, w := range e.forwarded.window(1) {
			e.fleet.entry.Observe(w[0].src, w[0].dst, epoch)
		}
		e.forwarded.advance(constants(G, 1))
		return e, func() { e.fleet.close(); must(e.store.Close()) }
	})
	defer e.fleet.close()

	// The four backends take turns: a round is one slice of Observe
	// calls on each, and -seconds are decideSlices rounds. A backend's
	// slices are thus spread over the whole run, so a stretch in which
	// the box is slow costs each backend one sample and not its median.
	// Every slice starts its goroutines afresh, and a collection runs
	// before it, outside the timed part: goroutines that contend for one
	// mutex settle into a hand-off pattern that lasts as long as they
	// run, and a collector that takes a processor from them mid-slice
	// tips it; between them the two moved a run's median by a quarter.
	// A round is shared 3 : 3 : 8 : 6. The durable backend is the one a
	// gateway runs in production and the one ops_per_s reports; the
	// in-memory ones are fast enough to settle in less.
	rounds := decideSlices
	sliceDur := func(twentieths float64) time.Duration {
		return time.Duration(b.seconds * twentieths / 20 / decideSlices * float64(time.Second))
	}
	if b.quick {
		// One slice each; the window's end stops it: counts repeat exactly.
		rounds = 1
		sliceDur = func(float64) time.Duration { return time.Hour }
	}
	stored := newCursor(stream)
	var exact, sketch, dur3, fwd phase
	turns := []struct {
		name    string
		lim     observer
		cur     *cursor
		window  int
		share   float64
		perCall bool
		into    *phase
	}{
		{"core.Limiter.Observe", e.exact, newCursor(stream), all, 3, false, &exact},
		{"core.SketchLimiter.Observe", e.sketch, newCursor(stream), all, 3, false, &sketch},
		{"durable.Store.Limiter.Observe", e.store.Limiter(), stored, all, 8, false, &dur3},
		// Every call a forward to the owner node.
		{"fleet.Node.Observe", e.fleet.entry, e.forwarded, fleetAll, 6, true, &fwd},
	}
	for r := 0; r < rounds; r++ {
		for _, t := range turns {
			runtime.GC()
			s := b.observeSlice(t.name, t.lim, t.cur.window(t.window), sliceDur(t.share), t.perCall)
			t.cur.advance(s.consumed)
			t.into.add(s)
		}
	}

	// The exact limiter decides as the reference does.
	ref := referenceVerdicts(cfg, stream, exact.consumed, sketch.consumed, dur3.consumed)
	want := ref[0]
	b.check(exact.verdicts == want, "decide-stream: exact limiter verdicts %+v, reference gives %+v", exact.verdicts, want)
	b.infoMedian("decide_exact_per_s", exact.rates, "obs/s")

	// The sketch limiter removes a scanner within the estimator's
	// relative error of M, so its denials are held to the reference's
	// within that error of M per removed scanner, at four standard
	// errors.
	want = ref[1]
	tol := 4 * e.sketch.ExpectedRelativeError() * float64(cfg.M) * float64(e.sketch.Snapshot().TotalRemovals+1)
	diff := float64(sketch.verdicts.deny - want.deny)
	b.check(diff <= tol && -diff <= tol, "decide-stream: sketch denies %d, reference %d, tolerance %.0f", sketch.verdicts.deny, want.deny, tol)
	b.infoMedian("decide_sketch_per_s", sketch.rates, "obs/s")
	b.info("sketch_deny_minus_exact", diff, "count")

	// The exact limiter behind the durable store.
	want = ref[2]
	b.check(dur3.verdicts == want, "decide-stream: durable limiter verdicts %+v, reference gives %+v", dur3.verdicts, want)
	appended, acked := e.store.Appended(), e.store.Acked()
	b.check(appended == uint64(sum(dur3.consumed)), "decide-stream: WAL holds %d records for %d observations", appended, sum(dur3.consumed))
	b.infoMedian("decide_durable_per_s", dur3.rates, "obs/s")

	// The fleet: no forward fell back, and the owner counted them all.
	fallbacks := e.fleet.entryLocal.Snapshot().TotalObserved
	b.failed += fallbacks
	ref = referenceVerdicts(cfg, e.forwarded.stream, e.forwarded.pos, constants(G, 1))
	want, warm := ref[0], ref[1]
	got := e.fleet.ownerLocal.Snapshot()
	b.check(fallbacks == 0, "decide-stream: %d forwards fell back to local counting", fallbacks)
	b.check(e.fleet.entry.PeersUp() > 0, "decide-stream: fleet phase ended with no peer up")
	b.check(fwd.verdicts.plus(warm) == want && got.TotalObserved == want.total() && got.TotalDenied == want.deny,
		"decide-stream: forwarded verdicts %+v plus warm-up %+v, owner counted %d observed %d denied, reference gives %+v",
		fwd.verdicts, warm, got.TotalObserved, got.TotalDenied, want)
	b.infoMedian("fleet_forward_per_s", fwd.rates, "obs/s")
	b.info("fleet_forward_p50_us", nsQuantile(fwd.latNs, 0.5)/1e3, "us")

	if b.tr != nil {
		decideLayers(b, stream, e.forwarded, exact, sketch, fwd, e.exact, e.sketch, e.fleet, float64(appended), float64(appended-acked))
	}

	// Persistence. Snapshots of the loaded store; then a fixed number
	// of further records, a Sync, and a copy of the directory: a crash
	// image whose WAL is not folded into a snapshot. A snapshot is a
	// fraction of a second of disk writes whose speed wanders from one
	// to the next; a recovery is a second of mostly replay that does
	// not. So: many of the first, few of the second.
	var p persistence
	snaps, opens := 11, 5
	if b.quick {
		snaps, opens = 1, 1
	}
	id := b.tr.start(0, "durable.Store.Sync")
	syncS := seconds(func() { b.op(e.store.Sync()) })
	b.tr.end(id)
	b.snapshots(e.store, e.dir, snaps, &p)
	atSnapshot := e.store.Appended()
	for _, w := range stored.window(min(200_000/G, perG/8)) {
		for _, o := range w {
			e.store.Limiter().Observe(o.src, o.dst, epoch)
		}
	}
	b.op(e.store.Sync())
	replay := int(e.store.Appended() - atSnapshot)
	live := e.store.Limiter().Snapshot()
	b.reopen(e.dir, opens, live, replay, &p)
	must(e.store.Close())
	b.infoMedian("snapshot_mb_per_s", p.snapshotMBps, "MB/s")
	b.info("snapshot_hosts", float64(live.ActiveHosts), "hosts")
	b.infoMedian("recover_s", p.openS, "s")
	b.info("recover_replayed_records", float64(replay), "count")

	if b.tr != nil {
		b.set("durable.sync_s", syncS)
		b.set("durable.snapshot_s", median(p.snapshotS))
		b.set("durable.snapshot_mb_per_s", median(p.snapshotMBps))
		b.set("durable.snapshot_bytes", p.snapshotBytes)
		var st *durable.Store
		id := b.tr.start(0, "durable.Open")
		b.set("durable.open_fresh_s", seconds(func() { st = must1(openStore(b, newRamFS())) }))
		b.tr.end(id)
		must(st.Close())
		b.set("durable.replay_records_per_s", float64(replay)/median(p.openS))
		return
	}
	b.set("ops_per_s", median(dur3.rates))
	b.set("restore_s", median(p.openS))
}

// decideLayers is the traced pass's per-layer part of decide-stream.
func decideLayers(b *bench, stream [][]obs, forwarded *cursor, exact, sketch, fwd phase,
	exactLim *core.Limiter, sketchLim *core.SketchLimiter, fp *fleetPair, appended, lag float64) {
	cfg := limiterConfig(b)
	slice, window, fleetWindow := time.Duration(b.seconds*float64(time.Second)/20), 0, 0
	if b.quick {
		slice, window, fleetWindow = time.Hour, len(stream[0])/4, len(forwarded.stream[0])/8
	}
	one := newCursor(stream[:1]).window(window)

	// One goroutine per backend, fresh state, same stream: what the
	// other nproc−1 goroutines cost each call.
	exact1 := b.observeSlice("core.Limiter.Observe/1g", must1(core.NewLimiter(cfg, epoch)), one, slice, false)
	sketch1 := b.observeSlice("core.SketchLimiter.Observe/1g",
		must1(core.NewSketchLimiter(core.SketchConfig{LimiterConfig: cfg, FailureM: 100}, epoch)), one, slice, false)
	st := must1(openStore(b, newRamFS()))
	durable1 := b.observeSlice("durable.Store.Limiter.Observe/1g", st.Limiter(), one, slice, false)
	must(st.Close())
	b.set("core.exact_per_s", median(exact.rates))
	b.set("core.sketch_per_s", median(sketch.rates))
	b.set("fleet.forward_per_s", median(fwd.rates))
	b.set("fleet.forward_p50_us", nsQuantile(fwd.latNs, 0.5)/1e3)
	b.set("core.exact_1g_per_s", exact1.rates[0])
	b.set("core.sketch_1g_per_s", sketch1.rates[0])
	b.set("core.exact_scaling", median(exact.rates)/exact1.rates[0])
	b.set("core.sketch_scaling", median(sketch.rates)/sketch1.rates[0])
	b.set("durable.record_ns", durable1.perOpNs-exact1.perOpNs)
	b.set("durable.wal_appended", appended)
	b.set("durable.ack_lag_records", lag)

	// Memory and serialized state of the limiters the phases loaded.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ref := must1(core.NewLimiter(cfg, epoch))
	for g := range stream {
		for _, o := range stream[g][:exact.consumed[g]] {
			ref.Observe(o.src, o.dst, epoch)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	b.set("core.exact_bytes_per_host", float64(m1.HeapAlloc-m0.HeapAlloc)/float64(ref.Snapshot().ActiveHosts))
	runtime.KeepAlive(ref)
	mem := sketchLim.Memory()
	b.set("core.sketch_bytes_per_host", float64(mem.RegisterBytes)/float64(max(mem.TrackedHosts, 1)))
	var state []byte
	id := b.tr.start(0, "core.Limiter.MarshalState")
	b.set("core.marshal_state_s", seconds(func() { state = must1(exactLim.MarshalState()) }))
	b.tr.end(id, "bytes", float64(len(state)), "hosts", float64(exactLim.Snapshot().ActiveHosts))
	b.set("core.state_bytes", float64(len(state)))

	// Fleet: the owner's local path, the ring lookup, one forwarder
	// alone, and the loopback's own round trip for the same frames.
	ring := fp.entry.Ring()
	own := ownedBy(ring, fleetMembers[0], one, len(one[0]))
	b.set("fleet.local_ns", b.observeSlice("fleet.Node.Observe/local", fp.entry, own, slice, false).perOpNs)
	n := 0
	ringS := seconds(func() {
		for _, o := range one[0] {
			if ring.Owner(o.src) == fleetMembers[0] {
				n++
			}
		}
	})
	sink += uint64(n)
	b.set("fleet.ring_owner_ns", ringS*1e9/float64(len(one[0])))
	alone := newCursor(forwarded.stream[:1])
	alone.advance(forwarded.pos[:1])
	fwd1 := b.observeSlice("fleet.Node.Observe/1g", fp.entry, alone.window(fleetWindow), slice, true)
	alone.advance(fwd1.consumed)
	b.set("fleet.forward_rtt_us", nsQuantile(fwd1.latNs, 0.5)/1e3)
	b.set("fleet.forward_scaling", median(fwd.rates)/fwd1.rates[0])
	b.set("fleet.loopback_rtt_us", loopbackRTT(b, 20_000))

	// On this workload a span covers a whole slice of Observe calls, so
	// tracing costs it nothing that can be told from noise. The twin
	// slices below, one with the tracer on and one with it off, say so
	// with a number.
	tr := b.tr
	b.tr = nil
	plain := b.observeSlice("fleet.Node.Observe/1g", fp.entry, alone.window(fleetWindow), slice, true)
	b.tr = tr
	b.set("trace.overhead_pct", (plain.rates[0]/fwd1.rates[0]-1)*100)
}

// loopbackRTT is the median round trip of a WFP/1 observe exchange's
// bytes over a bare loopback connection: a 19-byte frame out, a 4-byte
// frame back, nothing decided.
func loopbackRTT(b *bench, n int) float64 {
	const reqLen, respLen = 2 + 17, 2 + 2
	ln := must1(net.Listen("tcp", "127.0.0.1:0"))
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req [reqLen]byte
		var resp [respLen]byte
		binary.LittleEndian.PutUint16(resp[:], respLen-2)
		for {
			if _, err := io.ReadFull(conn, req[:]); err != nil {
				return
			}
			if _, err := conn.Write(resp[:]); err != nil {
				return
			}
		}
	}()
	conn := must1(net.Dial("tcp", ln.Addr().String()))
	id := b.tr.start(0, "net.loopback-ping-pong")
	lat := make([]int64, 0, n)
	var req [reqLen]byte
	var resp [respLen]byte
	for i := 0; i < n; i++ {
		t := time.Now()
		must1(conn.Write(req[:]))
		must1(io.ReadFull(conn, resp[:]))
		lat = append(lat, time.Since(t).Nanoseconds())
	}
	b.tr.end(id, "round_trips", float64(n))
	conn.Close()
	ln.Close()
	<-done
	return nsQuantile(lat, 0.5) / 1e3
}
