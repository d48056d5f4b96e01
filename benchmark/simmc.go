package main

import (
	"hash/fnv"
	"sync/atomic"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/defense"
	"wormcontain/internal/des"
	"wormcontain/internal/dist"
	"wormcontain/internal/parallel"
	"wormcontain/internal/sim"
	"wormcontain/internal/stats"
	"wormcontain/internal/telemetry"
)

const (
	mcM     = 10_000 // the paper's Fig. 7 scan limit
	mcBatch = 10     // replications per timed batch
)

// mcScenario is the paper's Fig. 7 regime on the event engine: Code
// Red, full 2^32 space, uniform scanning, M-limit, heap kernel.
func mcScenario(b *bench, stream uint64) sim.Config {
	d := must1(defense.NewMLimit(mcM, 365*24*time.Hour))
	return sim.Config{V: b.scaled(360_000), I0: 10, ScanRate: 6, Defense: d, Seed: b.seed, Stream: stream}
}

// replication is one replication's outcome.
type replication struct {
	infected           int
	scans              uint64
	delivered, dropped uint64
	wallS              float64
}

// mcBatchRun fans replications first..first+n-1 over workers with
// parallel.MapSlot and a ScratchPool. mutate, when non-nil, edits each
// replication's config (kernel, registry).
func mcBatchRun(b *bench, pool *parallel.ScratchPool[*sim.Scratch], first, n, workers int, mutate func(*sim.Config)) ([]replication, float64) {
	id := b.tr.start(0, "parallel.MapSlot")
	var out []replication
	var err error
	wall := seconds(func() {
		out, err = parallel.MapSlot(n, workers, func(r, slot int) (replication, error) {
			cfg := mcScenario(b, uint64(first+r))
			if mutate != nil {
				mutate(&cfg)
			}
			var res sim.Result
			rid := b.tr.start(id, "sim.RunInto")
			t := time.Now()
			err := sim.RunInto(cfg, pool.Get(slot), &res)
			rep := replication{res.TotalInfected, res.TotalScans, res.Delivered, res.Dropped, time.Since(t).Seconds()}
			b.tr.end(rid, "scans", float64(res.TotalScans))
			return rep, err
		})
	})
	b.tr.end(id, "replications", float64(n))
	b.attempted += n
	if err != nil {
		b.failed += n
		b.say("operation failed: %v", err)
		return nil, wall
	}
	return out, wall
}

func scansOf(reps []replication) (n float64) {
	for _, r := range reps {
		n += float64(r.scans)
	}
	return n
}

// fingerprint hashes a batch's totals in replication order.
func fingerprint(reps []replication) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, r := range reps {
		for i := 0; i < 8; i++ {
			buf[i] = byte(uint64(r.infected) >> (8 * i))
			buf[8+i] = byte(r.scans >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// runSimMC: batches of Code Red replications, streams 0, 1, 2, …,
// until -seconds have passed (at least ten batches), then a
// checkpoint cycle at the same population — the small counterpart of
// sim-10m's, where the fixed cost of a checkpoint, not its bulk,
// dominates.
func runSimMC(b *bench) {
	workers := b.nproc
	// Set-up: a scratch pool with one arena per worker slot, sized by
	// one replication per slot on streams the timed batches never use,
	// stopped after a virtual minute: the population is what sizes the
	// arena, and how far an outbreak gets is the seed's luck.
	pool := setupRounds(b, 25, func() (*parallel.ScratchPool[*sim.Scratch], func()) {
		p := parallel.NewScratchPool(workers, sim.NewScratch)
		_, err := parallel.MapSlot(workers, workers, func(r, slot int) (struct{}, error) {
			cfg := mcScenario(b, 1<<40+uint64(r))
			cfg.Horizon = time.Minute
			var res sim.Result
			return struct{}{}, sim.RunInto(cfg, p.Get(slot), &res)
		})
		must(err)
		return p, nil
	})

	batch, minBatches := mcBatch, 10
	if b.quick {
		batch, minBatches = 4, 2
	}
	// In the traced pass every second batch carries a registry shared
	// by its replications, as a scraped Monte-Carlo sweep does.
	reg := telemetry.NewRegistry()
	var (
		all            []replication
		rates          []float64
		tracedNsPerEv  []float64
		untracedNsPerE []float64
	)
	start := time.Now()
	for k := 0; k < minBatches || (!b.quick && time.Since(start).Seconds() < b.seconds); k++ {
		var mutate func(*sim.Config)
		traced := b.tr != nil && k%2 == 1
		if traced {
			mutate = func(c *sim.Config) { c.Metrics = reg }
		}
		before := counterValue(reg, "des_events_executed_total")
		reps, wall := mcBatchRun(b, pool, k*batch, batch, workers, mutate)
		if reps == nil {
			return
		}
		scans := scansOf(reps)
		if traced {
			// With the M-limit and no patching a host leaves the event
			// queue in its own last scan, so every fired event is a
			// counted scan; the kernel's counter confirms it.
			fired := counterValue(reg, "des_events_executed_total") - before
			b.check(fired == scans, "sim-mc: kernel fired %v events, results count %v scans", fired, scans)
			tracedNsPerEv = append(tracedNsPerEv, wall*1e9/scans)
		} else {
			untracedNsPerE = append(untracedNsPerE, wall*1e9/scans)
			rates = append(rates, scans/wall)
		}
		all = append(all, reps...)
	}
	var repWalls []float64
	for _, r := range all {
		repWalls = append(repWalls, r.wallS)
	}
	b.infoMedian("events_per_s", rates, "events/s")
	b.info("replications", float64(len(all)), "count")
	b.info("events_total", scansOf(all), "count")

	// Accuracy beside speed: totals against Borel–Tanner with λ = M·p.
	lambda := mcM * float64(b.scaled(360_000)) / addr.SpaceSize
	bt := must1(dist.NewBorelTanner(lambda, 10))
	hist := stats.NewIntHistogram()
	sum := 0
	for _, r := range all {
		hist.Add(r.infected)
		sum += r.infected
	}
	_, hi, _ := hist.Range()
	ks := stats.KolmogorovSmirnov(hist.CumFreq(hi), bt.CDFSeries(hi))
	crit := stats.KSCritical99(len(all))
	b.info("mc_mean_infected", float64(sum)/float64(len(all)), "hosts")
	b.info("mc_mean_infected_theory", bt.Mean(), "hosts")
	b.info("mc_ks_distance", ks, "distance")
	b.info("mc_ks_critical99", crit, "distance")
	// The 99 % value is printed; the run fails at 1.5 times it. A check
	// that fails one honest run in a hundred would reject one set of
	// runs in five.
	b.check(ks < 1.5*crit, "sim-mc: KS distance %.4f to Borel–Tanner is over 1.5 × the 99 %% critical value %.4f", ks, crit)

	// Checkpoint cycle. How far one replication's outbreak gets is the
	// seed's luck, and a checkpoint's size with it; so the cycle runs the
	// scenario with 100 seeds to a horizon of 1000 virtual seconds,
	// where 100 hosts have each made some 6000 of their 10 000 scans and
	// every seed's state is about the same size.
	ckScenario := func() sim.Config {
		cfg := mcScenario(b, 1<<41)
		cfg.I0, cfg.Horizon = 100, 1000*time.Second
		return cfg
	}
	var res sim.Result
	sc := sim.NewScratch()
	ckReg := telemetry.NewRegistry()
	ckCfg := ckScenario()
	ckCfg.Metrics = ckReg
	if !b.op(sim.RunInto(ckCfg, sc, &res)) {
		return
	}
	resumes := 20
	if b.quick {
		resumes = 2
	}
	cy := b.checkpointCycle("sim-mc-ckpt", ckScenario(), sc, uint64(counterValue(ckReg, "des_events_executed_total")), resumes, keyOf(&res))
	b.infoMedian("ckpt_write_mb_per_s", cy.writeMBps, "MB/s")
	b.infoMedian("ckpt_restore_s", cy.restoreS, "s")
	b.info("ckpt_bytes", cy.bytes, "B")
	b.infoMedian("replication_p50_s", repWalls, "s")

	if b.tr == nil {
		b.set("ops_per_s", median(rates))
		b.set("restore_s", median(cy.restoreS))
		return
	}
	b.set("trace.overhead_pct", (median(tracedNsPerEv)-median(untracedNsPerE))/median(untracedNsPerE)*100)
	b.set("sim.mc_mean_infected", float64(sum)/float64(len(all)))
	b.set("sim.mc_ks_distance", ks)
	ckptLayers(b, cy)
	simMCLayers(b, pool, all[:batch])
}

// simMCLayers is the traced pass's per-layer part of sim-mc. first is
// the first batch as the timed loop ran it.
func simMCLayers(b *bench, pool *parallel.ScratchPool[*sim.Scratch], first []replication) {
	n, workers := len(first), b.nproc

	// One worker against nproc, same batch: the totals must not depend
	// on the worker count.
	serial, wall1 := mcBatchRun(b, pool, 0, n, 1, nil)
	again, wallN := mcBatchRun(b, pool, 0, n, workers, nil)
	if serial == nil || again == nil {
		return
	}
	b.check(fingerprint(serial) == fingerprint(first) && fingerprint(again) == fingerprint(first),
		"sim-mc: totals fingerprint differs between worker counts 1 and %d", workers)
	b.set("parallel.speedup", wall1/wallN)

	// The same batch on the wheel kernel.
	wheel, wallW := mcBatchRun(b, pool, 0, n, workers, func(c *sim.Config) { c.Kernel = des.KernelWheel })
	if wheel == nil {
		return
	}
	b.check(fingerprint(wheel) == fingerprint(first), "sim-mc: wheel kernel totals differ from the heap kernel's")
	b.set("sim.mc_wheel_over_heap", wallW/wallN)

	// Pending depth one replication reaches, seen from a scan observer.
	reg := telemetry.NewRegistry()
	var depth atomic.Int64
	cfg := mcScenario(b, 0)
	cfg.Metrics = reg
	depthGauge := reg.Gauge("des_queue_depth", "")
	cfg.ScanObserver = func(_, _ addr.IP, _ time.Duration) {
		if d := int64(depthGauge.Value()); d > depth.Load() {
			depth.Store(d)
		}
	}
	var res sim.Result
	if !b.op(sim.RunInto(cfg, pool.Get(0), &res)) {
		return
	}
	b.set("des.events", counterValue(reg, "des_events_executed_total"))
	b.set("des.final_pending", counterValue(reg, "des_queue_depth"))
	b.info("des.peak_pending_seen", float64(depth.Load()), "events")

	const probes = 2_000_000
	v := b.scaled(360_000)
	pop := must1(addr.NewPopulation(v, nil, rngFor(b, 1)))
	var repop []float64
	for i := 0; i < 5; i++ {
		id := b.tr.start(0, "addr.Population.Repopulate")
		repop = append(repop, seconds(func() { must(pop.Repopulate(v, nil, rngFor(b, 6+uint64(i)))) }))
		b.tr.end(id, "hosts", float64(v))
	}
	drawNs, lookupNs, hit := addrProbe(b, addr.Uniform{}, pop, probes)
	churnNs := churnProbe(b, des.KernelHeap, int(depth.Load()), probes)
	onScanNs := mlimitProbe(b, mcM, 100)
	b.set("addr.repopulate_360k_s", median(repop))
	b.set("addr.draw_ns", drawNs)
	b.set("addr.lookup_ns", lookupNs)
	b.set("addr.lookup_hit_ratio", hit)
	b.set("rng.pcg64_ns", pcgProbe(b, probes))
	b.set("des.heap_churn_ns", churnNs)
	b.set("defense.mlimit_onscan_ns", onScanNs)

	// Attribution over the first batch, on one worker's clock.
	var total sim.Result
	var runS float64
	for _, r := range serial {
		total.TotalScans += r.scans
		total.TotalInfected += r.infected
		total.Delivered += r.delivered
		total.Dropped += r.dropped
		runS += r.wallS
	}
	scans := float64(total.TotalScans)
	simAttribution(b, &total, runS, float64(n)*median(repop), scans*(churnNs+drawNs+lookupNs+onScanNs))
}
