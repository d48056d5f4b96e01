package main

import (
	"runtime"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/des"
	"wormcontain/internal/sim"
	"wormcontain/internal/telemetry"
)

// sim10MScenario is internal/sim's sim10MConfig scenario: 10M hosts in
// 10/8 scanned within it, 10k seeds, patching, capped at 2M
// infections, wheel kernel, no defense.
func sim10MScenario(b *bench) (sim.Config, *addr.Prefix, *addr.Routable) {
	pfx := must1(addr.ParsePrefix("10.0.0.0/8"))
	routable := must1(addr.NewRoutable([]addr.Prefix{pfx}))
	return sim.Config{
		V: b.scaled(10_000_000), I0: b.scaled(10_000), ScanRate: 10,
		Scanner: routable, ClusterPrefix: &pfx,
		MaxInfected: b.scaled(2_000_000), PatchRate: 0.02,
		Kernel: des.KernelWheel, Seed: b.seed,
	}, &pfx, routable
}

// counterValue reads one unlabelled series of a registry.
func counterValue(reg *telemetry.Registry, name string) float64 {
	v, _ := reg.Snapshot().Value(name)
	return v
}

// runSim10M: one arena-sizing warm-up run, then timed full sim.RunInto
// runs on the recycled Scratch, then a checkpoint cycle on the same
// scenario. Population build is inside every timed run: users pay it
// on every run.
func runSim10M(b *bench) {
	cfg, pfx, routable := sim10MScenario(b)
	sc := sim.NewScratch()
	var res sim.Result

	// Set-up: the warm-up run sizes the arena. It carries a registry so
	// that the kernel counts the events it fires; the count repeats
	// exactly, so the timed runs need no instrumentation.
	reg := telemetry.NewRegistry()
	type warm struct {
		key    simKey
		events float64
		res    sim.Result
	}
	w := setupRounds(b, 1, func() (warm, func()) {
		wcfg := cfg
		wcfg.Metrics = reg
		id := b.tr.start(0, "sim.RunInto")
		err := sim.RunInto(wcfg, sc, &res)
		b.tr.end(id)
		b.op(err)
		return warm{keyOf(&res), counterValue(reg, "des_events_executed_total"), res}, nil
	})
	if b.failed > 0 {
		return
	}
	runtime.GC()

	// Timed plain runs: three, more while they fit in -seconds.
	var walls []float64
	plain := func(c sim.Config) float64 {
		id := b.tr.start(0, "sim.RunInto")
		s := seconds(func() { b.op(sim.RunInto(c, sc, &res)) })
		b.tr.end(id, "events", w.events, "scans", float64(res.TotalScans))
		b.check(keyOf(&res) == w.key, "sim-10m: run result %+v differs from the warm-up's %+v", keyOf(&res), w.key)
		return s
	}
	runs := 3
	if b.quick || b.tr != nil {
		runs = 1
	}
	start := time.Now()
	for i := 0; i < runs || (!b.quick && b.tr == nil && time.Since(start).Seconds()+median(walls) < b.seconds); i++ {
		walls = append(walls, plain(cfg))
	}
	var rates []float64
	for _, s := range walls {
		rates = append(rates, w.events/s)
	}
	b.infoMedian("events_per_s", rates, "events/s")
	b.info("events_per_run", w.events, "count")
	b.info("run_p50_s", median(walls), "s")
	runPeak := peakRSSMB()
	b.info("run_peak_rss_mb", runPeak, "MB")

	// Checkpoint cycle: a cold cut, then four restores, three of them
	// cut again. It comes before the traced pass's probes, so that the
	// resident peak after it is the cycle's and not theirs.
	cy := b.checkpointCycle("sim-10m-ckpt", cfg, sc, uint64(w.events), 4, w.key)
	ckptPeak := peakRSSMB()
	b.infoMedian("ckpt_write_mb_per_s", cy.writeMBps, "MB/s")
	b.infoMedian("ckpt_restore_s", cy.restoreS, "s")
	b.info("ckpt_peak_rss_mb", ckptPeak, "MB")
	b.info("ckpt_dir_held_mb", float64(cy.files.held())/(1<<20), "MB") // in the resident set too: see ramfs.go

	if b.tr != nil {
		b.set("sim.run_peak_rss_mb", runPeak)
		b.set("sim.ckpt_peak_rss_mb", ckptPeak)
		ckptLayers(b, cy)
		sim10MLayers(b, cfg, pfx, routable, sc, &w.res, w.events, reg, median(walls))
		return
	}
	b.set("ops_per_s", median(rates))
	b.set("restore_s", median(cy.restoreS))
}

// ckptLayers reports the checkpoint cycle layer by layer.
func ckptLayers(b *bench, cy ckptCycle) {
	b.set("sim.ckpt_first_cut_s", cy.firstCutS)
	b.set("sim.ckpt_bytes", cy.bytes)
	b.set("sim.ckpt_write_mb_per_s", median(cy.writeMBps))
	b.set("sim.ckpt_encode_s", median(cy.encodeS))
	b.set("sim.ckpt_decode_s", median(cy.decodeS))
	b.set("sim.resume_setup_s", median(cy.resumeSetup))
	b.set("simstate.save_s", median(cy.dir.saveS))
	b.set("simstate.save_mb_per_s", median(cy.dir.saveMB))
	b.set("simstate.load_s", median(cy.dir.loadS))
}

// sim10MLayers is the traced pass's per-layer part of sim-10m.
func sim10MLayers(b *bench, cfg sim.Config, pfx *addr.Prefix, routable *addr.Routable,
	sc *sim.Scratch, warm *sim.Result, events float64, reg *telemetry.Registry, plainS float64) {
	var res sim.Result

	// The same run with the kernel and scan counters wired and a span
	// around it: what tracing costs on this workload.
	tcfg := cfg
	tcfg.Metrics = reg
	before := counterValue(reg, "des_events_executed_total")
	id := b.tr.start(0, "sim.RunInto")
	tracedS := seconds(func() { b.op(sim.RunInto(tcfg, sc, &res)) })
	after := counterValue(reg, "des_events_executed_total")
	pending := counterValue(reg, "des_queue_depth")
	b.tr.end(id, "events", after-before, "pending", pending)
	b.check(after-before == events, "sim-10m: %v events fired, the warm-up fired %v", after-before, events)
	b.set("trace.overhead_pct", (tracedS-plainS)/plainS*100)
	b.set("des.events", events)
	b.set("des.final_pending", pending)

	// The step-driven loop checkpointing uses, with nothing to write.
	id = b.tr.start(0, "sim.RunCheckpointed")
	stepS := seconds(func() { b.op(sim.RunCheckpointed(cfg, sc, &res, sim.CheckpointOptions{})) })
	b.tr.end(id)
	b.set("sim.steploop_overhead_pct", (stepS-plainS)/plainS*100)

	// addr: build the same population outside the engine.
	var pop *addr.Population
	id = b.tr.start(0, "addr.NewPopulation")
	populateS := seconds(func() {
		pop = must1(addr.NewPopulation(cfg.V, pfx, rngFor(b, 1)))
	})
	b.tr.end(id, "hosts", float64(cfg.V))
	b.set("addr.populate_s", populateS)
	b.set("addr.populate_ns_per_host", populateS*1e9/float64(cfg.V))
	b.set("addr.bytes_per_host", float64(pop.Memory())/float64(cfg.V))

	const probes = 2_000_000
	drawNs, lookupNs, hit := addrProbe(b, routable, pop, probes)
	pcgNs := pcgProbe(b, probes)
	churnNs := churnProbe(b, des.KernelWheel, int(pending), probes)
	b.set("addr.draw_ns", drawNs)
	b.set("addr.lookup_ns", lookupNs)
	b.set("addr.lookup_hit_ratio", hit)
	b.set("rng.pcg64_ns", pcgNs)
	b.set("des.wheel_churn_ns", churnNs)

	simAttribution(b, warm, plainS, populateS, events*churnNs+float64(warm.TotalScans)*(drawNs+lookupNs))
}

// simAttribution reports the scan-fate counts and splits a run's wall
// time into population build, the per-call costs measured above times
// their counts, and the residual, which is sim's own.
func simAttribution(b *bench, r *sim.Result, runS, populateS, callsNs float64) {
	b.set("sim.scans", float64(r.TotalScans))
	b.set("sim.delivered", float64(r.Delivered))
	b.set("sim.dropped", float64(r.Dropped))
	b.set("sim.infections", float64(r.TotalInfected))
	loop := runS - populateS
	self := loop - callsNs/1e9
	b.set("sim.loop_s", loop)
	b.set("sim.self_s", self)
	b.set("sim.attributed_share", (populateS+callsNs/1e9)/runS)
	// At -quick scale the probes run at depths and sizes the run never
	// holds for long; only the full scale is held to the assertion.
	b.check(b.quick || self >= 0, "%s: sim.self_s = %.4f s is negative: the per-call probes cost more than the run they explain", b.workload, self)
}
