package sim

import (
	"fmt"
	"math/bits"
	"reflect"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/defense"
	"wormcontain/internal/des"
	"wormcontain/internal/rng"
	"wormcontain/internal/stats"
)

// Checkpoint is the complete state of an in-flight simulation at an
// event boundary: everything needed to continue the run bit-identically
// on a fresh process — and, because pending events are stored in the
// kernel-neutral exported form, on either event-kernel backend.
//
// A checkpoint has three parts. The identity header pins the
// configuration the state belongs to (restores against a different
// configuration are rejected; see matches). The dynamic state carries
// the clock, the RNG position, the population's exact addresses, the
// packed epidemiology bitsets, the in-flight delayed deliveries and the
// pending-event set. The result part carries the Result accumulated so
// far, including the raw sample-path points, so the continued run's
// Result is byte-identical to an uninterrupted one.
type Checkpoint struct {
	// Identity header — the run configuration this state belongs to.
	// Horizon, MaxInfected and MaxEvents are deliberately absent: they
	// are run control, not state identity, so a checkpoint taken under
	// one horizon can be resumed under a longer one. Kernel is recorded
	// for information only (the pending-event export is kernel-neutral).
	V, I0                   int
	ScanRate                float64
	Seed, Stream            uint64
	PatchRate, ImmunizeRate float64
	EdgeScanRate            bool
	TopoFingerprint         uint64 // 0 = no topology
	DefenseName             string
	HasCluster              bool
	ClusterNet              addr.IP
	ClusterBits             uint8
	HasDuty                 bool
	DutyOn, DutyOff         time.Duration
	RecordPaths, RecordTree bool
	Kernel                  des.Kind

	// Dynamic state at the cut.
	Now        time.Duration
	Fired      uint64
	RNG        rng.PCG64State
	Addrs      []addr.IP         // host index -> address
	Infected   []uint64          // packed infected bitset
	Removed    []uint64          // packed removed bitset
	Gen        []int32           // per-host generation number
	InfectedAt []time.Duration   // per-host infection instant (duty-cycle runs only)
	Deliv      []PendingDelivery // delayed-delivery slot table
	FreeDeliv  []int32           // recycled slots, in free-list order
	Pending    []PendingEvent    // kernel-neutral pending-event export
	Defense    []byte            // defense.Snapshotter state

	// Result accumulated so far.
	TotalInfected, TotalRemoved, PeakActive int
	Truncated                               bool
	Generations                             []int
	TotalScans, Delivered, Delayed, Dropped uint64
	Patched, Immunized                      int
	Tree                                    []InfectionEdge
	InfectedPts, RemovedPts, ActivePts      SeriesPoints
}

// PendingEvent is one pending kernel event in serializable form: the
// handler is identified by kind instead of a function value.
type PendingEvent struct {
	At   time.Duration
	Kind uint8
	Arg  int32
}

// Event kinds: the engine schedules exactly these four handlers.
const (
	evScan uint8 = iota
	evPatch
	evImmunize
	evDeliver
	evKinds // count, for validation
)

// PendingDelivery is one delayed scan in flight (the serialized form of
// the engine's slot table).
type PendingDelivery struct {
	Src, Dst addr.IP
	Parent   int32
}

// SeriesPoints is the raw step-point form of a stats.TimeSeries.
type SeriesPoints struct {
	Times  []time.Duration
	Values []float64
}

// checkpointableConfig rejects configurations whose state cannot be
// captured: background traffic draws from its own RNG stream and keeps
// per-host destination pools that a checkpoint does not record, and
// per-host scanner factories may hold arbitrary scanner state.
func checkpointableConfig(cfg *Config) error {
	if cfg.Background != nil {
		return fmt.Errorf("sim: checkpointing does not support background traffic")
	}
	if cfg.ScannerFactory != nil {
		return fmt.Errorf("sim: checkpointing does not support per-host scanner factories (stateful scanners)")
	}
	return nil
}

// snapshotterFor returns the defense's checkpoint capability, rejecting
// defenses that do not expose one.
func snapshotterFor(d defense.Defense) (defense.Snapshotter, error) {
	sn, ok := d.(defense.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: defense %q (%T) is not checkpointable (no Snapshotter)", d.Name(), d)
	}
	return sn, nil
}

// handlerKinds resolves the engine's four bound handler methods to
// their serialized kinds via their code pointers (method values of the
// same method share one wrapper, so the mapping is stable across
// engines and processes).
type handlerKinds struct {
	scan, patch, immunize, deliver uintptr
}

func (e *engine) handlerKinds() handlerKinds {
	return handlerKinds{
		scan:     reflect.ValueOf(e.scanFn).Pointer(),
		patch:    reflect.ValueOf(e.patchFn).Pointer(),
		immunize: reflect.ValueOf(e.immunizeFn).Pointer(),
		deliver:  reflect.ValueOf(e.deliverFn).Pointer(),
	}
}

func (k handlerKinds) kindOf(fn des.ArgHandler) (uint8, bool) {
	switch reflect.ValueOf(fn).Pointer() {
	case k.scan:
		return evScan, true
	case k.patch:
		return evPatch, true
	case k.immunize:
		return evImmunize, true
	case k.deliver:
		return evDeliver, true
	default:
		return 0, false
	}
}

// handlerFor is the inverse mapping used on restore.
func (e *engine) handlerFor(kind uint8) des.ArgHandler {
	switch kind {
	case evScan:
		return e.scanFn
	case evPatch:
		return e.patchFn
	case evImmunize:
		return e.immunizeFn
	case evDeliver:
		return e.deliverFn
	default:
		return nil
	}
}

// snapshot captures the engine's complete state into ck, reusing ck's
// slice capacity across calls (a periodic checkpointer reuses one
// Checkpoint and allocates only on growth).
func (e *engine) snapshot(ck *Checkpoint) error {
	cfg := &e.cfg
	sn, err := snapshotterFor(cfg.Defense)
	if err != nil {
		return err
	}

	// Identity header.
	ck.V, ck.I0 = cfg.V, cfg.I0
	ck.ScanRate = cfg.ScanRate
	ck.Seed, ck.Stream = cfg.Seed, cfg.Stream
	ck.PatchRate, ck.ImmunizeRate = cfg.PatchRate, cfg.ImmunizeRate
	ck.EdgeScanRate = cfg.EdgeScanRate
	ck.TopoFingerprint = 0
	if cfg.Topology != nil {
		ck.TopoFingerprint = cfg.Topology.Fingerprint()
	}
	ck.DefenseName = cfg.Defense.Name()
	ck.HasCluster = cfg.ClusterPrefix != nil
	ck.ClusterNet, ck.ClusterBits = 0, 0
	if p := cfg.ClusterPrefix; p != nil {
		ck.ClusterNet, ck.ClusterBits = p.Net, uint8(p.Bits)
	}
	ck.HasDuty = cfg.DutyCycle != nil
	ck.DutyOn, ck.DutyOff = 0, 0
	if d := cfg.DutyCycle; d != nil {
		ck.DutyOn, ck.DutyOff = d.On, d.Off
	}
	ck.RecordPaths, ck.RecordTree = cfg.RecordPaths, cfg.RecordTree
	ck.Kernel = cfg.Kernel

	// Dynamic state.
	ck.Now = e.sim.Now()
	ck.Fired = e.sim.Fired()
	ck.RNG = e.src.State()
	ck.Addrs = e.pop.AppendAddrs(ck.Addrs[:0])
	ck.Infected = append(ck.Infected[:0], e.state.infected...)
	ck.Removed = append(ck.Removed[:0], e.state.removed...)
	ck.Gen = append(ck.Gen[:0], e.gen...)
	ck.InfectedAt = append(ck.InfectedAt[:0], e.infectedAt...)
	ck.Deliv = ck.Deliv[:0]
	for _, d := range e.pendDeliv {
		ck.Deliv = append(ck.Deliv, PendingDelivery{Src: d.src, Dst: d.dst, Parent: d.parent})
	}
	ck.FreeDeliv = append(ck.FreeDeliv[:0], e.freeDeliv...)

	kinds := e.handlerKinds()
	ck.Pending = ck.Pending[:0]
	for _, ev := range e.sim.ExportPending() {
		kind, ok := kinds.kindOf(ev.Fn)
		if !ok {
			return fmt.Errorf("sim: pending event at %v has an unrecognized handler", ev.At)
		}
		ck.Pending = append(ck.Pending, PendingEvent{At: ev.At, Kind: kind, Arg: int32(ev.Arg)})
	}

	if ck.Defense, err = sn.SnapshotState(); err != nil {
		return err
	}

	// Result so far.
	res := e.res
	ck.TotalInfected, ck.TotalRemoved, ck.PeakActive =
		res.TotalInfected, res.TotalRemoved, res.PeakActive
	ck.Truncated = res.Truncated
	ck.Generations = append(ck.Generations[:0], res.Generations...)
	ck.TotalScans, ck.Delivered, ck.Delayed, ck.Dropped =
		res.TotalScans, res.Delivered, res.Delayed, res.Dropped
	ck.Patched, ck.Immunized = res.Patched, res.Immunized
	ck.Tree = append(ck.Tree[:0], res.Tree...)
	ck.InfectedPts = seriesPoints(res.InfectedSeries)
	ck.RemovedPts = seriesPoints(res.RemovedSeries)
	ck.ActivePts = seriesPoints(res.ActiveSeries)
	return nil
}

func seriesPoints(ts *stats.TimeSeries) SeriesPoints {
	if ts == nil {
		return SeriesPoints{}
	}
	times, values := ts.Points()
	return SeriesPoints{Times: times, Values: values}
}

func restoreSeries(p SeriesPoints) (*stats.TimeSeries, error) {
	ts := stats.NewTimeSeries()
	for i, t := range p.Times {
		if i > 0 && t < p.Times[i-1] {
			return nil, fmt.Errorf("sim: checkpoint series regresses at point %d", i)
		}
		ts.Record(t, p.Values[i])
	}
	return ts, nil
}

// matches verifies the checkpoint's identity header against cfg; a
// mismatch means the checkpoint belongs to a different experiment and
// resuming it would silently produce the wrong trajectory.
func (ck *Checkpoint) matches(cfg *Config) error {
	mismatch := func(field string, got, want any) error {
		return fmt.Errorf("sim: checkpoint %s %v does not match configuration %v", field, got, want)
	}
	if ck.V != cfg.V {
		return mismatch("V", ck.V, cfg.V)
	}
	if ck.I0 != cfg.I0 {
		return mismatch("I0", ck.I0, cfg.I0)
	}
	if ck.ScanRate != cfg.ScanRate {
		return mismatch("scan rate", ck.ScanRate, cfg.ScanRate)
	}
	if ck.Seed != cfg.Seed || ck.Stream != cfg.Stream {
		return mismatch("seed/stream",
			fmt.Sprintf("%d/%d", ck.Seed, ck.Stream),
			fmt.Sprintf("%d/%d", cfg.Seed, cfg.Stream))
	}
	if ck.PatchRate != cfg.PatchRate {
		return mismatch("patch rate", ck.PatchRate, cfg.PatchRate)
	}
	if ck.ImmunizeRate != cfg.ImmunizeRate {
		return mismatch("immunize rate", ck.ImmunizeRate, cfg.ImmunizeRate)
	}
	if ck.EdgeScanRate != cfg.EdgeScanRate {
		return mismatch("edge-scan-rate", ck.EdgeScanRate, cfg.EdgeScanRate)
	}
	var topoFp uint64
	if cfg.Topology != nil {
		topoFp = cfg.Topology.Fingerprint()
	}
	if ck.TopoFingerprint != topoFp {
		return mismatch("topology fingerprint",
			fmt.Sprintf("%016x", ck.TopoFingerprint), fmt.Sprintf("%016x", topoFp))
	}
	if ck.DefenseName != cfg.Defense.Name() {
		return mismatch("defense", ck.DefenseName, cfg.Defense.Name())
	}
	hasCluster := cfg.ClusterPrefix != nil
	if ck.HasCluster != hasCluster {
		return mismatch("cluster prefix presence", ck.HasCluster, hasCluster)
	}
	if hasCluster &&
		(ck.ClusterNet != cfg.ClusterPrefix.Net || int(ck.ClusterBits) != cfg.ClusterPrefix.Bits) {
		return mismatch("cluster prefix",
			fmt.Sprintf("%v/%d", ck.ClusterNet, ck.ClusterBits), *cfg.ClusterPrefix)
	}
	hasDuty := cfg.DutyCycle != nil
	if ck.HasDuty != hasDuty {
		return mismatch("duty cycle presence", ck.HasDuty, hasDuty)
	}
	if hasDuty && (ck.DutyOn != cfg.DutyCycle.On || ck.DutyOff != cfg.DutyCycle.Off) {
		return mismatch("duty cycle",
			fmt.Sprintf("%v/%v", ck.DutyOn, ck.DutyOff), *cfg.DutyCycle)
	}
	if ck.RecordPaths != cfg.RecordPaths {
		return mismatch("record-paths", ck.RecordPaths, cfg.RecordPaths)
	}
	if ck.RecordTree != cfg.RecordTree {
		return mismatch("record-tree", ck.RecordTree, cfg.RecordTree)
	}
	return nil
}

// setupResume is setupRun's checkpoint counterpart: it validates the
// configuration against the checkpoint's identity header, then rebuilds
// the engine at the checkpointed cut — population, bitsets, RNG
// position, defense state, delayed deliveries and the pending-event set
// — ready to fire the next event exactly where the original run would
// have. The target kernel is cfg.Kernel: resuming a heap checkpoint on
// the wheel (or vice versa) is supported and bit-identical.
func setupResume(cfg Config, scratch *Scratch, res *Result, ck *Checkpoint) (*engine, error) {
	if err := checkpointableConfig(&cfg); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := ck.matches(&cfg); err != nil {
		return nil, err
	}
	sn, err := snapshotterFor(cfg.Defense)
	if err != nil {
		return nil, err
	}
	if err := validateCheckpointState(ck); err != nil {
		return nil, err
	}
	if scratch == nil {
		scratch = NewScratch()
	} else if scratch.eng.sim == nil {
		scratch.init()
	}
	e := &scratch.eng

	// RNG: seed first (so a fresh engine allocates its generator), then
	// overlay the checkpointed position.
	if e.src == nil {
		e.src = rng.NewPCG64(cfg.Seed, cfg.Stream)
	}
	e.src.SetState(ck.RNG)

	if e.pop == nil {
		pop, err := addr.RestorePopulation(ck.Addrs)
		if err != nil {
			return nil, err
		}
		e.pop = pop
	} else if err := e.pop.RestoreAddrs(ck.Addrs); err != nil {
		return nil, err
	}

	e.cfg = cfg
	e.sim.Reset() // drop any leftovers so configureKernel sees an empty queue
	e.configureKernel()

	// Packed epidemiology: copy the bitsets, then recompute the shard
	// counters and the active count from the bits and cross-check them
	// against the checkpoint's counters — a corrupt checkpoint fails
	// here instead of mis-simulating.
	e.state.reset(cfg.V)
	copy(e.state.infected, ck.Infected)
	copy(e.state.removed, ck.Removed)
	active := 0
	for w, inf := range e.state.infected {
		if inf&e.state.removed[w] != 0 {
			return nil, fmt.Errorf("sim: checkpoint marks host(s) both infected and removed (word %d)", w)
		}
		c := bits.OnesCount64(inf)
		active += c
	}
	for i := range e.state.shardActive {
		lo := i << shardBits
		hi := lo + 1<<shardBits
		if hi > cfg.V {
			hi = cfg.V
		}
		n := 0
		for w := lo >> 6; w < (hi+63)>>6; w++ {
			n += bits.OnesCount64(e.state.infected[w])
		}
		e.state.shardActive[i] = int32(n)
	}
	e.state.active = active
	if want := ck.TotalInfected - ck.TotalRemoved; active != want {
		return nil, fmt.Errorf("sim: checkpoint infected bitset population %d != TotalInfected-TotalRemoved %d",
			active, want)
	}
	removed := 0
	for _, w := range e.state.removed {
		removed += bits.OnesCount64(w)
	}
	if want := ck.TotalRemoved + ck.Immunized; removed != want {
		return nil, fmt.Errorf("sim: checkpoint removed bitset population %d != TotalRemoved+Immunized %d",
			removed, want)
	}

	e.gen = append(e.gen[:0], ck.Gen...)
	e.infectedAt = append(e.infectedAt[:0], ck.InfectedAt...)

	// Result so far.
	*res = Result{Generations: res.Generations[:0], Tree: res.Tree[:0]}
	res.TotalInfected, res.TotalRemoved, res.PeakActive =
		ck.TotalInfected, ck.TotalRemoved, ck.PeakActive
	res.Truncated = ck.Truncated
	res.Generations = append(res.Generations, ck.Generations...)
	res.TotalScans, res.Delivered, res.Delayed, res.Dropped =
		ck.TotalScans, ck.Delivered, ck.Delayed, ck.Dropped
	res.Patched, res.Immunized = ck.Patched, ck.Immunized
	res.Tree = append(res.Tree, ck.Tree...)
	if cfg.RecordPaths {
		if res.InfectedSeries, err = restoreSeries(ck.InfectedPts); err != nil {
			return nil, err
		}
		if res.RemovedSeries, err = restoreSeries(ck.RemovedPts); err != nil {
			return nil, err
		}
		if res.ActiveSeries, err = restoreSeries(ck.ActivePts); err != nil {
			return nil, err
		}
	}
	e.res = res

	e.metrics = nil
	if cfg.Metrics != nil {
		e.sim.Instrument(cfg.Metrics)
		e.metrics = newSimMetrics(cfg.Metrics)
	} else {
		e.sim.Instrument(nil)
	}

	e.scanner = grow(e.scanner, 1)
	e.scanner[0] = cfg.Scanner

	if err := sn.RestoreState(ck.Defense); err != nil {
		return nil, err
	}

	// Delayed-delivery slot table, then the pending-event set through
	// the kernel-neutral Restore path.
	e.pendDeliv = e.pendDeliv[:0]
	for _, d := range ck.Deliv {
		e.pendDeliv = append(e.pendDeliv, pendingDelivery{src: d.Src, dst: d.Dst, parent: d.Parent})
	}
	e.freeDeliv = append(e.freeDeliv[:0], ck.FreeDeliv...)

	e.batch = e.batch[:0]
	for _, ev := range ck.Pending {
		e.batch = append(e.batch, des.BatchEvent{At: ev.At, Fn: e.handlerFor(ev.Kind), Arg: int(ev.Arg)})
	}
	e.sim.Restore(ck.Now, ck.Fired, e.batch)
	return e, nil
}

// validateCheckpointState deep-checks the dynamic state's internal
// consistency (the codec checks structure; this checks semantics that
// need the whole value).
func validateCheckpointState(ck *Checkpoint) error {
	words := (ck.V + 63) >> 6
	if len(ck.Addrs) != ck.V {
		return fmt.Errorf("sim: checkpoint has %d addresses for V=%d", len(ck.Addrs), ck.V)
	}
	if len(ck.Infected) != words || len(ck.Removed) != words {
		return fmt.Errorf("sim: checkpoint bitset words %d/%d, want %d",
			len(ck.Infected), len(ck.Removed), words)
	}
	if tail := ck.V & 63; tail != 0 && words > 0 {
		mask := ^uint64(0) << tail
		if ck.Infected[words-1]&mask != 0 || ck.Removed[words-1]&mask != 0 {
			return fmt.Errorf("sim: checkpoint bitset has bits beyond host %d", ck.V-1)
		}
	}
	if len(ck.Gen) != ck.V {
		return fmt.Errorf("sim: checkpoint has %d generation entries for V=%d", len(ck.Gen), ck.V)
	}
	if ck.HasDuty {
		if len(ck.InfectedAt) != ck.V {
			return fmt.Errorf("sim: duty-cycle checkpoint has %d infection instants for V=%d",
				len(ck.InfectedAt), ck.V)
		}
	} else if len(ck.InfectedAt) != 0 {
		return fmt.Errorf("sim: checkpoint has infection instants without a duty cycle")
	}
	if ck.Now < 0 {
		return fmt.Errorf("sim: checkpoint clock %v is negative", ck.Now)
	}
	if ck.TotalInfected < ck.I0 || ck.TotalInfected > ck.V {
		return fmt.Errorf("sim: checkpoint TotalInfected %d outside [I0=%d, V=%d]",
			ck.TotalInfected, ck.I0, ck.V)
	}
	if ck.TotalRemoved < 0 || ck.TotalRemoved > ck.TotalInfected {
		return fmt.Errorf("sim: checkpoint TotalRemoved %d outside [0, TotalInfected=%d]",
			ck.TotalRemoved, ck.TotalInfected)
	}
	if ck.Immunized < 0 || ck.TotalInfected+ck.Immunized > ck.V {
		return fmt.Errorf("sim: checkpoint Immunized %d inconsistent with TotalInfected %d, V %d",
			ck.Immunized, ck.TotalInfected, ck.V)
	}
	seen := make(map[int32]bool, len(ck.FreeDeliv))
	for _, s := range ck.FreeDeliv {
		if s < 0 || int(s) >= len(ck.Deliv) {
			return fmt.Errorf("sim: checkpoint free delivery slot %d outside table of %d", s, len(ck.Deliv))
		}
		if seen[s] {
			return fmt.Errorf("sim: checkpoint free delivery slot %d listed twice", s)
		}
		seen[s] = true
	}
	for i, d := range ck.Deliv {
		if d.Parent < 0 || int(d.Parent) >= ck.V {
			return fmt.Errorf("sim: checkpoint delivery %d has parent %d outside [0, V)", i, d.Parent)
		}
	}
	for i, ev := range ck.Pending {
		if ev.Kind >= evKinds {
			return fmt.Errorf("sim: checkpoint event %d has unknown kind %d", i, ev.Kind)
		}
		if ev.At < ck.Now {
			return fmt.Errorf("sim: checkpoint event %d at %v is before the clock %v", i, ev.At, ck.Now)
		}
		switch ev.Kind {
		case evDeliver:
			if ev.Arg < 0 || int(ev.Arg) >= len(ck.Deliv) {
				return fmt.Errorf("sim: checkpoint delivery event %d references slot %d of %d",
					i, ev.Arg, len(ck.Deliv))
			}
			if seen[ev.Arg] {
				return fmt.Errorf("sim: checkpoint delivery event %d references freed slot %d", i, ev.Arg)
			}
		default:
			if ev.Arg < 0 || int(ev.Arg) >= ck.V {
				return fmt.Errorf("sim: checkpoint event %d targets host %d outside [0, V)", i, ev.Arg)
			}
		}
	}
	for g, n := range ck.Generations {
		if n < 0 {
			return fmt.Errorf("sim: checkpoint generation %d has negative count %d", g, n)
		}
	}
	// Infection indexes the histogram with the parent's generation plus
	// one, so every host's generation must already be a histogram entry:
	// a never-infected host has generation 0, and Generations[0] counts
	// the seeds.
	for i, g := range ck.Gen {
		if g < 0 || int(g) >= len(ck.Generations) {
			return fmt.Errorf("sim: checkpoint host %d has generation %d outside [0, %d)",
				i, g, len(ck.Generations))
		}
	}
	if len(ck.InfectedPts.Times) != len(ck.InfectedPts.Values) ||
		len(ck.RemovedPts.Times) != len(ck.RemovedPts.Values) ||
		len(ck.ActivePts.Times) != len(ck.ActivePts.Values) {
		return fmt.Errorf("sim: checkpoint series times/values lengths differ")
	}
	return nil
}
