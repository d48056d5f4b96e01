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
	"wormcontain/internal/topo"
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
	identity
	// Kernel is the backend that wrote the cut. It is not part of the
	// identity (the pending-event export is kernel-neutral, so a cut
	// resumes on either kernel); cmd/wormsim reads it to reject a
	// mismatched -kernel on -resume.
	Kernel des.Kind

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
	Tree                                    []topo.InfectionEvent
	InfectedPts, RemovedPts, ActivePts      SeriesPoints
}

// identity is the configuration a checkpoint belongs to, as identityOf
// derives it from a Config. Horizon, MaxInfected and the unexported
// maxEvents guard are deliberately absent: they are run control, not
// state identity, so a checkpoint taken under one horizon can be
// resumed under a longer one.
type identity struct {
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
}

// identityOf is the identity of a validated configuration.
func identityOf(cfg *Config) identity {
	id := identity{
		V: cfg.V, I0: cfg.I0,
		ScanRate: cfg.ScanRate,
		Seed:     cfg.Seed, Stream: cfg.Stream,
		PatchRate: cfg.PatchRate, ImmunizeRate: cfg.ImmunizeRate,
		EdgeScanRate: cfg.EdgeScanRate,
		DefenseName:  cfg.Defense.Name(),
		RecordPaths:  cfg.RecordPaths, RecordTree: cfg.RecordTree,
	}
	if g := cfg.Topology; g != nil {
		id.TopoFingerprint = g.Fingerprint()
	}
	if p := cfg.ClusterPrefix; p != nil {
		id.HasCluster, id.ClusterNet, id.ClusterBits = true, p.Net, uint8(p.Bits)
	}
	if d := cfg.DutyCycle; d != nil {
		id.HasDuty, id.DutyOn, id.DutyOff = true, d.On, d.Off
	}
	return id
}

// matches verifies the checkpoint's identity header against cfg and
// names the first field that differs; a mismatch means the checkpoint
// belongs to a different experiment and resuming it would silently
// produce the wrong trajectory.
func (ck *Checkpoint) matches(cfg *Config) error {
	got, want := reflect.ValueOf(ck.identity), reflect.ValueOf(identityOf(cfg))
	for i := 0; i < got.NumField(); i++ {
		if g, w := got.Field(i).Interface(), want.Field(i).Interface(); g != w {
			return fmt.Errorf("sim: checkpoint %s %v does not match configuration %v",
				got.Type().Field(i).Name, g, w)
		}
	}
	return nil
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

// PendingDelivery is one delayed scan in flight between the defense's
// Delay verdict and its deliverFire event: an entry of the engine's
// slot table, which a checkpoint stores as it is.
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
// per-host destination pools that a checkpoint does not record.
func checkpointableConfig(cfg *Config) error {
	if cfg.Background != nil {
		return fmt.Errorf("sim: checkpointing does not support background traffic")
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

	ck.identity = identityOf(cfg)
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
	ck.Deliv = append(ck.Deliv[:0], e.pendDeliv...)
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

// replaySeries records a checkpoint's step points into ts.
func replaySeries(ts *stats.TimeSeries, p SeriesPoints) {
	for i, t := range p.Times {
		ts.Record(t, p.Values[i])
	}
}

// setupResume is setupRun's checkpoint counterpart: it checks the
// configuration against the checkpoint's identity header and the
// checkpoint's own consistency, then lays the cut — population,
// bitsets, RNG position, defense state, delayed deliveries and the
// pending-event set — over a freshly set-up engine, ready to fire the
// next event exactly where the original run would have. The target
// kernel is cfg.Kernel: resuming a heap checkpoint on the wheel (or
// vice versa) is supported and bit-identical.
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
	e := scratch.engine()

	// The population's index is rebuilt beside the setup and the
	// overlay, none of which reads e.pop. Both finish before setupResume
	// returns, and a population error is reported first, as it was when
	// the rebuild came first.
	popErr := make(chan error, 1)
	go func() { popErr <- e.restorePopulation(ck.Addrs) }()
	e.setup(cfg, res)
	err = e.overlay(ck, sn)
	if perr := <-popErr; perr != nil {
		return nil, perr
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// restorePopulation rebuilds the population from the checkpoint's
// address list, reusing the engine's arena when it has one.
func (e *engine) restorePopulation(addrs []addr.IP) error {
	if e.pop != nil {
		return e.pop.RestoreAddrs(addrs)
	}
	pop, err := addr.RestorePopulation(addrs)
	if err != nil {
		return err
	}
	e.pop = pop
	return nil
}

// overlay lays everything of the checkpointed cut but the population
// over the set-up engine: RNG position, bitsets, generations, the
// result so far, defense state, delayed deliveries and the
// pending-event set.
func (e *engine) overlay(ck *Checkpoint, sn defense.Snapshotter) error {
	e.src.SetState(ck.RNG)

	// Packed epidemiology: copy the bitsets, then recompute the shard
	// counters and the active count from the bits and cross-check them
	// against the checkpoint's counters — a corrupt checkpoint fails
	// here instead of mis-simulating.
	copy(e.state.infected, ck.Infected)
	copy(e.state.removed, ck.Removed)
	active := 0
	for w, inf := range e.state.infected {
		if inf&e.state.removed[w] != 0 {
			return fmt.Errorf("sim: checkpoint marks host(s) both infected and removed (word %d)", w)
		}
		c := bits.OnesCount64(inf)
		active += c
	}
	for i := range e.state.shardActive {
		lo := i << shardBits
		hi := lo + 1<<shardBits
		if hi > ck.V {
			hi = ck.V
		}
		n := 0
		for w := lo >> 6; w < (hi+63)>>6; w++ {
			n += bits.OnesCount64(e.state.infected[w])
		}
		e.state.shardActive[i] = int32(n)
	}
	e.state.active = active
	if want := ck.TotalInfected - ck.TotalRemoved; active != want {
		return fmt.Errorf("sim: checkpoint infected bitset population %d != TotalInfected-TotalRemoved %d",
			active, want)
	}
	removed := 0
	for _, w := range e.state.removed {
		removed += bits.OnesCount64(w)
	}
	if want := ck.TotalRemoved + ck.Immunized; removed != want {
		return fmt.Errorf("sim: checkpoint removed bitset population %d != TotalRemoved+Immunized %d",
			removed, want)
	}
	copy(e.gen, ck.Gen)
	copy(e.infectedAt, ck.InfectedAt)

	// Result so far.
	res := e.res
	res.TotalInfected, res.TotalRemoved, res.PeakActive =
		ck.TotalInfected, ck.TotalRemoved, ck.PeakActive
	res.Truncated = ck.Truncated
	res.Generations = append(res.Generations, ck.Generations...)
	res.TotalScans, res.Delivered, res.Delayed, res.Dropped =
		ck.TotalScans, ck.Delivered, ck.Delayed, ck.Dropped
	res.Patched, res.Immunized = ck.Patched, ck.Immunized
	res.Tree = append(res.Tree, ck.Tree...)
	if e.cfg.RecordPaths {
		replaySeries(res.InfectedSeries, ck.InfectedPts)
		replaySeries(res.RemovedSeries, ck.RemovedPts)
		replaySeries(res.ActiveSeries, ck.ActivePts)
	}

	if err := sn.RestoreState(ck.Defense); err != nil {
		return err
	}

	// Delayed-delivery slot table, then the pending-event set through
	// the kernel-neutral Restore path.
	e.pendDeliv = append(e.pendDeliv, ck.Deliv...)
	e.freeDeliv = append(e.freeDeliv, ck.FreeDeliv...)
	e.batch = e.batch[:0]
	for _, ev := range ck.Pending {
		e.batch = append(e.batch, des.BatchEvent{At: ev.At, Fn: e.handlerFor(ev.Kind), Arg: int(ev.Arg)})
	}
	e.sim.Restore(ck.Now, ck.Fired, e.batch)
	return nil
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
	for _, p := range [...]SeriesPoints{ck.InfectedPts, ck.RemovedPts, ck.ActivePts} {
		if len(p.Times) != len(p.Values) {
			return fmt.Errorf("sim: checkpoint series times/values lengths differ")
		}
		for i := 1; i < len(p.Times); i++ {
			if p.Times[i] < p.Times[i-1] {
				return fmt.Errorf("sim: checkpoint series regresses at point %d", i)
			}
		}
	}
	return nil
}
