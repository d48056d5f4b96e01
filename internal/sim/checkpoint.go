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
// A checkpoint has three parts. The scenario pins the configuration the
// state belongs to (restores against a different configuration are
// rejected; see matches). The dynamic state carries the clock, the RNG
// position, the population's exact addresses, the packed epidemiology
// bitsets, the in-flight delayed deliveries and the pending-event set.
// The result part carries the Result accumulated so far, including the
// raw sample-path points, so the continued run's Result is
// byte-identical to an uninterrupted one.
type Checkpoint struct {
	// scenario holds the value of each checkpointable entry of the
	// scenario table, in table order.
	scenario []string

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

// scenarioEntry is one Config field of the scenario table.
type scenarioEntry struct {
	field string
	// value renders the field of a validated Config canonically. Nil
	// marks a field whose state a checkpoint does not capture: a
	// configuration that sets it cannot be checkpointed.
	value func(c *Config) string
}

// scenario is the table of the Config fields a checkpoint belongs to.
// The codec writes and reads the checkpointable entries in this order,
// and matches names the first that differs. Every other Config field is
// run control, which a resume may change: a longer Horizon, another
// Kernel, a Metrics registry.
var scenario = [...]scenarioEntry{
	{"V", func(c *Config) string { return fmt.Sprint(c.V) }},
	{"I0", func(c *Config) string { return fmt.Sprint(c.I0) }},
	{"ScanRate", func(c *Config) string { return fmt.Sprint(c.ScanRate) }},
	{"Seed", func(c *Config) string { return fmt.Sprint(c.Seed) }},
	{"Stream", func(c *Config) string { return fmt.Sprint(c.Stream) }},
	{"PatchRate", func(c *Config) string { return fmt.Sprint(c.PatchRate) }},
	{"ImmunizeRate", func(c *Config) string { return fmt.Sprint(c.ImmunizeRate) }},
	{"EdgeScanRate", func(c *Config) string { return fmt.Sprint(c.EdgeScanRate) }},
	{"Topology", func(c *Config) string {
		if c.Topology == nil {
			return "<nil>"
		}
		return fmt.Sprintf("%016x", c.Topology.Fingerprint())
	}},
	{"Defense", func(c *Config) string { return c.Defense.Name() }},
	// The scanner sets the density p = V/(scanned space) behind the
	// threshold λ = M·p.
	{"Scanner", func(c *Config) string { return c.Scanner.Name() }},
	{"ClusterPrefix", func(c *Config) string { return fmt.Sprint(c.ClusterPrefix) }},
	{"DutyCycle", func(c *Config) string { return fmt.Sprint(c.DutyCycle) }},
	{"RecordPaths", func(c *Config) string { return fmt.Sprint(c.RecordPaths) }},
	{"RecordTree", func(c *Config) string { return fmt.Sprint(c.RecordTree) }},
	// Background traffic draws from its own RNG stream and keeps
	// per-host destination pools that a checkpoint does not record.
	{"Background", nil},
}

// scenarioOf appends the checkpointable entries' values for a validated
// configuration to dst.
func scenarioOf(cfg *Config, dst []string) []string {
	for _, e := range scenario {
		if e.value != nil {
			dst = append(dst, e.value(cfg))
		}
	}
	return dst
}

// matches verifies the checkpoint's scenario against cfg and names the
// first entry that differs; a mismatch means the checkpoint belongs to a
// different experiment and resuming it would silently produce the wrong
// trajectory.
func (ck *Checkpoint) matches(cfg *Config) error {
	i := 0
	for _, e := range scenario {
		if e.value == nil {
			continue
		}
		if i == len(ck.scenario) {
			return fmt.Errorf("sim: checkpoint has no %s", e.field)
		}
		if got, want := ck.scenario[i], e.value(cfg); got != want {
			return fmt.Errorf("sim: checkpoint %s %q does not match configuration %q", e.field, got, want)
		}
		i++
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

// checkpointableConfig rejects configurations that set a field of the
// scenario table's not-checkpointable class.
func checkpointableConfig(cfg *Config) error {
	fields := reflect.ValueOf(cfg).Elem()
	for _, e := range scenario {
		if e.value == nil && !fields.FieldByName(e.field).IsZero() {
			return fmt.Errorf("sim: checkpointing does not support %s", e.field)
		}
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

	ck.scenario = scenarioOf(cfg, ck.scenario[:0])

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
// configuration against the checkpoint's scenario and the
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
	if err := validateCheckpointState(ck, &cfg); err != nil {
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
		if hi > e.cfg.V {
			hi = e.cfg.V
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
// consistency against the configuration it matched (the codec checks
// structure; this checks semantics that need the whole value).
func validateCheckpointState(ck *Checkpoint, cfg *Config) error {
	v := cfg.V
	words := (v + 63) >> 6
	if len(ck.Addrs) != v {
		return fmt.Errorf("sim: checkpoint has %d addresses for V=%d", len(ck.Addrs), v)
	}
	if len(ck.Infected) != words || len(ck.Removed) != words {
		return fmt.Errorf("sim: checkpoint bitset words %d/%d, want %d",
			len(ck.Infected), len(ck.Removed), words)
	}
	if tail := v & 63; tail != 0 && words > 0 {
		mask := ^uint64(0) << tail
		if ck.Infected[words-1]&mask != 0 || ck.Removed[words-1]&mask != 0 {
			return fmt.Errorf("sim: checkpoint bitset has bits beyond host %d", v-1)
		}
	}
	if len(ck.Gen) != v {
		return fmt.Errorf("sim: checkpoint has %d generation entries for V=%d", len(ck.Gen), v)
	}
	if cfg.DutyCycle != nil {
		if len(ck.InfectedAt) != v {
			return fmt.Errorf("sim: duty-cycle checkpoint has %d infection instants for V=%d",
				len(ck.InfectedAt), v)
		}
	} else if len(ck.InfectedAt) != 0 {
		return fmt.Errorf("sim: checkpoint has infection instants without a duty cycle")
	}
	if ck.Now < 0 {
		return fmt.Errorf("sim: checkpoint clock %v is negative", ck.Now)
	}
	if ck.TotalInfected < cfg.I0 || ck.TotalInfected > v {
		return fmt.Errorf("sim: checkpoint TotalInfected %d outside [I0=%d, V=%d]",
			ck.TotalInfected, cfg.I0, v)
	}
	if ck.TotalRemoved < 0 || ck.TotalRemoved > ck.TotalInfected {
		return fmt.Errorf("sim: checkpoint TotalRemoved %d outside [0, TotalInfected=%d]",
			ck.TotalRemoved, ck.TotalInfected)
	}
	if ck.Immunized < 0 || ck.TotalInfected+ck.Immunized > v {
		return fmt.Errorf("sim: checkpoint Immunized %d inconsistent with TotalInfected %d, V %d",
			ck.Immunized, ck.TotalInfected, v)
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
		if d.Parent < 0 || int(d.Parent) >= v {
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
			if ev.Arg < 0 || int(ev.Arg) >= v {
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
