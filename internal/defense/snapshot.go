package defense

import (
	"fmt"
	"math"
	"sort"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/binio"
	"wormcontain/internal/core"
	"wormcontain/internal/rng"
)

// Snapshotter is the optional Defense capability simulation checkpoints
// require: export the defense's complete mutable state as a canonical
// byte blob, and restore it into a freshly constructed instance of the
// same configuration. Canonical means deterministic — identical states
// serialize to identical bytes (maps are emitted in sorted key order) —
// so checkpoint payloads are content-comparable.
//
// The configuration itself (M, working-set size, detection probability,
// ...) is NOT part of the snapshot contract: the restorer constructs
// the defense from configuration first (the checkpoint's identity
// header pins it via Name()) and RestoreState then overlays the mutable
// counters.
type Snapshotter interface {
	// SnapshotState serializes the defense's mutable state.
	SnapshotState() ([]byte, error)
	// RestoreState overlays a state captured by SnapshotState on an
	// equally configured instance.
	RestoreState(data []byte) error
}

var (
	_ Snapshotter = Null{}
	_ Snapshotter = (*MLimit)(nil)
	_ Snapshotter = (*Throttle)(nil)
	_ Snapshotter = (*Quarantine)(nil)
)

// SnapshotState implements Snapshotter: the null defense has no state.
func (Null) SnapshotState() ([]byte, error) { return nil, nil }

// RestoreState implements Snapshotter.
func (Null) RestoreState(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("defense: null defense restore with %d bytes of state", len(data))
	}
	return nil
}

// SnapshotState implements Snapshotter by delegating to the limiter's
// deterministic state marshaling (the same format the durable WAL
// snapshots, so an M-limit checkpoint is exactly a limiter snapshot).
func (d *MLimit) SnapshotState() ([]byte, error) {
	return d.limiter.MarshalState()
}

// RestoreState implements Snapshotter. The snapshot carries the limiter
// configuration; it must match the receiver's, so a checkpoint cannot
// silently swap containment parameters mid-run.
func (d *MLimit) RestoreState(data []byte) error {
	lim, err := core.RestoreLimiter(data)
	if err != nil {
		return fmt.Errorf("defense: m-limit restore: %w", err)
	}
	if got, want := lim.Config(), d.limiter.Config(); got != want {
		return fmt.Errorf("defense: m-limit restore config %+v != configured %+v", got, want)
	}
	d.limiter = lim
	return nil
}

// The per-defense formats below are binio encodings (little-endian,
// count-prefixed), versioned with a leading byte so a future layout
// change fails loudly.

const (
	throttleSnapVersion   = 1
	quarantineSnapVersion = 1
)

// SnapshotState implements Snapshotter: per-host working sets and delay
// queues, emitted in ascending source-address order.
func (th *Throttle) SnapshotState() ([]byte, error) {
	srcs := make([]addr.IP, 0, len(th.perHost))
	for ip := range th.perHost {
		srcs = append(srcs, ip)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	b := binio.AppendU8(nil, throttleSnapVersion)
	b = binio.AppendU32(b, uint32(len(srcs)))
	for _, ip := range srcs {
		st := th.perHost[ip]
		b = binio.AppendU32(b, uint32(ip))
		b = binio.AppendU64(b, uint64(st.nextFree))
		b = binio.AppendU32(b, uint32(len(st.recent)))
		for _, d := range st.recent {
			b = binio.AppendU32(b, uint32(d))
		}
	}
	return b, nil
}

// RestoreState implements Snapshotter.
func (th *Throttle) RestoreState(data []byte) error {
	r := binio.NewReader(data, "defense: throttle snapshot")
	if v := r.U8("version"); r.Err() == nil && v != throttleSnapVersion {
		return r.Failf("version %d, want %d", v, throttleSnapVersion)
	}
	n := r.Count(16, "host count")
	perHost := make(map[addr.IP]*throttleState, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		ip := addr.IP(r.U32("host"))
		st := &throttleState{nextFree: time.Duration(r.U64("next free slot"))}
		k := r.Count(4, "working set")
		if k > th.workingSet {
			return r.Failf("working set %d exceeds configured %d", k, th.workingSet)
		}
		for j := 0; j < k; j++ {
			st.recent = append(st.recent, addr.IP(r.U32("working set")))
		}
		if _, dup := perHost[ip]; dup {
			return r.Failf("duplicates host %v", ip)
		}
		perHost[ip] = st
	}
	if err := r.Done(); err != nil {
		return err
	}
	th.perHost = perHost
	return nil
}

// SnapshotState implements Snapshotter: the quarantine windows, alarm
// count and the detector's RNG position. The randomness source must be
// an *rng.PCG64 (what NewQuarantine is given everywhere in this
// repository) — an opaque Source cannot be checkpointed.
func (q *Quarantine) SnapshotState() ([]byte, error) {
	src, ok := q.src.(*rng.PCG64)
	if !ok {
		return nil, fmt.Errorf("defense: quarantine source %T is not checkpointable (need *rng.PCG64)", q.src)
	}
	st := src.State()
	b := binio.AppendU8(nil, quarantineSnapVersion)
	b = binio.AppendU64(b, st.Hi)
	b = binio.AppendU64(b, st.Lo)
	b = binio.AppendU64(b, st.IncHi)
	b = binio.AppendU64(b, st.IncLo)
	b = binio.AppendU64(b, uint64(q.alarms))
	srcs := make([]addr.IP, 0, len(q.until))
	for ip := range q.until {
		srcs = append(srcs, ip)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	b = binio.AppendU32(b, uint32(len(srcs)))
	for _, ip := range srcs {
		b = binio.AppendU32(b, uint32(ip))
		b = binio.AppendU64(b, uint64(q.until[ip]))
	}
	return b, nil
}

// RestoreState implements Snapshotter.
func (q *Quarantine) RestoreState(data []byte) error {
	src, ok := q.src.(*rng.PCG64)
	if !ok {
		return fmt.Errorf("defense: quarantine source %T is not checkpointable (need *rng.PCG64)", q.src)
	}
	r := binio.NewReader(data, "defense: quarantine snapshot")
	if v := r.U8("version"); r.Err() == nil && v != quarantineSnapVersion {
		return r.Failf("version %d, want %d", v, quarantineSnapVersion)
	}
	st := rng.PCG64State{Hi: r.U64("rng hi"), Lo: r.U64("rng lo"), IncHi: r.U64("rng inc hi"), IncLo: r.U64("rng inc lo")}
	alarms := r.U64("alarm count")
	if alarms > math.MaxInt32 {
		return r.Failf("alarm count %d out of range", alarms)
	}
	n := r.Count(12, "host count")
	until := make(map[addr.IP]time.Duration, n)
	for i := 0; i < n; i++ {
		ip := addr.IP(r.U32("host"))
		t := time.Duration(r.U64("quarantine end"))
		if _, dup := until[ip]; dup {
			return r.Failf("duplicates host %v", ip)
		}
		until[ip] = t
	}
	if err := r.Done(); err != nil {
		return err
	}
	src.SetState(st)
	q.alarms = int(alarms)
	q.until = until
	return nil
}
