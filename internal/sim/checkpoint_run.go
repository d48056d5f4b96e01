package sim

import (
	"errors"
	"fmt"
	"time"
)

// CheckpointSink receives encoded checkpoint payloads. Implementations
// (simstate.Dir) make the write durable — temp file, fsync, atomic
// rename — and return the generation number assigned to it.
type CheckpointSink interface {
	Save(payload []byte) (gen uint64, err error)
}

// ErrStopRequested is returned by RunCheckpointed/ResumeCheckpointed
// when CheckpointOptions.Stop asked the run to halt: a final checkpoint
// has been written (when a sink is configured) and the run can be
// resumed from it later.
var ErrStopRequested = errors.New("sim: run stopped by request")

// CheckpointStats accumulates checkpoint telemetry over one run.
type CheckpointStats struct {
	// Writes counts checkpoints written (periodic cuts plus the final
	// one).
	Writes uint64
	// Bytes is the size of the last payload written.
	Bytes int
	// LastAt is the virtual time of the last write.
	LastAt time.Duration
	// LastGen is the generation the sink assigned to the last write.
	LastGen uint64
	// MaxGap is the largest virtual-time distance between consecutive
	// writes (checkpoint age at its worst).
	MaxGap time.Duration
}

// CheckpointOptions configures a checkpointed run.
type CheckpointOptions struct {
	// Sink receives encoded checkpoints; nil disables checkpoint writes
	// (the run still uses the step-driven loop, honoring Stop).
	Sink CheckpointSink
	// Interval is the virtual-time spacing of periodic checkpoint cuts;
	// required > 0 when Sink is set. Cuts land on the event boundary
	// just before each interval multiple, so the stored clock is always
	// a fired event's timestamp.
	Interval time.Duration
	// Stop is polled between events; returning true halts the run after
	// a final checkpoint with ErrStopRequested. Wire a SIGTERM flag
	// here. Nil means never.
	Stop func() bool
	// OnWrite, when non-nil, observes every checkpoint written: the
	// encoded payload, the sink's generation and the cut's virtual time.
	// The payload slice is reused across writes — copy it to retain it.
	OnWrite func(payload []byte, gen uint64, at time.Duration)
	// Stats, when non-nil, accumulates checkpoint telemetry.
	Stats *CheckpointStats
}

func (o *CheckpointOptions) validate() error {
	if o.Sink != nil && o.Interval <= 0 {
		return fmt.Errorf("sim: checkpoint sink requires a positive interval (got %v)", o.Interval)
	}
	if o.Sink == nil && o.Interval < 0 {
		return fmt.Errorf("sim: negative checkpoint interval %v", o.Interval)
	}
	return nil
}

// RunCheckpointed is RunInto with periodic durable checkpoints: the
// simulation runs event by event, and at every Interval of virtual time
// the complete state is encoded and handed to the sink. The trajectory
// is byte-identical to RunInto — checkpointing observes state between
// events and never touches the RNG or the event queue.
func RunCheckpointed(cfg Config, scratch *Scratch, res *Result, opts CheckpointOptions) error {
	if err := opts.validate(); err != nil {
		return err
	}
	if err := checkpointableConfig(&cfg); err != nil {
		return err
	}
	e, background, err := setupRun(cfg, scratch, res)
	if err != nil {
		return err
	}
	return e.runCheckpointLoop(background, &opts)
}

// ResumeCheckpointed rebuilds the run at ck's cut and completes it with
// periodic checkpointing, exactly like RunCheckpointed from that point.
func ResumeCheckpointed(cfg Config, scratch *Scratch, res *Result, ck *Checkpoint, opts CheckpointOptions) error {
	if err := opts.validate(); err != nil {
		return err
	}
	e, err := setupResume(cfg, scratch, res, ck)
	if err != nil {
		return err
	}
	return e.runCheckpointLoop(nil, &opts)
}

// writeCheckpoint audits, snapshots, encodes and persists one
// checkpoint, reusing ck and buf across calls.
func (e *engine) writeCheckpoint(ck *Checkpoint, buf []byte, opts *CheckpointOptions) ([]byte, error) {
	if ic := e.cfg.Invariants; ic != nil {
		ic.checkCut(e)
	}
	if err := e.snapshot(ck); err != nil {
		return buf, err
	}
	buf = appendEncodeCheckpoint(buf[:0], ck)
	gen, err := opts.Sink.Save(buf)
	if err != nil {
		return buf, fmt.Errorf("sim: checkpoint write at %v: %w", e.sim.Now(), err)
	}
	if st := opts.Stats; st != nil {
		if gap := e.sim.Now() - st.LastAt; st.Writes > 0 && gap > st.MaxGap {
			st.MaxGap = gap
		}
		st.Writes++
		st.Bytes = len(buf)
		st.LastAt = e.sim.Now()
		st.LastGen = gen
	}
	if opts.OnWrite != nil {
		opts.OnWrite(buf, gen, e.sim.Now())
	}
	return buf, nil
}

// runCheckpointLoop is the step-driven event loop shared by
// RunCheckpointed and ResumeCheckpointed. It mirrors Run/RunUntil
// exactly — clear the stop latch on entry, fire events in (time, seq)
// order, honor in-handler Stop, and bump the clock to the horizon at
// the end — with checkpoint cuts slotted between events.
//
// The final checkpoint is written BEFORE the horizon clock bump: its
// stored clock is the last fired event's timestamp, so every pending
// event (including sub-horizon ones in a MaxInfected-truncated run)
// satisfies the restore path's at >= now admission check.
func (e *engine) runCheckpointLoop(background *backgroundDriver, opts *CheckpointOptions) error {
	horizon := e.cfg.Horizon
	var (
		ck      *Checkpoint
		buf     []byte
		nextCut time.Duration
		err     error
	)
	if opts.Sink != nil {
		ck = &Checkpoint{}
		nextCut = (e.sim.Now()/opts.Interval + 1) * opts.Interval
	}
	stopReq := false
	e.sim.ClearStop()
	// A truncated checkpoint (or a seeding phase that already tripped
	// MaxInfected) fires no further events; fall through to the final
	// checkpoint and horizon bump, same as Run/RunUntil after Stop.
	if !e.res.Truncated {
		for {
			if opts.Stop != nil && opts.Stop() {
				stopReq = true
				break
			}
			at, ok := e.sim.NextEventAt()
			if !ok || (horizon > 0 && at > horizon) {
				break
			}
			if ck != nil && at >= nextCut {
				if buf, err = e.writeCheckpoint(ck, buf, opts); err != nil {
					e.res = nil
					return err
				}
				// Skip empty intervals so a sparse tail writes one cut
				// per event at most, not one per elapsed interval.
				nextCut = (at/opts.Interval + 1) * opts.Interval
				continue
			}
			e.sim.Step()
			if e.sim.Stopped() {
				break
			}
		}
	}
	if ck != nil {
		if buf, err = e.writeCheckpoint(ck, buf, opts); err != nil {
			e.res = nil
			return err
		}
	}
	_ = buf
	if stopReq {
		// Interrupted: leave the clock at the last fired event (the
		// final checkpoint's cut) and report the partial observables.
		e.res.EndTime = e.sim.Now()
		e.res.Extinct = e.state.active == 0
		e.res = nil
		return ErrStopRequested
	}
	if horizon > 0 {
		e.sim.AdvanceTo(horizon)
	}
	return e.finishRun(background)
}
