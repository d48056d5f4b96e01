package sim

import (
	"errors"
	"fmt"
	"time"

	"wormcontain/internal/des"
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
	// (Stop is still honored).
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
// is byte-identical to RunInto — the two are one event loop, and
// checkpointing observes state between events, never touching the RNG
// or the event queue.
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
	return e.run(background, &opts)
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
	return e.run(nil, &opts)
}

// writeCheckpoint audits, snapshots, encodes and persists one
// checkpoint, reusing ck and buf across calls.
func (e *engine) writeCheckpoint(ck *Checkpoint, buf []byte, opts *CheckpointOptions) ([]byte, error) {
	if ic := e.cfg.invariants; ic != nil {
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
	return buf, nil
}

// run is the event loop of RunInto, RunCheckpointed and
// ResumeCheckpointed: des.RunUntil to the horizon, then the clock to
// the horizon and the result. A run that MaxInfected or the event
// budget has already truncated — in seeding, or at the cut it resumes
// from — fires nothing more. With zero options the loop takes no
// callback; otherwise, before each event, it cuts a checkpoint when the
// event is at or past the next Interval multiple, then polls Stop once.
//
// The final checkpoint is written BEFORE the horizon clock bump: its
// stored clock is the last fired event's timestamp, so every pending
// event (including sub-horizon ones in a MaxInfected-truncated run)
// satisfies the restore path's at >= now admission check.
func (e *engine) run(background *backgroundDriver, opts *CheckpointOptions) error {
	horizon := e.cfg.Horizon
	deadline := des.MaxTime
	if horizon > 0 {
		deadline = horizon
	}
	var (
		ck      *Checkpoint
		buf     []byte
		nextCut time.Duration
		err     error
		stopReq bool
		between func(next time.Duration) bool
	)
	if opts.Sink != nil {
		ck = &Checkpoint{}
		nextCut = (e.sim.Now()/opts.Interval + 1) * opts.Interval
	}
	if opts.Sink != nil || opts.Stop != nil {
		between = func(next time.Duration) bool {
			if ck != nil && next >= nextCut {
				if buf, err = e.writeCheckpoint(ck, buf, opts); err != nil {
					return false
				}
				// Skip empty intervals so a sparse tail writes one cut
				// per event at most, not one per elapsed interval.
				nextCut = (next/opts.Interval + 1) * opts.Interval
			}
			stopReq = opts.Stop != nil && opts.Stop()
			return !stopReq
		}
	}
	if !e.res.Truncated {
		e.sim.RunUntil(deadline, between)
	}
	if err == nil && ck != nil {
		_, err = e.writeCheckpoint(ck, buf, opts)
	}
	if err != nil {
		e.res = nil
		return err
	}
	if stopReq {
		// Interrupted: leave the clock at the last fired event (the
		// final checkpoint's cut) and report the partial observables.
		e.res.EndTime = e.sim.Now()
		e.res.Extinct = e.state.active == 0
		e.res = nil
		return ErrStopRequested
	}
	e.sim.AdvanceTo(horizon)
	return e.finishRun(background)
}
