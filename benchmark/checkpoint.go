package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"wormcontain/internal/des"
	"wormcontain/internal/sim"
	"wormcontain/internal/simstate"
)

// simKey is what two runs of one scenario must agree on.
type simKey struct {
	infected int
	scans    uint64
	end      time.Duration
	gens     string
}

func keyOf(r *sim.Result) simKey {
	return simKey{r.TotalInfected, r.TotalScans, r.EndTime, fmt.Sprint(r.Generations)}
}

// timedDir wraps simstate.Dir from outside: it is the sink and source
// the checkpoint cycle hands to sim, and it times Save and Load.
type timedDir struct {
	dir           *simstate.Dir
	b             *bench
	parent        int
	saveS, saveMB []float64
	loadS         []float64
}

func (d *timedDir) Save(payload []byte) (uint64, error) {
	id := d.b.tr.start(d.parent, "simstate.Dir.Save")
	t := time.Now()
	gen, err := d.dir.Save(payload)
	s := time.Since(t).Seconds()
	d.b.tr.end(id, "bytes", float64(len(payload)))
	d.saveS = append(d.saveS, s)
	d.saveMB = append(d.saveMB, float64(len(payload))/1e6/s)
	return gen, err
}

func (d *timedDir) Load() ([]byte, uint64, error) {
	id := d.b.tr.start(d.parent, "simstate.Dir.Load")
	t := time.Now()
	payload, gen, err := d.dir.Load()
	d.loadS = append(d.loadS, time.Since(t).Seconds())
	d.b.tr.end(id, "bytes", float64(len(payload)))
	return payload, gen, err
}

// ckptCycle is what one checkpoint cycle measured.
type ckptCycle struct {
	firstCutS   float64   // Stop-to-return of the cold cut
	bytes       float64   // last payload written
	writeMBps   []float64 // warm cuts: payload ÷ Stop-to-return
	restoreS    []float64 // Load + Decode + Resume up to its first Stop poll
	decodeS     []float64
	encodeS     []float64 // EncodeCheckpoint on the loaded payload (traced pass)
	resumeSetup []float64 // restore minus load and decode
	dir         *timedDir
	files       *ramFS // the generations the directory keeps
}

// checkpointCycle runs cfg on a simstate.Dir over a ramFS:
// RunCheckpointed halted by Stop, then `resumes` times
// {Load → DecodeCheckpoint → ResumeCheckpointed}, each halted again by
// Stop except the last, which runs to completion and must reproduce
// want. The first leg fires half of the run's events and the resumed
// legs share the other half evenly, so every cut carries a live
// pending set and the state the timed cuts and restores handle is
// between half grown and full grown: their samples are of one kind,
// not a ramp from an empty state. Between legs the previous leg's
// buffers are dropped and collected, as they are gone when each leg is
// its own process; the Scratch is deliberately kept dirty.
func (b *bench) checkpointCycle(name string, cfg sim.Config, sc *sim.Scratch, events uint64, resumes int, want simKey) ckptCycle {
	root := b.tr.start(0, name)
	defer b.tr.end(root)
	files := newRamFS()
	td := &timedDir{dir: simstate.Open(files), b: b, parent: root}
	cy := ckptCycle{dir: td, files: files}
	perLeg := events / 2

	var (
		polls     uint64
		stopAt    time.Time // instant Stop first returned true
		firstPoll time.Time
		halt      bool
	)
	stop := func() bool {
		if polls == 0 {
			firstPoll = time.Now()
		}
		polls++
		if halt && polls > perLeg {
			if stopAt.IsZero() {
				stopAt = time.Now()
			}
			return true
		}
		return false
	}
	var (
		res   sim.Result
		stats sim.CheckpointStats
	)
	opts := sim.CheckpointOptions{
		Sink: td, Stop: stop, Stats: &stats,
		Interval: des.MaxTime / 2, // no periodic cut: only the one Stop asks for
	}
	// cut accounts for a leg that Stop halted.
	cut := func(err error, cold bool) bool {
		if !b.op(expectStop(err)) {
			return false
		}
		s := time.Since(stopAt).Seconds()
		cy.bytes = float64(stats.Bytes)
		if cold {
			cy.firstCutS = s
		} else {
			cy.writeMBps = append(cy.writeMBps, cy.bytes/1e6/s)
		}
		return true
	}

	halt = true
	id := b.tr.start(root, "sim.RunCheckpointed")
	err := sim.RunCheckpointed(cfg, sc, &res, opts)
	b.tr.end(id, "bytes", float64(stats.Bytes))
	if !cut(err, true) {
		return cy
	}
	for k := 0; k < resumes; k++ {
		runtime.GC()
		polls, stopAt, halt = 0, time.Time{}, k < resumes-1
		perLeg = (events - events/2) / uint64(resumes)
		leg := b.tr.start(root, "restore")
		t0 := time.Now()
		payload, _, err := td.Load()
		if !b.op(err) {
			return cy
		}
		loadS := time.Since(t0).Seconds()
		id := b.tr.start(leg, "sim.DecodeCheckpoint")
		ck, err := sim.DecodeCheckpoint(payload)
		b.tr.end(id)
		if !b.op(err) {
			return cy
		}
		decodeS := time.Since(t0).Seconds() - loadS
		if b.tr != nil {
			cy.encodeS = append(cy.encodeS, seconds(func() { sim.EncodeCheckpoint(ck) }))
			t0 = t0.Add(time.Duration(cy.encodeS[len(cy.encodeS)-1] * float64(time.Second)))
		}
		payload = nil
		id = b.tr.start(leg, "sim.ResumeCheckpointed")
		err = sim.ResumeCheckpointed(cfg, sc, &res, ck, opts)
		b.tr.end(id)
		b.tr.end(leg)
		restore := firstPoll.Sub(t0).Seconds()
		cy.restoreS = append(cy.restoreS, restore)
		cy.decodeS = append(cy.decodeS, decodeS)
		cy.resumeSetup = append(cy.resumeSetup, restore-loadS-decodeS)
		if halt {
			if !cut(err, false) {
				return cy
			}
			continue
		}
		if b.op(err) {
			b.check(keyOf(&res) == want, "%s: resumed-to-completion result %+v differs from the plain run's %+v", name, keyOf(&res), want)
		}
	}
	return cy
}

// expectStop maps the outcome a halted leg must have to nil.
func expectStop(err error) error {
	if errors.Is(err, sim.ErrStopRequested) {
		return nil
	}
	if err == nil {
		return errors.New("run finished before Stop halted it")
	}
	return err
}
