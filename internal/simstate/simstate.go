// Package simstate persists simulation checkpoints across process
// restarts. A Dir stores encoded sim checkpoints as numbered
// generations, each one CRC frame published atomically by
// internal/crashsafe; Load returns the newest generation that validates,
// so a crash at any write, sync or rename point — including the torn
// tails and bit flips faultfs injects — degrades at worst to the
// previous generation, never to an unrecoverable directory.
package simstate

import (
	"errors"
	"fmt"
	"sync"

	"wormcontain/internal/crashsafe"
	"wormcontain/internal/faultfs"
)

// Checkpoint files are ckpt-<generation>.ckpt.
var ckptSeries = crashsafe.Series{Prefix: "ckpt-", Suffix: ".ckpt"}

// keepGenerations is how many published generations Save retains: the
// new one plus one fallback, the same budget durable's snapshot GC
// uses.
const keepGenerations = 2

// ErrNoCheckpoint is returned by Load when the directory holds no
// valid checkpoint — empty, fresh, or every generation corrupt.
var ErrNoCheckpoint = errors.New("simstate: no valid checkpoint")

// Dir is a checkpoint directory: Save publishes each payload as a new
// generation, Load returns the newest valid one. It implements
// sim.CheckpointSink. Safe for concurrent use, though the checkpoint loop is single-writer by construction.
type Dir struct {
	mu sync.Mutex
	fs faultfs.FS
}

// Open returns a Dir over an existing filesystem (tests inject
// faultfs.Mem here).
func Open(fsys faultfs.FS) *Dir { return &Dir{fs: fsys} }

// OpenPath returns a Dir rooted at path on the real filesystem,
// creating the directory when missing.
func OpenPath(path string) (*Dir, error) {
	fsys, err := faultfs.NewOS(path)
	if err != nil {
		return nil, err
	}
	return Open(fsys), nil
}

// scan returns the published generations in ascending order.
func (d *Dir) scan() ([]uint64, error) {
	gens, _, err := crashsafe.ScanDir(d.fs, ckptSeries)
	if err != nil {
		return nil, err
	}
	return gens[0], nil
}

// Save implements sim.CheckpointSink: the payload is published as
// generation max+1 — a crash anywhere before the publish completes
// leaves the previous generation untouched. On success older
// generations beyond the keep budget are garbage-collected (best
// effort: GC failures only delay reclamation).
func (d *Dir) Save(payload []byte) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(payload) == 0 {
		return 0, fmt.Errorf("simstate: refusing to save an empty checkpoint")
	}
	gens, err := d.scan()
	if err != nil {
		return 0, err
	}
	gen := uint64(1)
	if len(gens) > 0 {
		gen = gens[len(gens)-1] + 1
	}
	if err := crashsafe.Publish(d.fs, ckptSeries.Name(gen), crashsafe.AppendFrame(nil, payload)); err != nil {
		return 0, err
	}
	// The new generation is durable; reclaim everything beyond the keep
	// budget plus temp files from interrupted earlier writes.
	crashsafe.Reclaim(d.fs, gen+1-keepGenerations, ckptSeries)
	return gen, nil
}

// Load returns the newest valid generation.
// Corrupt generations (torn tails published by a crash-prone kernel,
// flipped bits) are skipped for the next older one; they are never
// fatal and never deleted here — Load is strictly read-only, exactly
// like durable's recovery path.
func (d *Dir) Load() ([]byte, uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	gens, err := d.scan()
	if err != nil {
		return nil, 0, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		gen := gens[i]
		data, err := d.fs.ReadFile(ckptSeries.Name(gen))
		if err != nil {
			return nil, 0, fmt.Errorf("simstate: read %s: %w", ckptSeries.Name(gen), err)
		}
		payload, derr := crashsafe.DecodeFile(data)
		if derr != nil {
			continue // skip for an older generation
		}
		return payload, gen, nil
	}
	return nil, 0, ErrNoCheckpoint
}
