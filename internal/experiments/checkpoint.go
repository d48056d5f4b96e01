package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"wormcontain/internal/crashsafe"
	"wormcontain/internal/faultfs"
	"wormcontain/internal/sim"
)

// The Monte-Carlo progress journal holds one header record binding the
// journal to its configuration, then one total record per completed
// replication, consecutive from replication 0. The requested
// replication count is deliberately absent from the header: a rerun
// with more runs resumes from the journaled prefix, one with fewer
// uses the prefix it needs — the per-replication RNG streams make both
// exact.
const (
	mcRecHeader byte = 'H' // [kind][u16 len id][id][u64 V][u64 SpaceSize bits][u64 M][u64 I0][u64 Seed]
	mcRecTotal  byte = 'T' // [kind][u32 r][u64 total]
)

// mcJournalName is the per-artifact progress file inside CheckpointDir.
func mcJournalName(id string) string { return "mc-" + id + ".journal" }

// mcHeader encodes the configuration identity record.
func mcHeader(id string, cfg sim.FastConfig) []byte {
	b := make([]byte, 0, 3+len(id)+40)
	b = append(b, mcRecHeader)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(id)))
	b = append(b, id...)
	b = binary.LittleEndian.AppendUint64(b, uint64(cfg.V))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cfg.SpaceSize))
	b = binary.LittleEndian.AppendUint64(b, uint64(cfg.M))
	b = binary.LittleEndian.AppendUint64(b, uint64(cfg.I0))
	b = binary.LittleEndian.AppendUint64(b, cfg.Seed)
	return b
}

// mcTotal encodes one replication outcome record.
func mcTotal(r, total int) []byte {
	var b [13]byte
	b[0] = mcRecTotal
	binary.LittleEndian.PutUint32(b[1:5], uint32(r))
	binary.LittleEndian.PutUint64(b[5:13], uint64(total))
	return b[:]
}

// mcReplayTotals validates a replayed journal against the expected
// header and returns the journaled totals of replications 0..k-1. Any
// structural mismatch — wrong header, gap in the replication sequence,
// out-of-range total — returns ok=false, which resets the journal: a
// stale or foreign journal must never silently contaminate a result.
func mcReplayTotals(records [][]byte, header []byte, cfg sim.FastConfig) (totals []int, ok bool) {
	if len(records) == 0 || !bytes.Equal(records[0], header) {
		return nil, false
	}
	for i, rec := range records[1:] {
		if len(rec) != 13 || rec[0] != mcRecTotal {
			return nil, false
		}
		if r := binary.LittleEndian.Uint32(rec[1:5]); r != uint32(i) {
			return nil, false
		}
		total := binary.LittleEndian.Uint64(rec[5:13])
		if total < uint64(cfg.I0) || total > uint64(cfg.V) {
			return nil, false
		}
		totals = append(totals, int(total))
	}
	return totals, true
}

// runMonteCarlo executes the replicated fast experiment for one
// artifact, with durable replication progress when
// Options.CheckpointDir is set: completed replications are journaled
// as they finish (in replication order, group-committed every
// Options.checkpointEvery), and a rerun resumes from the journal. The
// merged outcome is byte-identical to an uninterrupted run for every
// worker count and every interruption point — pinned by
// TestMonteCarloCheckpointResume.
func runMonteCarlo(id string, cfg sim.FastConfig, opts Options) (*sim.MonteCarlo, error) {
	if opts.CheckpointDir == "" {
		return sim.RunFastMonteCarloWorkers(cfg, opts.Runs, opts.Workers)
	}
	fsys, err := faultfs.NewOS(opts.CheckpointDir)
	if err != nil {
		return nil, fmt.Errorf("experiments: checkpoint dir: %w", err)
	}
	return runMonteCarloFS(fsys, id, cfg, opts)
}

// runMonteCarloFS is runMonteCarlo over an explicit filesystem (tests
// inject faultfs.Mem to exercise crash recovery deterministically).
func runMonteCarloFS(fsys faultfs.FS, id string, cfg sim.FastConfig, opts Options) (*sim.MonteCarlo, error) {
	j, records, err := crashsafe.OpenLog(fsys, mcJournalName(id))
	if err != nil {
		return nil, fmt.Errorf("experiments: open progress journal: %w", err)
	}
	header := mcHeader(id, cfg)
	prior, ok := mcReplayTotals(records, header, cfg)
	if !ok {
		// Fresh or foreign journal: restart from replication 0 under the
		// current configuration.
		if err := j.Reset(); err != nil {
			return nil, err
		}
		if err := j.Append(header); err != nil {
			return nil, err
		}
		if err := j.Sync(); err != nil {
			return nil, err
		}
		prior = nil
	}
	if len(prior) > opts.Runs {
		prior = prior[:opts.Runs]
	}
	sinceSync := 0
	mc, err := sim.RunFastMonteCarloResume(cfg, opts.Runs, opts.Workers, prior,
		func(r, total int) error {
			if err := j.Append(mcTotal(r, total)); err != nil {
				return err
			}
			if sinceSync++; sinceSync >= opts.checkpointEvery {
				sinceSync = 0
				return j.Sync()
			}
			return nil
		})
	if err != nil {
		_ = j.Close() // keep what synced; the run itself failed
		return nil, err
	}
	if err := j.Close(); err != nil {
		return nil, fmt.Errorf("experiments: close progress journal: %w", err)
	}
	return mc, nil
}
