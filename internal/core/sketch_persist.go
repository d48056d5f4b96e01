package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"wormcontain/internal/binio"
)

// Sketch snapshots are the sketch-backend half of the codec in
// persist.go: the same frame, plus the estimator's configuration and
// failure counters, and per host the raw register words — the
// hyper-compact estimator is a bit array, stored as bits. A host's
// cached set-bit counters are recomputed on restore rather than stored:
// they are derived state.

// sketchSectionLen is the sketch-only section's encoded size.
const sketchSectionLen = 4 + 4 + 8 + 8 + 8

// restoreSketchLimiter rebuilds a sketch limiter from a MarshalState
// snapshot. Anything but a canonical payload of a valid state is an
// error.
func restoreSketchLimiter(data []byte) (*SketchLimiter, error) {
	l := new(SketchLimiter)
	var failures, failureRemovals int
	err := l.restore(data, backendSketch, func(r *binio.Reader, lc LimiterConfig) (sketchTable, error) {
		cfg := SketchConfig{LimiterConfig: lc}
		cfg.Bits = int(r.U32("bits"))
		cfg.FailureBits = int(r.U32("failure bits"))
		cfg.FailureM = readInt(r, "failure M")
		failures = readInt(r, "failure total")
		failureRemovals = readInt(r, "failure removal total")
		if r.Err() != nil {
			return sketchTable{}, r.Err()
		}
		// Snapshots carry the widths NewSketchLimiter resolved; a zero
		// (auto-size) width here would restore to a state that marshals
		// differently.
		if cfg != cfg.normalize() {
			return sketchTable{}, r.Failf("sketch widths %d/%d are not the resolved form of FailureM=%d",
				cfg.Bits, cfg.FailureBits, cfg.FailureM)
		}
		if err := cfg.validate(); err != nil {
			return sketchTable{}, fmt.Errorf("core: sketch snapshot config: %w", err)
		}
		l.sketch = cfg
		return newSketchTable(cfg), nil
	})
	if err != nil {
		return nil, err
	}
	first := &l.stripes[0].hosts // the section's totals, split like the tallies
	first.failures, first.failureRemovals = failures, failureRemovals
	return l, nil
}

func (*sketchTable) backend() SnapshotBackend { return backendSketch }

func (t *sketchTable) appendSection(b []byte, st Stats) []byte {
	b = binio.AppendU32(b, t.bits)
	b = binio.AppendU32(b, t.failureBits)
	b = binio.AppendU64(b, uint64(t.failureM))
	b = binio.AppendU64(b, uint64(st.TotalFailures))
	return binio.AppendU64(b, uint64(st.FailureRemovals))
}

// copyOut copies every host's registers out, as the little-endian
// halves they encode to, into one arena for the table.
func (t *sketchTable) copyOut(c *hostsCopy) {
	arena := make([]uint32, 0, 2*int(t.stride)*t.live)
	for j := range t.slots {
		if h := &t.slots[j]; h.live() {
			off := len(arena)
			for _, w := range t.regs(h) {
				arena = append(arena, uint32(w), uint32(w>>32))
			}
			c.add(h.src, h.slotMarks, arena[off:])
		}
	}
}

func (*sketchTable) appendHost(b []byte, words []uint32, _ *[]uint32) []byte {
	for _, w := range words {
		b = binio.AppendU32(b, w)
	}
	return b
}

// presize makes room in an empty table for hosts hosts. Their register
// blocks are there already: checkHost made them.
func (t *sketchTable) presize(hosts int) { t.resize(hosts) }

// checkHost reads the registers of the stripe's host j and checks that
// neither sketch holds more set bits than its removal threshold. It
// copies them into register block j — the stripe's hosts are checked in
// order, so the blocks grow by one — and notes the two counts.
func (t *sketchTable) checkHost(r *binio.Reader, src uint32, j, _ int) (uint64, error) {
	raw := r.Bytes(8*int(t.stride), "host registers")
	if r.Err() != nil {
		return 0, r.Err()
	}
	if j%sketchSlabHosts == 0 {
		t.pool = append(t.pool, make([]uint64, sketchSlabHosts*int(t.stride)))
	}
	regs := t.block(uint32(j))
	var set, fset int
	for i := range regs {
		regs[i] = binary.LittleEndian.Uint64(raw[8*i:])
		if i < int(t.cwords) {
			set += bits.OnesCount64(regs[i])
		} else {
			fset += bits.OnesCount64(regs[i])
		}
	}
	if set > int(t.denyBits) || fset > int(t.failDenyBits) {
		return 0, r.Failf("host %d has %d/%d set bits past thresholds %d/%d",
			src, set, fset, t.denyBits, t.failDenyBits)
	}
	return uint64(set) | uint64(fset)<<16, nil
}

// fillHost tracks the stripe's host j, a checked one, with its marks,
// register block j and the counts checkHost noted.
func (t *sketchTable) fillHost(_ []byte, j int, src uint32, removed, flagged bool, note uint64) {
	h, _ := t.track(src)
	h.rec.reg = uint32(j)
	h.rec.set, h.rec.fset = uint16(note), uint16(note>>16)
	t.restoreMarks(&h.slotMarks, removed, flagged)
}
