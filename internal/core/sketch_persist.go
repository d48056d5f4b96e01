package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"wormcontain/internal/binio"
)

// Sketch snapshots are the sketch-backend half of the codec in
// persist.go: same header, cycle, counter and alert sections, plus the
// estimator's configuration and failure counters, and per host the raw
// register words — the hyper-compact estimator is a bit array, stored
// as bits. A host's cached set-bit counters are recomputed on restore
// rather than stored: they are derived state.

// sketchSectionLen is the sketch-only section's encoded size.
const sketchSectionLen = 4 + 4 + 8 + 8 + 8

// MarshalState serializes the sketch limiter's complete state in the
// canonical binary form of persist.go: hosts sorted by source, raw
// register words, so identical states produce identical bytes — the
// property the durable crash suite's byte-equality invariant rests on.
func (l *SketchLimiter) MarshalState() ([]byte, error) { return l.CheckpointState(nil) }

// CheckpointState marshals like MarshalState and invokes cut under the
// limiter mutex, which it holds only to copy the state out; see
// (*Limiter).CheckpointState for the journal-cut contract.
func (l *SketchLimiter) CheckpointState(cut func()) ([]byte, error) {
	l.mu.Lock()
	c := snapshotCommon{
		cfg: l.cfg.LimiterConfig, epoch: l.epoch, cycleIndex: l.cycleIndex,
		observed: l.totalObserved, removals: l.totalRemovals, flags: l.totalFlags,
		denied: l.totalDenied, alertRemovals: l.alerts.removals,
	}
	failures, failureRemovals := l.totalFailures, l.failureRemovals
	// keys pack (src, slot) so that sorting plain integers orders the
	// hosts by source.
	keys := make([]uint64, 0, len(l.slots))
	for src, slot := range l.slots {
		keys = append(keys, uint64(src)<<32|uint64(slot))
	}
	meta := slices.Clone(l.meta[:l.used])
	words := make([]uint64, 0, int(l.used)*l.stride)
	for _, slab := range l.pool {
		words = append(words, slab[:min(len(slab), cap(words)-len(words))]...)
	}
	alerts := l.alerts.unsorted()
	if cut != nil {
		cut()
	}
	l.mu.Unlock()

	slices.Sort(keys)
	hostLen := hostHeaderLen + 8*l.stride
	b := make([]byte, 0, snapshotCommonLen+sketchSectionLen+hostLen*len(keys)+alertRecordLen*len(alerts))
	b = appendSnapshotCommon(b, SnapshotHeader{Backend: backendSketch, Hosts: len(keys), Alerts: len(alerts)}, c)
	b = binio.AppendU32(b, uint32(l.cfg.Bits))
	b = binio.AppendU32(b, uint32(l.cfg.FailureBits))
	b = binio.AppendU64(b, uint64(l.cfg.FailureM))
	b = binio.AppendU64(b, uint64(failures))
	b = binio.AppendU64(b, uint64(failureRemovals))
	for _, k := range keys {
		slot := int(uint32(k))
		b = binio.AppendU32(b, uint32(k>>32))
		b = binio.AppendBool(b, meta[slot].removed)
		b = binio.AppendBool(b, meta[slot].flagged)
		for _, w := range words[slot*l.stride : (slot+1)*l.stride] {
			b = binio.AppendU64(b, w)
		}
	}
	return appendAlerts(b, alerts), nil
}

// restoreSketchLimiter rebuilds a sketch limiter from a MarshalState
// snapshot. Anything but a canonical payload of a valid state is an
// error.
func restoreSketchLimiter(data []byte) (*SketchLimiter, error) {
	h, c, r, err := readSnapshotCommon(data, backendSketch)
	if err != nil {
		return nil, err
	}
	cfg := SketchConfig{LimiterConfig: c.cfg}
	cfg.Bits = int(r.U32("bits"))
	cfg.FailureBits = int(r.U32("failure bits"))
	cfg.FailureM = readInt(r, "failure M")
	failures := readInt(r, "failure total")
	failureRemovals := readInt(r, "failure removal total")
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Snapshots carry the widths NewSketchLimiter resolved; a zero
	// (auto-size) width here would restore to a state that marshals
	// differently.
	if cfg != cfg.normalize() {
		return nil, r.Failf("sketch widths %d/%d are not the resolved form of FailureM=%d",
			cfg.Bits, cfg.FailureBits, cfg.FailureM)
	}
	l, err := NewSketchLimiter(cfg, c.epoch)
	if err != nil {
		return nil, fmt.Errorf("core: sketch snapshot config: %w", err)
	}
	hostLen := hostHeaderLen + 8*l.stride
	if want := h.Hosts*hostLen + h.Alerts*alertRecordLen; r.Len() != want {
		return nil, r.Failf("has %d bytes where %d hosts of %d register words and %d alerts need %d",
			r.Len(), h.Hosts, l.stride, h.Alerts, want)
	}
	l.cycleIndex = c.cycleIndex
	l.totalObserved = c.observed
	l.totalRemovals = c.removals
	l.totalFlags = c.flags
	l.totalDenied = c.denied
	l.totalFailures = failures
	l.failureRemovals = failureRemovals

	l.slots = make(map[uint32]uint32, h.Hosts)
	l.meta = make([]sketchMeta, h.Hosts)
	for n := 0; n < h.Hosts; n += sketchSlabHosts {
		l.pool = append(l.pool, make([]uint64, sketchSlabHosts*l.stride))
	}
	l.used = uint32(h.Hosts)
	var prevSrc uint32
	for slot := uint32(0); slot < l.used; slot++ {
		src := r.U32("host src")
		if slot > 0 && src <= prevSrc {
			return nil, r.Failf("host %d is not after host %d (duplicate or unsorted)", src, prevSrc)
		}
		prevSrc = src
		m := &l.meta[slot]
		m.removed, m.flagged = r.Bool("host removed mark"), r.Bool("host flagged mark")
		if m.removed {
			l.removedHosts++
		}
		if m.flagged {
			l.flaggedHosts++
		}
		raw := r.Bytes(8*l.stride, "host registers")
		if r.Err() != nil {
			return nil, r.Err()
		}
		regs := l.regs(slot)
		var set, fset int
		for i := range regs {
			regs[i] = binary.LittleEndian.Uint64(raw[8*i:])
			if i < l.cwords {
				set += bits.OnesCount64(regs[i])
			} else {
				fset += bits.OnesCount64(regs[i])
			}
		}
		if set > l.denyBits || fset > l.failDenyBits {
			return nil, r.Failf("host %d has %d/%d set bits past thresholds %d/%d",
				src, set, fset, l.denyBits, l.failDenyBits)
		}
		m.set, m.fset = uint16(set), uint16(fset)
		l.slots[src] = slot
	}
	if err := readAlerts(r, h.Alerts, c.alertRemovals, &l.alerts); err != nil {
		return nil, err
	}
	return l, nil
}
