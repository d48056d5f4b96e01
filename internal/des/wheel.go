package des

import "math/bits"

// Hierarchical timing wheel backend (DESIGN.md §14).
//
// Virtual time is quantized into power-of-two ticks (Config.WheelTick).
// The wheel is 4 levels of 4096 slots: level L, slot s covers ticks
// whose 12-bit group L equals s, giving 48 bits of tick horizon (~52
// years at the 16µs default tick) before the overflow heap takes over.
// Wide levels are deliberate: with deep pending sets (10M+ events) the
// dominant cost is cold cache lines, and every cascade hop re-touches
// an event. An event descends one level per hop, so the hops it takes
// are the level it is filed at, and that is set by how many ticks out
// it is: under 4096 none, under 16.7M (level 1) one, and so on. At the
// default tick a delay up to 67 ms never cascades and one up to 4.6 min
// cascades once. The sim engine derives a finer tick from V and the
// scan rate (2 ns at V=10M, 10 scans/s: level 1 ends at 33 ms), which
// files most scan events at level 2 and re-files them twice — the
// V=10M benchmark run (BenchmarkSimRun10M) counts 6.80M re-filings for
// 3.74M executed events, 1.82 each (des_wheel_cascades_total over
// des_events_executed_total). 6-bit levels would double the hops at
// either tick.
//
// Buckets are chunked arrays of the kernel's (at, seq, fn, arg)
// records, not intrusive node lists. The distinction is what the memory
// system sees: draining a linked list is one dependent cache-miss load
// per event — each next pointer lives in the node it points from, so
// the misses serialize — while draining a record array is a sequential
// stream the hardware prefetcher pipelines. The record is the whole
// event, so a cascade re-files it and a fire runs it without touching
// any other memory. Chunks come from a per-simulator free list, so the
// steady state allocates nothing.
//
// Placement is the XOR variant: a pending tick T with current tick cur
// lives at level (bits.Len64(T^cur)-1)/12 — the level of the highest
// 12-bit group where T differs from cur — in the slot given by T's
// group at that level. Events in level 0 share cur's tick-range prefix
// above the bottom group, so draining a level-0 slot yields exactly the
// events of one tick. Draining a higher-level slot advances cur to the
// start of that slot's window and re-places its records at strictly
// lower levels (cascade). Occupancy is a two-tier bitmap per level —
// one word per 64 slots plus a 64-bit summary — so finding the next
// nonempty slot is two trailing-zero scans; placement and advance stay
// O(1).
//
// Determinism: ticks quantize time, so one bucket can hold events with
// different timestamps and arbitrary insertion order (records append
// to the bucket's newest chunk). Order is restored at the boundary:
// drained level-0 buckets feed a small (at, seq) min-heap of "due"
// records, and pop always prefers the due heap. The invariants that
// make this exact:
//
//   - every wheel/overflow event has tick > cur, hence at >= (cur+1)
//     << shift, while every due event has tick <= cur, hence
//     at < (cur+1) << shift; so due events never sort after wheel
//     events (inserts with tick <= cur go straight to due, and seq
//     order within a tick is restored by the heap);
//   - the advance scan takes the lowest nonempty level's lowest slot,
//     which is the minimal pending tick (for ticks >= cur, the XOR
//     level is monotone in the tick, so lower levels always hold
//     nearer events);
//   - overflow events are re-placed whenever cur's top-level window
//     changes, which only happens in the overflow branch itself (wheel
//     events always share cur's top window), so the overflow heap's
//     minimum is never nearer than any wheel event.
//
// The result is a pop sequence strictly ordered by (at, seq) — byte
// identical to the reference heap.

const (
	wheelLevelBits = 12
	wheelSlots     = 1 << wheelLevelBits
	wheelSlotMask  = wheelSlots - 1
	wheelLevels    = 4
	wheelBitWords  = wheelSlots / 64
	// wheelChunkCap sizes a bucket chunk: 50 32-byte records keep a
	// chunk at ~1.6KB — big enough that drains stream long runs, small
	// enough that a mostly-empty bucket wastes little.
	wheelChunkCap = 50
)

// wheelChunk is one segment of a bucket: a fixed record array plus the
// link to the bucket's older chunks. It carries no fill count: only a
// bucket's head chunk is ever partly filled, and that count lives in
// the bucket's wheelSlot; every chunk behind the head is full. Chunks
// recycle through the wheel's free list (threaded through the same next
// field).
type wheelChunk struct {
	next *wheelChunk
	evs  [wheelChunkCap]entry
}

// wheelSlot is one bucket head: the newest chunk and how many records
// it holds (1..wheelChunkCap; 0 only with head == nil). Keeping the
// cursor here instead of in the chunk means filing a record reads the
// slot array — 256 KB for all four levels, cache-resident under load —
// and writes one line of the chunk, never the chunk's header; with
// millions of events pending the chunks themselves are cold.
type wheelSlot struct {
	head *wheelChunk
	n    int32
}

// wheelState is the per-Simulator wheel storage: a flat bucket-head
// array (lazily allocated by Configure, so heap-backend simulators pay
// nothing), the two-tier occupancy bitmaps, two small record heaps,
// and the chunk free list.
type wheelState struct {
	cur     uint64 // current tick (absolute, at >> tickShift)
	summary [wheelLevels]uint64
	bitmap  [wheelLevels][wheelBitWords]uint64
	// slots holds the bucket heads, level-major:
	// slots[level*wheelSlots+slot].
	slots      []wheelSlot
	due        entryHeap // events with tick <= cur, ordered (at, seq)
	overflow   entryHeap // events beyond the 48-bit tick horizon
	count      int       // total queued events (due + slots + overflow)
	freeChunks *wheelChunk
}

// log2floor returns floor(log2(v)) for v >= 1 (0 for v == 0).
func log2floor(v uint64) uint {
	if v == 0 {
		return 0
	}
	return uint(bits.Len64(v) - 1)
}

// chunkAlloc hands out a bucket chunk, reusing a recycled one when
// available.
func (s *Simulator) chunkAlloc() *wheelChunk {
	w := &s.wheel
	if c := w.freeChunks; c != nil {
		w.freeChunks = c.next
		c.next = nil
		return c
	}
	return new(wheelChunk)
}

// chunkFree recycles a drained chunk. Its records are left in place —
// they only reference the handful of handlers the simulation binds
// once — and are overwritten on reuse.
func (s *Simulator) chunkFree(c *wheelChunk) {
	w := &s.wheel
	c.next = w.freeChunks
	w.freeChunks = c
}

// wheelPlace files a record by its tick distance from cur: due heap
// for the present, a wheel bucket inside the horizon, overflow heap
// beyond it. Count-neutral, so the advance cascade reuses it.
func (s *Simulator) wheelPlace(e entry) {
	w := &s.wheel
	tick := uint64(e.at) >> s.tickShift
	if tick <= w.cur {
		w.due.push(e)
		return
	}
	level := (bits.Len64(tick^w.cur) - 1) / wheelLevelBits
	if level >= wheelLevels {
		w.overflow.push(e)
		return
	}
	slot := (tick >> (uint(level) * wheelLevelBits)) & wheelSlotMask
	idx := level*wheelSlots + int(slot)
	sl := &w.slots[idx]
	if sl.head == nil || sl.n == wheelChunkCap {
		nc := s.chunkAlloc()
		nc.next = sl.head
		sl.head, sl.n = nc, 0
	}
	sl.head.evs[sl.n] = e
	sl.n++
	w.bitmap[level][slot>>6] |= 1 << (slot & 63)
	w.summary[level] |= 1 << (slot >> 6)
}

// wheelAdvance jumps cur to the nearest pending tick window and drains
// that bucket toward the due heap (possibly via lower levels). It
// reports whether anything is still pending; after it returns true the
// caller re-checks the due heap, which fills within a bounded number of
// advances (each drained event drops to a strictly lower level).
func (s *Simulator) wheelAdvance() bool {
	w := &s.wheel
	if w.count == len(w.due) {
		// Nothing outside the due heap.
		return w.count > 0
	}
	for level := 0; level < wheelLevels; level++ {
		sm := w.summary[level]
		if sm == 0 {
			continue
		}
		word := uint64(bits.TrailingZeros64(sm))
		bw := w.bitmap[level][word]
		slot := word<<6 + uint64(bits.TrailingZeros64(bw))
		shift := uint(level) * wheelLevelBits
		// Jump to the start of the slot's window: keep cur's groups
		// above this level, set this level's group to slot, zero the
		// groups below. Slots always hold future ticks, so this moves
		// cur forward.
		w.cur = w.cur&^(uint64(1)<<(shift+wheelLevelBits)-1) | slot<<shift
		idx := level*wheelSlots + int(slot)
		sl := w.slots[idx]
		w.slots[idx] = wheelSlot{}
		if bw &^= 1 << (slot & 63); bw == 0 {
			w.summary[level] &^= 1 << word
		}
		w.bitmap[level][word] = bw
		// Each chunk is freed only after its records are re-filed:
		// chunkAlloc inside wheelPlace must never hand back storage a
		// drain is still reading.
		if level == 0 {
			// A level-0 bucket holds exactly one tick, now == cur:
			// everything in it is due.
			for c, n := sl.head, sl.n; c != nil; n = wheelChunkCap {
				for i := int32(0); i < n; i++ {
					w.due.push(c.evs[i])
				}
				next := c.next
				s.chunkFree(c)
				c = next
			}
		} else {
			var refiled uint64
			for c, n := sl.head, sl.n; c != nil; n = wheelChunkCap {
				for i := int32(0); i < n; i++ {
					s.wheelPlace(c.evs[i]) // a strictly lower level (or due)
				}
				refiled += uint64(n)
				next := c.next
				s.chunkFree(c)
				c = next
			}
			if m := s.metrics; m != nil {
				m.cascades.Add(refiled)
			}
		}
		return true
	}
	// Wheel arrays empty: everything pending lives past the 48-bit
	// horizon. Jump to the earliest overflow tick, then pull every
	// overflow event the new top-level window can now cover. Popping in
	// (at, seq) order is exhaustive here because placeability is
	// monotone in the tick.
	w.cur = uint64(w.overflow[0].at) >> s.tickShift
	for len(w.overflow) > 0 {
		e := w.overflow[0]
		tick := uint64(e.at) >> s.tickShift
		if tick > w.cur && (bits.Len64(tick^w.cur)-1)/wheelLevelBits >= wheelLevels {
			break
		}
		s.wheelPlace(w.overflow.pop())
	}
	return true
}

// wheelReset returns every occupied bucket's chunks to the chunk pool
// and rewinds the clock window, keeping capacities for reuse.
func (s *Simulator) wheelReset() {
	w := &s.wheel
	if w.count > 0 {
		for level := 0; level < wheelLevels; level++ {
			for w.summary[level] != 0 {
				word := bits.TrailingZeros64(w.summary[level])
				bw := w.bitmap[level][word]
				for bw != 0 {
					slot := uint64(word)<<6 + uint64(bits.TrailingZeros64(bw))
					bw &= bw - 1
					idx := level*wheelSlots + int(slot)
					for c := w.slots[idx].head; c != nil; {
						next := c.next
						s.chunkFree(c)
						c = next
					}
					w.slots[idx] = wheelSlot{}
				}
				w.bitmap[level][word] = 0
				w.summary[level] &^= 1 << word
			}
		}
	}
	w.due = w.due[:0]
	w.overflow = w.overflow[:0]
	w.count = 0
	w.cur = 0
}
