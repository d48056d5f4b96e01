package core

import "math/bits"

// inlineDsts is the number of destinations a host's slot holds beside
// its 12-byte header: (64 − 12) / 4. It is what fills the cache line,
// not a tuning knob. Legitimate hosts sit far below any sensible M (the
// paper's Fig. 6 LBL hosts mostly contact a handful of distinct
// destinations a month), so almost every host is decided from the one
// line its slot occupies.
const inlineDsts = 13

// hostSlot marks.
const (
	slotLive    uint8 = 1 << iota // the slot holds a host; an empty slot is one without this mark, whatever its src
	slotRemoved                   // hit M (or was alerted) and awaits heavy-duty check
	slotFlagged                   // crossed f·M this cycle
)

// hostSlot is one tracked host within the current containment cycle, and
// one cell of its stripe's open-addressing table: exactly one 64-byte
// cache line, and no pointers, so the collector never scans the table.
// The distinct-destination set lives in dsts[:n] until it outgrows the
// line, then moves to the stripe's spilled set number spill−1; exactly
// one of the two representations is active at a time.
type hostSlot struct {
	src   uint32
	marks uint8
	n     uint8  // inline destinations; meaningless once spilled
	spill uint32 // 1 + index into hostTable.spilled; 0 while inline
	dsts  [inlineDsts]uint32
}

func (h *hostSlot) live() bool    { return h.marks&slotLive != 0 }
func (h *hostSlot) removed() bool { return h.marks&slotRemoved != 0 }
func (h *hostSlot) flagged() bool { return h.marks&slotFlagged != 0 }

// hostTable is one stripe's per-host state for the current containment
// cycle: a linear-probing table of hostSlots that doubles past three
// quarters full, the spilled sets its slots refer to by index, and the
// counts Snapshot and the snapshot codec would otherwise walk the table
// for. The zero value is an empty table; a cycle roll assigns it.
//
// Three quarters, not half: a slot is a whole line, so an empty one
// costs what a host does, and a restart clears, fills and walks every
// slot it allocates — at the repository benchmark's 90 000 gate-conn
// hosts the half-full rule made that 16 MB where this makes 8, and
// durable.Open slower and twice as unsteady as with the maps this table
// replaced (CHANGES.md, PR 21). The price is a probe chain of 2.5 lines
// instead of 1.5 in a table about to double: 5–10 % of a decision on
// scattered sources.
//
// A *hostSlot is valid until the next call of slot, which may move the
// table.
type hostTable struct {
	slots []hostSlot // power-of-two length, nil until the first host
	shift uint8      // 32 − log2(len(slots))

	live    int // hosts
	dsts    int // destinations, all hosts together
	removed int // hosts marked removed
	flagged int // hosts marked flagged

	spilled []dstSet
	free    []uint32 // indices of spilled sets released by reset
}

const minHostSlots = 4

// hostSlotsFor is the table length that holds n hosts at most three
// quarters full — what growth by doubling arrives at, so a restored
// table is the size the live one was.
func hostSlotsFor(n int) int {
	c := minHostSlots
	for 3*c < 4*n {
		c <<= 1
	}
	return c
}

// newHostTable returns an empty table with room for hosts hosts, spilled
// of them spilled, so that a restore allocates each slice once.
func newHostTable(hosts, spilled int) hostTable {
	t := hostTable{spilled: make([]dstSet, 0, spilled)}
	t.resize(hosts)
	return t
}

// resize replaces the slots with empty ones sized for n hosts.
func (t *hostTable) resize(n int) {
	t.slots = make([]hostSlot, hostSlotsFor(n))
	t.shift = uint8(32 - bits.TrailingZeros(uint(len(t.slots))))
}

// probe returns src's slot if the table has it, and otherwise the empty
// slot its probe sequence ends at. The table must not be nil. The home
// index comes from the hash bits below the stripeBits that chose the
// stripe: the hosts of one stripe all agree on those.
func (t *hostTable) probe(src uint32) *hostSlot {
	mask := uint32(len(t.slots) - 1)
	for i := SourceHash(src) << stripeBits >> t.shift; ; i = (i + 1) & mask {
		if h := &t.slots[i]; !h.live() || h.src == src {
			return h
		}
	}
}

// find returns src's slot, or nil when the host is not tracked.
func (t *hostTable) find(src uint32) *hostSlot {
	if t.slots == nil {
		return nil
	}
	if h := t.probe(src); h.live() {
		return h
	}
	return nil
}

// slot returns src's slot, starting to track the host on first contact.
func (t *hostTable) slot(src uint32) *hostSlot {
	if 4*(t.live+1) > 3*len(t.slots) {
		if h := t.find(src); h != nil {
			return h
		}
		t.grow()
	}
	h := t.probe(src)
	if !h.live() {
		*h = hostSlot{src: src, marks: slotLive}
		t.live++
	}
	return h
}

// grow doubles the table (it is three quarters full) and moves every
// host to its new place.
func (t *hostTable) grow() {
	old := t.slots
	t.resize(t.live + 1)
	for i := range old {
		if old[i].live() {
			*t.probe(old[i].src) = old[i]
		}
	}
}

// seen reports whether dst is in the host's distinct set.
func (t *hostTable) seen(h *hostSlot, dst uint32) bool {
	if h.spill != 0 {
		return t.spilled[h.spill-1].has(dst)
	}
	for _, d := range h.dsts[:h.n] {
		if d == dst {
			return true
		}
	}
	return false
}

// add inserts a destination known to be absent from the host's set.
func (t *hostTable) add(h *hostSlot, dst uint32) {
	t.dsts++
	if h.spill == 0 {
		if h.n < inlineDsts {
			h.dsts[h.n] = dst
			h.n++
			return
		}
		t.spill(h, inlineDsts+1)
	}
	t.spilled[h.spill-1].add(dst)
}

// spill moves an inline host's destinations to a spilled set with room
// for n members.
func (t *hostTable) spill(h *hostSlot, n int) {
	set := newDstSet(n)
	for _, d := range h.dsts[:h.n] {
		set.add(d)
	}
	if k := len(t.free); k > 0 {
		h.spill = t.free[k-1] + 1
		t.free = t.free[:k-1]
		t.spilled[h.spill-1] = set
	} else {
		t.spilled = append(t.spilled, set)
		h.spill = uint32(len(t.spilled))
	}
}

// count returns the host's number of distinct destinations this cycle.
func (t *hostTable) count(h *hostSlot) int {
	if h.spill != 0 {
		return t.spilled[h.spill-1].n
	}
	return int(h.n)
}

// destinations appends the host's set to out, in no particular order.
func (t *hostTable) destinations(h *hostSlot, out []uint32) []uint32 {
	if h.spill != 0 {
		return t.spilled[h.spill-1].appendTo(out)
	}
	return append(out, h.dsts[:h.n]...)
}

// remove and flag set a mark the host does not have yet.
func (t *hostTable) remove(h *hostSlot) { h.marks |= slotRemoved; t.removed++ }
func (t *hostTable) flag(h *hostSlot)   { h.marks |= slotFlagged; t.flagged++ }

// reset empties the host's set and clears its removal and flag marks;
// the host stays tracked. A spilled set is released.
func (t *hostTable) reset(h *hostSlot) {
	t.dsts -= t.count(h)
	if h.removed() {
		t.removed--
	}
	if h.flagged() {
		t.flagged--
	}
	if h.spill != 0 {
		t.spilled[h.spill-1] = dstSet{}
		t.free = append(t.free, h.spill-1)
	}
	*h = hostSlot{src: h.src, marks: slotLive}
}

// dstSet is the distinct-destination set of a host that outgrew its
// slot: a flat linear-probing set of uint32 that doubles past three
// quarters full (sixteen keys share a cache line, so a chain mostly
// ends in the line it began in). A zero key is an empty cell, so
// destination 0 is kept as a mark of its own.
type dstSet struct {
	keys  []uint32 // power-of-two length
	shift uint8    // 32 − log2(len(keys))
	zero  bool     // destination 0 is a member
	n     int      // members, destination 0 included
}

// newDstSet returns an empty set that holds n members without growing.
func newDstSet(n int) dstSet {
	c := 1
	for 3*c < 4*n {
		c <<= 1
	}
	return dstSet{keys: make([]uint32, c), shift: uint8(32 - bits.TrailingZeros(uint(c)))}
}

// cell returns dst's cell if the set has it, and otherwise the empty
// cell its probe sequence ends at; dst is not 0.
func (s *dstSet) cell(dst uint32) *uint32 {
	mask := uint32(len(s.keys) - 1)
	for i := dst * 0x9e3779b9 >> s.shift; ; i = (i + 1) & mask {
		if k := &s.keys[i]; *k == 0 || *k == dst {
			return k
		}
	}
}

func (s *dstSet) has(dst uint32) bool {
	if dst == 0 {
		return s.zero
	}
	return *s.cell(dst) != 0
}

// add inserts a destination known to be absent.
func (s *dstSet) add(dst uint32) {
	s.n++
	if dst == 0 {
		s.zero = true
		return
	}
	if 4*s.n > 3*len(s.keys) {
		old := s.keys
		s.keys = make([]uint32, 2*len(old))
		s.shift--
		for _, k := range old {
			if k != 0 {
				*s.cell(k) = k
			}
		}
	}
	*s.cell(dst) = dst
}

// appendTo appends the members to out, in no particular order.
func (s *dstSet) appendTo(out []uint32) []uint32 {
	if s.zero {
		out = append(out, 0)
	}
	for _, k := range s.keys {
		if k != 0 {
			out = append(out, k)
		}
	}
	return out
}
