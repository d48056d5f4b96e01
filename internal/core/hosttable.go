package core

import "math/bits"

// inlineDsts is the number of destinations an exact host's slot holds
// beside its source, marks, count and spill index: (64 − 16) / 4. It is
// what fills the cache line, not a tuning knob. Legitimate hosts sit far
// below any sensible M (the paper's Fig. 6 LBL hosts mostly contact a
// handful of distinct destinations a month), so almost every host is
// decided from the one line its slot occupies.
const inlineDsts = 12

// slotMarks is a host slot's state bits, in both backends' tables.
type slotMarks uint8

const (
	slotLive    slotMarks = 1 << iota // the slot holds a host; an empty slot is one without this mark, whatever its src
	slotRemoved                       // hit M (or was alerted) and awaits heavy-duty check
	slotFlagged                       // crossed f·M this cycle
)

func (m slotMarks) live() bool    { return m&slotLive != 0 }
func (m slotMarks) removed() bool { return m&slotRemoved != 0 }
func (m slotMarks) flagged() bool { return m&slotFlagged != 0 }

// census is a host table's count of its hosts and of their removed and
// flagged marks, kept where the marks change so that Snapshot and the
// snapshot codec read no per-host state.
type census struct {
	live    int
	removed int
	flagged int
}

// remove and flag set a mark the host does not have yet.
func (c *census) remove(m *slotMarks) { *m |= slotRemoved; c.removed++ }
func (c *census) flag(m *slotMarks)   { *m |= slotFlagged; c.flagged++ }

// restoreMarks sets the marks a snapshot gives a host just tracked.
func (c *census) restoreMarks(m *slotMarks, removed, flagged bool) {
	if removed {
		c.remove(m)
	}
	if flagged {
		c.flag(m)
	}
}

// unmark clears a host's removed and flagged marks.
func (c *census) unmark(m *slotMarks) {
	if m.removed() {
		c.removed--
	}
	if m.flagged() {
		c.flagged--
	}
	*m = slotLive
}

func (c *census) addStats(st *Stats) {
	st.ActiveHosts += c.live
	st.RemovedHosts += c.removed
	st.FlaggedHosts += c.flagged
}

// slot is one tracked host in the current containment cycle, and one
// cell of its stripe's open-addressing table: the source, its marks and
// the backend's record of the host, R. A slot holds no pointers, so the
// collector never scans a table.
type slot[R any] struct {
	src uint32
	slotMarks
	rec R
}

// slotTable is one stripe's hosts: a linear-probing table of slots that
// doubles past three quarters full, and the census of their marks. Each
// backend's host table is one, over its own host record.
//
// Three quarters, not half: an exact slot is a whole line, so an empty
// one costs what a host does, and a restart clears, fills and walks
// every slot it allocates — at the repository benchmark's 90 000
// gate-conn hosts the half-full rule made that 16 MB where this makes
// 8, and durable.Open slower and twice as unsteady as with the maps this
// table replaced (CHANGES.md, PR 21). The price is a probe chain of 2.5
// lines instead of 1.5 in a table about to double: 5–10 % of a decision
// on scattered sources.
//
// A *slot is valid until the next call of track, which may move the
// table.
type slotTable[R any] struct {
	slots []slot[R] // power-of-two length, nil until the first host
	shift uint8     // 32 − log2(len(slots))
	census
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

// slotShift is a table's shift for a length of slots.
func slotShift(slots int) uint8 { return uint8(32 - bits.TrailingZeros(uint(slots))) }

// homeSlot is where the probe for a source hash starts, in a table of
// the shift given: the hash bits below the stripeBits that chose the
// stripe, on which the hosts of one stripe all agree.
func homeSlot(hash uint32, shift uint8) uint32 { return hash << stripeBits >> shift }

// resize replaces the slots with empty ones sized for n hosts.
func (t *slotTable[R]) resize(n int) {
	t.slots = make([]slot[R], hostSlotsFor(n))
	t.shift = slotShift(len(t.slots))
}

// probe returns src's slot if the table has it, and otherwise the empty
// slot its probe sequence ends at. The table must not be nil.
func (t *slotTable[R]) probe(src uint32) *slot[R] {
	mask := uint32(len(t.slots) - 1)
	for i := homeSlot(SourceHash(src), t.shift); ; i = (i + 1) & mask {
		if h := &t.slots[i]; !h.live() || h.src == src {
			return h
		}
	}
}

// find returns src's slot, or nil when the host is not tracked.
func (t *slotTable[R]) find(src uint32) *slot[R] {
	if t.slots == nil {
		return nil
	}
	if h := t.probe(src); h.live() {
		return h
	}
	return nil
}

// track returns src's slot, starting to track the host on first contact
// with a zero record; fresh reports that it did.
func (t *slotTable[R]) track(src uint32) (h *slot[R], fresh bool) {
	if 4*(t.live+1) > 3*len(t.slots) {
		if h := t.find(src); h != nil {
			return h, false
		}
		t.grow()
	}
	h = t.probe(src)
	if h.live() {
		return h, false
	}
	*h = slot[R]{src: src, slotMarks: slotLive}
	t.live++
	return h, true
}

// grow doubles the table (it is three quarters full) and moves every
// host to its new place.
func (t *slotTable[R]) grow() {
	old := t.slots
	t.resize(t.live + 1)
	for i := range old {
		if old[i].live() {
			*t.probe(old[i].src) = old[i]
		}
	}
}

func (t *slotTable[R]) isRemoved(src uint32) bool {
	h := t.find(src)
	return h != nil && h.removed()
}

// hostRec is an exact host's destination set: dsts[:n] until it
// outgrows the slot's line, then the stripe's spilled set number
// spill−1; exactly one of the two representations is active at a time.
type hostRec struct {
	n     uint8  // inline destinations; meaningless once spilled
	spill uint32 // 1 + index into hostTable.spilled; 0 while inline
	dsts  [inlineDsts]uint32
}

// hostSlot is an exact host: exactly one 64-byte cache line.
type hostSlot = slot[hostRec]

// hostTable is the exact backend's stripe table: the slots, the spilled
// sets they refer to by index, and the limits a host is decided by.
type hostTable struct {
	slotTable[hostRec]
	m      int // a new destination past m distinct removes the host
	flagAt int // the smallest count at or past f·M; 0 never flags
	dsts   int // destinations, all hosts together

	spilled []dstSet
	free    []uint32 // indices of spilled sets released by reinstate
}

func newHostTable(cfg LimiterConfig) hostTable {
	return hostTable{m: cfg.M, flagAt: flagThreshold(cfg)}
}

// presize makes room in an empty table for hosts hosts, so that a
// restore makes the slots once.
func (t *hostTable) presize(hosts int) { t.resize(hosts) }

// seen reports whether dst is in the host's distinct set.
func (t *hostTable) seen(h *hostSlot, dst uint32) bool {
	if h.rec.spill != 0 {
		return t.spilled[h.rec.spill-1].has(dst)
	}
	for _, d := range h.rec.dsts[:h.rec.n] {
		if d == dst {
			return true
		}
	}
	return false
}

// add inserts a destination known to be absent from the host's set.
func (t *hostTable) add(h *hostSlot, dst uint32) {
	t.dsts++
	r := &h.rec
	if r.spill == 0 {
		if r.n < inlineDsts {
			r.dsts[r.n] = dst
			r.n++
			return
		}
		t.spill(h, inlineDsts+1)
	}
	t.spilled[r.spill-1].add(dst)
}

// spill moves an inline host's destinations to a spilled set with room
// for n members.
func (t *hostTable) spill(h *hostSlot, n int) {
	set := newDstSet(n)
	for _, d := range h.rec.dsts[:h.rec.n] {
		set.add(d)
	}
	if k := len(t.free); k > 0 {
		h.rec.spill = t.free[k-1] + 1
		t.free = t.free[:k-1]
		t.spilled[h.rec.spill-1] = set
	} else {
		t.spilled = append(t.spilled, set)
		h.rec.spill = uint32(len(t.spilled))
	}
}

// count returns the host's number of distinct destinations this cycle.
func (t *hostTable) count(h *hostSlot) int {
	if h.rec.spill != 0 {
		return t.spilled[h.rec.spill-1].n
	}
	return int(h.rec.n)
}

// destinations appends the host's set to out, in no particular order.
func (t *hostTable) destinations(h *hostSlot, out []uint32) []uint32 {
	if h.rec.spill != 0 {
		return t.spilled[h.rec.spill-1].appendTo(out)
	}
	return append(out, h.rec.dsts[:h.rec.n]...)
}

// observe decides one observation: the rule of Section IV on an exact
// distinct-destination set.
func (t *hostTable) observe(src, dst uint32, n *tally) Decision {
	h, _ := t.track(src)
	if h.removed() {
		n.denied++
		return Deny
	}
	if t.seen(h, dst) {
		return Allow
	}
	c := t.count(h)
	if c >= t.m {
		// Budget exhausted: the new-destination attempt removes the host.
		t.remove(&h.slotMarks)
		n.removals++
		n.denied++
		return Deny
	}
	t.add(h, dst)
	if t.flagAt > 0 && !h.flagged() && c+1 >= t.flagAt {
		t.flag(&h.slotMarks)
		n.flags++
		return AllowAndCheck
	}
	return Allow
}

// reinstate empties a removed host's set and clears its marks; the host
// stays tracked. A spilled set is released.
func (t *hostTable) reinstate(src uint32) bool {
	h := t.find(src)
	if h == nil || !h.removed() {
		return false
	}
	t.dsts -= t.count(h)
	if h.rec.spill != 0 {
		t.spilled[h.rec.spill-1] = dstSet{}
		t.free = append(t.free, h.rec.spill-1)
	}
	t.unmark(&h.slotMarks)
	h.rec = hostRec{}
	return true
}

func (t *hostTable) alert(src uint32) bool {
	h, _ := t.track(src)
	if h.removed() {
		return false
	}
	t.remove(&h.slotMarks)
	return true
}

// roll drops every host, and the slots with them.
func (t *hostTable) roll() { *t = hostTable{m: t.m, flagAt: t.flagAt} }

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
