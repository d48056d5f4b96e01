package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"wormcontain/internal/binio"
)

// Containment cycles span weeks or months (Section IV), so a limiter's
// counters must survive process restarts: losing them would silently
// refund every host's scan budget mid-cycle. This file is the snapshot
// codec both backends share — a canonical little-endian binary payload
// and its strict inverse. Layout (binio encodings, no padding):
//
//	header    magic "WCLS" | format u8 | backend u8 | hosts u32 | alerts u32
//	cycle     M u64 | cycle ns u64 | check fraction f64 | epoch unix-ms u64 | cycle index u64
//	counters  observed | removals | flags | denied | alert removals      (u64 each)
//	sketch    bits u32 | failure bits u32 | failure M u64 | failures u64 | failure removals u64
//	hosts     exact:  src u32 | removed u8 | flagged u8 | n u32 | n × dst u32
//	          sketch: src u32 | removed u8 | flagged u8 | register words u64 … (contact, then failure)
//	alerts    origin u64 | seq u64 | src u32 | unix-ms u64
//
// The sketch section exists only when backend = sketch. Canonical form:
// hosts ascend strictly by source, an exact host's destinations ascend
// strictly, alerts ascend strictly by (origin, seq), the removed and
// flagged marks are 0 or 1, and the payload ends with its last alert — so
// one limiter state has exactly one byte string, and the decoder
// rejects every other spelling of it. Snapshot diffing, the durable
// crash suite's byte-equality invariant and content-addressed storage
// all rest on that.

const (
	snapshotMagic  = "WCLS"
	snapshotFormat = 1

	snapshotCommonLen = (4 + 1 + 1 + 4 + 4) + 5*8 + 5*8 // header, cycle, counters
	alertRecordLen    = 8 + 8 + 4 + 8
	hostHeaderLen     = 4 + 1 + 1 // src, removed, flagged
)

// SnapshotBackend names the limiter backend a snapshot was cut from.
type SnapshotBackend uint8

const (
	// backendExact is *Limiter.
	backendExact SnapshotBackend = 1
	// backendSketch is *SketchLimiter.
	backendSketch SnapshotBackend = 2
)

var backendNames = map[SnapshotBackend]string{backendExact: "exact", backendSketch: "sketch"}

// String implements fmt.Stringer.
func (k SnapshotBackend) String() string { return backendNames[k] }

// ErrLegacySnapshot reports a snapshot in the JSON format this codec
// replaced. There is no decoder for it: callers holding durable state
// must stop rather than treat the file as corrupt and start fresh,
// which would refund every host's scan budget mid-cycle.
var ErrLegacySnapshot = errors.New("core: limiter snapshot is in the retired JSON format " +
	"(written by a wormgate older than the binary snapshot codec); " +
	"this build cannot read it and will not discard it")

// SnapshotHeader is a snapshot's fixed-size prefix — what an audit can
// say about a payload without restoring it.
type SnapshotHeader struct {
	Format  uint8
	Backend SnapshotBackend
	Hosts   int
	Alerts  int
}

// ReadSnapshotHeader decodes the fixed prefix of a MarshalState
// payload. It validates magic, format and backend only; the counts are
// as claimed, unverified until a Restore call checks them against the
// bytes that follow.
func ReadSnapshotHeader(data []byte) (SnapshotHeader, error) {
	h, _, err := readSnapshotHeader(data)
	return h, err
}

func readSnapshotHeader(data []byte) (SnapshotHeader, *binio.Reader, error) {
	if len(data) > 0 && data[0] == '{' {
		return SnapshotHeader{}, nil, ErrLegacySnapshot
	}
	r := binio.NewReader(data, "core: limiter snapshot")
	if magic := r.Bytes(len(snapshotMagic), "magic"); r.Err() == nil && string(magic) != snapshotMagic {
		return SnapshotHeader{}, nil, r.Failf("has magic %q, want %q", magic, snapshotMagic)
	}
	h := SnapshotHeader{Format: r.U8("format")}
	if r.Err() == nil && h.Format != snapshotFormat {
		return h, nil, r.Failf("format %d, want %d", h.Format, snapshotFormat)
	}
	h.Backend = SnapshotBackend(r.U8("backend"))
	if r.Err() == nil && backendNames[h.Backend] == "" {
		return h, nil, r.Failf("backend %d unknown", uint8(h.Backend))
	}
	h.Hosts = int(r.U32("host count"))
	h.Alerts = int(r.U32("alert count"))
	return h, r, r.Err()
}

// snapshotCommon is the part of the payload both backends carry.
type snapshotCommon struct {
	cfg        LimiterConfig
	epoch      time.Time
	cycleIndex uint64
	totals     Stats // observed, removals, flags, denied and alert removals
}

// appendSnapshotCommon appends the snapshotCommonLen bytes every
// payload starts with.
func appendSnapshotCommon(b []byte, h SnapshotHeader, c snapshotCommon) []byte {
	b = append(b, snapshotMagic...)
	b = binio.AppendU8(b, snapshotFormat)
	b = binio.AppendU8(b, uint8(h.Backend))
	b = binio.AppendU32(b, uint32(h.Hosts))
	b = binio.AppendU32(b, uint32(h.Alerts))
	b = binio.AppendU64(b, uint64(c.cfg.M))
	b = binio.AppendU64(b, uint64(c.cfg.Cycle))
	b = binio.AppendF64(b, c.cfg.CheckFraction)
	b = binio.AppendU64(b, uint64(c.epoch.UnixMilli()))
	b = binio.AppendU64(b, c.cycleIndex)
	t := c.totals
	for _, n := range [...]int{t.TotalObserved, t.TotalRemovals, t.TotalFlags, t.TotalDenied, t.AlertRemovals} {
		b = binio.AppendU64(b, uint64(n))
	}
	return b
}

// readSnapshotCommon decodes the header and the common sections of a
// payload that must come from backend want.
func readSnapshotCommon(data []byte, want SnapshotBackend) (SnapshotHeader, snapshotCommon, *binio.Reader, error) {
	var c snapshotCommon
	h, r, err := readSnapshotHeader(data)
	if err != nil {
		return h, c, nil, err
	}
	if h.Backend != want {
		return h, c, nil, r.Failf("is from the %v backend, want %v", h.Backend, want)
	}
	c.cfg.M = readInt(r, "M")
	c.cfg.Cycle = time.Duration(r.U64("cycle"))
	c.cfg.CheckFraction = r.F64("check fraction")
	c.epoch = time.UnixMilli(int64(r.U64("epoch"))).UTC()
	c.cycleIndex = r.U64("cycle index")
	c.totals.TotalObserved = readInt(r, "observed total")
	c.totals.TotalRemovals = readInt(r, "removal total")
	c.totals.TotalFlags = readInt(r, "flag total")
	c.totals.TotalDenied = readInt(r, "denied total")
	c.totals.AlertRemovals = readInt(r, "alert removal total")
	return h, c, r, r.Err()
}

// readInt reads a u64 that must fit a non-negative int.
func readInt(r *binio.Reader, what string) int {
	v := r.U64(what)
	if v > math.MaxInt {
		r.Failf("%s %d out of range", what, v)
		return 0
	}
	return int(v)
}

// appendAlerts sorts the ledger copy into canonical order and appends it.
func appendAlerts(b []byte, alerts []Alert) []byte {
	sortAlerts(alerts)
	for _, a := range alerts {
		b = binio.AppendU64(b, a.Origin)
		b = binio.AppendU64(b, a.Seq)
		b = binio.AppendU32(b, a.Src)
		b = binio.AppendU64(b, uint64(a.UnixMs))
	}
	return b
}

// readAlerts decodes the n-alert ledger that ends the payload and
// restores it into book.
func readAlerts(r *binio.Reader, n, removals int, book *alertBook) error {
	if r.Len() != n*alertRecordLen {
		return r.Failf("has %d bytes where %d alerts need %d", r.Len(), n, n*alertRecordLen)
	}
	alerts := make([]Alert, n)
	for i := range alerts {
		a := Alert{
			Origin: r.U64("alert origin"),
			Seq:    r.U64("alert seq"),
			Src:    r.U32("alert src"),
			UnixMs: int64(r.U64("alert time")),
		}
		if i > 0 && compareAlertIDs(alerts[i-1], a) >= 0 {
			return r.Failf("alert (%d, %d) is not after (%d, %d)",
				a.Origin, a.Seq, alerts[i-1].Origin, alerts[i-1].Seq)
		}
		alerts[i] = a
	}
	if err := r.Done(); err != nil {
		return err
	}
	book.restore(alerts, removals)
	return nil
}

// hostsCopy is what a snapshot copies out of the host tables with the
// world stopped: per host its marks and its payload's words.
type hostsCopy struct {
	keys  []uint64 // src<<32 | index into hosts: sorting plain integers orders the hosts by source
	hosts []hostCopy
	words int // all hosts' together
}

type hostCopy struct {
	words            []uint32 // exact: the destinations, unsorted; sketch: the registers, low half first
	removed, flagged bool
}

func (c *hostsCopy) add(src uint32, m slotMarks, words []uint32) {
	c.keys = append(c.keys, uint64(src)<<32|uint64(len(c.hosts)))
	c.hosts = append(c.hosts, hostCopy{words: words, removed: m.removed(), flagged: m.flagged()})
	c.words += len(words)
}

// MarshalState serializes the limiter's complete state (configuration,
// cycle position, per-host state, alert ledger) in the canonical binary
// form described at the top of this file: identical states produce
// identical bytes.
func (l *limiter[T, P]) MarshalState() ([]byte, error) { return l.CheckpointState(nil) }

// CheckpointState marshals the state like MarshalState and invokes cut
// with the world stopped (every stripe held). A journal (see journal.go)
// uses cut to mark its cut point: no input can be journaled or applied
// while the state is copied out and cut runs, so every input record
// lands strictly before or strictly after the cut — the returned
// snapshot plus the post-cut journal suffix is exactly the live state,
// with no record double-applied or lost. Only the copy-out and cut stop
// the world; sorting and encoding run after it resumes, so a periodic
// snapshot stalls Observe for a copy, not for the whole marshal. The
// bytes do not depend on the striping: hosts are sorted by source after
// the copy-out and the counters summed.
func (l *limiter[T, P]) CheckpointState(cut func()) ([]byte, error) {
	l.lockAll()
	st := l.statsLocked()
	c := hostsCopy{keys: make([]uint64, 0, st.ActiveHosts), hosts: make([]hostCopy, 0, st.ActiveHosts)}
	for i := range l.stripes {
		P(&l.stripes[i].hosts).copyOut(&c)
	}
	codec := l.stripes[0].hosts // its limits encode the backend's section
	common := snapshotCommon{cfg: l.cfg, epoch: l.epoch, cycleIndex: l.cycleIndex, totals: st}
	alerts := l.alerts.unsorted()
	if cut != nil {
		cut()
	}
	l.unlockAll()

	slices.Sort(c.keys)
	enc := P(&codec)
	b := make([]byte, 0, snapshotCommonLen+sketchSectionLen+(hostHeaderLen+4)*len(c.hosts)+4*c.words+alertRecordLen*len(alerts))
	b = appendSnapshotCommon(b, SnapshotHeader{Backend: enc.backend(), Hosts: len(c.hosts), Alerts: len(alerts)}, common)
	b = enc.appendSection(b, st)
	var scratch []uint32
	for _, k := range c.keys {
		h := c.hosts[uint32(k)]
		b = binio.AppendU32(b, uint32(k>>32))
		b = binio.AppendBool(b, h.removed)
		b = binio.AppendBool(b, h.flagged)
		b = enc.appendHost(b, h.words, &scratch)
	}
	return appendAlerts(b, alerts), nil
}

// restore fills a zero limiter from a snapshot of the backend given.
// section reads what the backend's section holds (the exact one has
// none) and returns the empty table every stripe starts from. Anything
// but a canonical payload of a valid state is an error.
//
// Two passes. The first reads the payload front to back and makes every
// check, so an error names the first bad host in the file whatever the
// striping (checkHosts). The second cannot fail: it puts each stripe's
// hosts into its table in slot order, stripe-parallel (fill).
func (l *limiter[T, P]) restore(data []byte, backend SnapshotBackend, section func(*binio.Reader, LimiterConfig) (T, error)) error {
	h, c, r, err := readSnapshotCommon(data, backend)
	if err != nil {
		return err
	}
	empty, err := section(r, c.cfg)
	if err != nil {
		return err
	}
	l.init(c.cfg, c.epoch, empty)
	l.cycleIndex = c.cycleIndex
	hosts, err := l.checkHosts(data, r, h.Hosts)
	if err != nil {
		return err
	}
	t := c.totals
	if err := readAlerts(r, h.Alerts, t.AlertRemovals, &l.alerts); err != nil {
		return err
	}
	// The snapshot sums the counters over the stripes, and any split
	// sums back to it.
	l.stripes[0].tally = tally{observed: t.TotalObserved, removals: t.TotalRemovals, flags: t.TotalFlags, denied: t.TotalDenied}
	l.fill(data, hosts)
	return nil
}

// A host's note is what checkHost leaves for fillHost in its low bits,
// with the host's marks in the top two.
const (
	noteRemoved = 1 << 63
	noteFlagged = 1 << 62
)

// checkedHosts is a checked payload's hosts by stripe: stripe s's are
// entries start[s] to start[s+1] of keys and notes, in file order. A
// key is SourceHash(src)<<32 | the host's index within its stripe.
type checkedHosts struct {
	keys, notes []uint64
	start       [stripeCount + 1]int
}

// checkHosts is the restore's first pass over n host records at r:
// sorted distinct sources, strict marks, and the backend's own checks
// of each record (checkHost), which also builds what lives apart from
// the host's slot while the bytes are at hand. It allocates by what the
// bytes hold, not by the header's counts.
func (l *limiter[T, P]) checkHosts(data []byte, r *binio.Reader, n int) (*checkedHosts, error) {
	capacity := min(n, r.Len()/(hostHeaderLen+4))
	keys, notes := make([]uint64, 0, capacity), make([]uint64, 0, capacity)
	var perStripe [stripeCount]int
	var prevSrc uint32
	for i := 0; i < n; i++ {
		src := r.U32("host src")
		if i > 0 && src <= prevSrc {
			return nil, r.Failf("host %d is not after host %d (duplicate or unsorted)", src, prevSrc)
		}
		prevSrc = src
		var marks uint64
		if r.Bool("host removed mark") {
			marks |= noteRemoved
		}
		if r.Bool("host flagged mark") {
			marks |= noteFlagged
		}
		h := SourceHash(src)
		s := h >> (32 - stripeBits)
		note, err := P(&l.stripes[s].hosts).checkHost(r, src, perStripe[s], len(data)-r.Len())
		if err != nil {
			return nil, err
		}
		keys = append(keys, uint64(h)<<32|uint64(perStripe[s]))
		notes = append(notes, marks|note)
		perStripe[s]++
	}
	// Group them by stripe, each stripe's in file order.
	c := &checkedHosts{keys: make([]uint64, len(keys)), notes: make([]uint64, len(keys))}
	for s, k := range perStripe {
		c.start[s+1] = c.start[s] + k
	}
	for i, k := range keys {
		at := c.start[k>>(64-stripeBits)] + int(uint32(k))
		c.keys[at], c.notes[at] = k, notes[i]
	}
	return c, nil
}

// restoreSplit is the fewest hosts a restore hands another worker: a
// goroutine costs about a microsecond, a host's fill a few dozen
// nanoseconds.
const restoreSplit = 1 << 12

// fill is the restore's second pass. The stripes are split by
// contiguous range over up to GOMAXPROCS workers, each of which sizes
// and fills only its own.
func (l *limiter[T, P]) fill(data []byte, c *checkedHosts) {
	workers := min(runtime.GOMAXPROCS(0), 1+len(c.keys)/restoreSplit, stripeCount)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			l.fillStripes(data, c, lo, hi)
		}(w*stripeCount/workers, (w+1)*stripeCount/workers)
	}
	l.fillStripes(data, c, 0, stripeCount/workers)
	wg.Wait()
}

// fillStripes fills stripes [lo, hi). Each stripe's hosts go in by
// their home slot, so the table fills front to back and a probe meets
// only the hosts just placed — where file order, by source, lands each
// host on a random slot and misses the cache on almost every one. A
// counting sort over the slots orders them; hosts that share a home
// slot keep file order.
func (l *limiter[T, P]) fillStripes(data []byte, c *checkedHosts, lo, hi int) {
	var next []int
	var order []uint64
	for s := lo; s < hi; s++ {
		keys, notes := c.keys[c.start[s]:c.start[s+1]], c.notes[c.start[s]:c.start[s+1]]
		if len(keys) == 0 {
			continue
		}
		t := P(&l.stripes[s].hosts)
		t.presize(len(keys))
		slots := hostSlotsFor(len(keys))
		shift := slotShift(slots)
		next = append(next[:0], make([]int, slots+1)...)
		for _, k := range keys {
			next[homeSlot(uint32(k>>32), shift)+1]++
		}
		for i := 1; i < slots; i++ {
			next[i] += next[i-1]
		}
		order = append(order[:0], keys...)
		for _, k := range keys {
			home := homeSlot(uint32(k>>32), shift)
			order[next[home]] = k
			next[home]++
		}
		for _, k := range order {
			j := int(uint32(k))
			note := notes[j]
			t.fillHost(data, j, uint32(k>>32)*sourceHashInverse, note&noteRemoved != 0, note&noteFlagged != 0, note&^(noteRemoved|noteFlagged))
		}
	}
}

// RestoreLimiter rebuilds a limiter from a MarshalState snapshot. The
// restored limiter continues the same containment cycle: epoch, cycle
// index, per-host distinct sets, removal/flag marks, cumulative
// counters and alert ledger all carry over. Anything but a canonical
// payload of a valid state is an error.
func RestoreLimiter(data []byte) (*Limiter, error) {
	l := new(Limiter)
	err := l.restore(data, backendExact, func(_ *binio.Reader, cfg LimiterConfig) (hostTable, error) {
		if err := cfg.Validate(); err != nil {
			return hostTable{}, fmt.Errorf("core: limiter snapshot config: %w", err)
		}
		return newHostTable(cfg), nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

func (*hostTable) backend() SnapshotBackend               { return backendExact }
func (*hostTable) appendSection(b []byte, _ Stats) []byte { return b }

// copyOut copies every host's destinations out, into one arena for the
// table.
func (t *hostTable) copyOut(c *hostsCopy) {
	arena := make([]uint32, 0, t.dsts)
	for j := range t.slots {
		if h := &t.slots[j]; h.live() {
			off := len(arena)
			arena = t.destinations(h, arena)
			c.add(h.src, h.slotMarks, arena[off:])
		}
	}
}

// appendHost appends a host's destination count and its destinations,
// sorted.
func (*hostTable) appendHost(b []byte, d []uint32, scratch *[]uint32) []byte {
	sortDestinations(d, scratch)
	b = binio.AppendU32(b, uint32(len(d)))
	for _, dst := range d {
		b = binio.AppendU32(b, dst)
	}
	return b
}

// sortDestinations sorts one host's copied-out destinations ascending,
// growing scratch as the second buffer when it needs one. A scanner's
// set is thousands of uniformly random addresses, where four counting
// passes beat a comparison sort severalfold — half of the whole marshal
// at 200 spent scanners; a legitimate host's handful goes to the
// library sort.
func sortDestinations(d []uint32, scratch *[]uint32) {
	if len(d) < 256 {
		slices.Sort(d)
		return
	}
	if len(*scratch) < len(d) {
		*scratch = make([]uint32, len(d))
	}
	buf := (*scratch)[:len(d)]
	for shift := 0; shift < 32; shift += 8 { // an even number of passes ends in d
		var next [257]int // next[b] becomes where the next value with digit b goes
		for _, v := range d {
			next[v>>shift&0xff+1]++
		}
		for b := 1; b < 256; b++ {
			next[b] += next[b-1]
		}
		for _, v := range d {
			buf[next[v>>shift&0xff]] = v
			next[v>>shift&0xff]++
		}
		d, buf = buf, d
	}
}

// spilledNote marks an exact host's note as a spilled set's index; an
// inline host's note is where its destination count is in the payload.
const spilledNote = 1 << 61

// checkHost reads a host's destinations, at offset off of the payload,
// and checks them: at most M, ascending strictly. A set too big for the
// slot's line is built here, while the bytes are at hand.
func (t *hostTable) checkHost(r *binio.Reader, src uint32, _, off int) (uint64, error) {
	n := r.Count(4, "host destinations")
	if n > t.m {
		return 0, r.Failf("host %d has %d distinct > M=%d", src, n, t.m)
	}
	raw := r.Bytes(4*n, "host destinations")
	if r.Err() != nil {
		return 0, r.Err()
	}
	for j := 4; j < len(raw); j += 4 {
		if d, prev := binary.LittleEndian.Uint32(raw[j:]), binary.LittleEndian.Uint32(raw[j-4:]); d <= prev {
			return 0, r.Failf("host %d destination %d is not after %d (duplicate or unsorted)", src, d, prev)
		}
	}
	if n <= inlineDsts {
		return uint64(off), nil
	}
	set := newDstSet(n)
	for j := 0; j < len(raw); j += 4 {
		set.add(binary.LittleEndian.Uint32(raw[j:]))
	}
	t.spilled = append(t.spilled, set)
	return spilledNote | uint64(len(t.spilled)), nil
}

// fillHost tracks a checked host with its marks and destinations; the
// table is presized, so it does not move.
func (t *hostTable) fillHost(data []byte, _ int, src uint32, removed, flagged bool, note uint64) {
	h, _ := t.track(src)
	t.restoreMarks(&h.slotMarks, removed, flagged)
	if note&spilledNote != 0 {
		h.rec.spill = uint32(note)
		t.dsts += t.spilled[h.rec.spill-1].n
		return
	}
	raw := data[note:]
	for j, n := 0, int(binary.LittleEndian.Uint32(raw)); j < n; j++ {
		t.add(h, binary.LittleEndian.Uint32(raw[4+4*j:]))
	}
}

// RestoreAnyLimiter rebuilds whichever limiter backend produced the
// snapshot, dispatching on the header's backend byte. This is the entry
// point internal/durable uses, which is what lets one state directory
// carry either backend.
func RestoreAnyLimiter(data []byte) (Backend, error) {
	h, err := ReadSnapshotHeader(data)
	if err != nil {
		return nil, err
	}
	if h.Backend == backendSketch {
		return restoreSketchLimiter(data)
	}
	return RestoreLimiter(data)
}
