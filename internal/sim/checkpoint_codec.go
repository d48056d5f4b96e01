package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"wormcontain/internal/addr"
	"wormcontain/internal/binio"
	"wormcontain/internal/des"
)

// Checkpoint wire format, version 1: a 4-byte magic, a version word,
// then every Checkpoint field in fixed order, little-endian, with
// 32-bit length prefixes on variable-length sections. The layout is
// canonical — one state, one byte string — so checkpoints can be
// compared and deduplicated by content, and the decoder enforces the
// inverse: every accepted input re-encodes to exactly itself (the
// property FuzzCheckpointDecode pins). Integrity framing (length + CRC)
// is the storage layer's job (package simstate), not the codec's.

const (
	checkpointMagic   = "WCKP"
	checkpointVersion = 1
)

// EncodeCheckpoint serializes ck.
func EncodeCheckpoint(ck *Checkpoint) []byte {
	return appendEncodeCheckpoint(nil, ck)
}

// appendEncodeCheckpoint serializes ck onto b and returns the extended
// slice — the allocation-free form for periodic checkpoint loops that
// reuse one buffer.
func appendEncodeCheckpoint(b []byte, ck *Checkpoint) []byte {
	b = append(b, checkpointMagic...)
	b = binio.AppendU16(b, checkpointVersion)

	// Identity header.
	b = binio.AppendU64(b, uint64(ck.V))
	b = binio.AppendU64(b, uint64(ck.I0))
	b = binio.AppendF64(b, ck.ScanRate)
	b = binio.AppendU64(b, ck.Seed)
	b = binio.AppendU64(b, ck.Stream)
	b = binio.AppendF64(b, ck.PatchRate)
	b = binio.AppendF64(b, ck.ImmunizeRate)
	b = binio.AppendBool(b, ck.EdgeScanRate)
	b = binio.AppendU64(b, ck.TopoFingerprint)
	b = binio.AppendU32(b, uint32(len(ck.DefenseName)))
	b = append(b, ck.DefenseName...)
	b = binio.AppendBool(b, ck.HasCluster)
	b = binio.AppendU32(b, uint32(ck.ClusterNet))
	b = append(b, ck.ClusterBits)
	b = binio.AppendBool(b, ck.HasDuty)
	b = binio.AppendU64(b, uint64(ck.DutyOn))
	b = binio.AppendU64(b, uint64(ck.DutyOff))
	b = binio.AppendBool(b, ck.RecordPaths)
	b = binio.AppendBool(b, ck.RecordTree)
	b = append(b, uint8(ck.Kernel))

	// Dynamic state.
	b = binio.AppendU64(b, uint64(ck.Now))
	b = binio.AppendU64(b, ck.Fired)
	b = binio.AppendU64(b, ck.RNG.Hi)
	b = binio.AppendU64(b, ck.RNG.Lo)
	b = binio.AppendU64(b, ck.RNG.IncHi)
	b = binio.AppendU64(b, ck.RNG.IncLo)
	b = binio.AppendU32(b, uint32(len(ck.Addrs)))
	for _, ip := range ck.Addrs {
		b = binio.AppendU32(b, uint32(ip))
	}
	b = binio.AppendU32(b, uint32(len(ck.Infected)))
	for _, w := range ck.Infected {
		b = binio.AppendU64(b, w)
	}
	b = binio.AppendU32(b, uint32(len(ck.Removed)))
	for _, w := range ck.Removed {
		b = binio.AppendU64(b, w)
	}
	b = binio.AppendU32(b, uint32(len(ck.Gen)))
	for _, g := range ck.Gen {
		b = binio.AppendU32(b, uint32(g))
	}
	b = binio.AppendU32(b, uint32(len(ck.InfectedAt)))
	for _, t := range ck.InfectedAt {
		b = binio.AppendU64(b, uint64(t))
	}
	b = binio.AppendU32(b, uint32(len(ck.Deliv)))
	for _, d := range ck.Deliv {
		b = binio.AppendU32(b, uint32(d.Src))
		b = binio.AppendU32(b, uint32(d.Dst))
		b = binio.AppendU32(b, uint32(d.Parent))
	}
	b = binio.AppendU32(b, uint32(len(ck.FreeDeliv)))
	for _, s := range ck.FreeDeliv {
		b = binio.AppendU32(b, uint32(s))
	}
	b = binio.AppendU32(b, uint32(len(ck.Pending)))
	for _, ev := range ck.Pending {
		b = binio.AppendU64(b, uint64(ev.At))
		b = append(b, ev.Kind)
		b = binio.AppendU32(b, uint32(ev.Arg))
	}
	b = binio.AppendU32(b, uint32(len(ck.Defense)))
	b = append(b, ck.Defense...)

	// Result so far.
	b = binio.AppendU64(b, uint64(ck.TotalInfected))
	b = binio.AppendU64(b, uint64(ck.TotalRemoved))
	b = binio.AppendU64(b, uint64(ck.PeakActive))
	b = binio.AppendBool(b, ck.Truncated)
	b = binio.AppendU32(b, uint32(len(ck.Generations)))
	for _, n := range ck.Generations {
		b = binio.AppendU64(b, uint64(n))
	}
	b = binio.AppendU64(b, ck.TotalScans)
	b = binio.AppendU64(b, ck.Delivered)
	b = binio.AppendU64(b, ck.Delayed)
	b = binio.AppendU64(b, ck.Dropped)
	b = binio.AppendU64(b, uint64(ck.Patched))
	b = binio.AppendU64(b, uint64(ck.Immunized))
	b = binio.AppendU32(b, uint32(len(ck.Tree)))
	for _, e := range ck.Tree {
		b = binio.AppendU32(b, uint32(e.Parent))
		b = binio.AppendU32(b, uint32(e.Child))
		b = binio.AppendU64(b, uint64(e.At))
	}
	b = appendSeries(b, ck.InfectedPts)
	b = appendSeries(b, ck.RemovedPts)
	b = appendSeries(b, ck.ActivePts)
	return b
}

func appendSeries(b []byte, p SeriesPoints) []byte {
	b = binio.AppendU32(b, uint32(len(p.Times)))
	for i, t := range p.Times {
		b = binio.AppendU64(b, uint64(t))
		b = binio.AppendF64(b, p.Values[i])
	}
	return b
}

// DecodeCheckpoint parses a checkpoint payload, rejecting truncated,
// oversized or structurally invalid input with an error (never a panic
// or over-read). Deep semantic validation against the full state
// happens at restore time (validateCheckpointState); the decoder
// guarantees structure plus the re-encode identity.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	r := binio.NewReader(data, "sim: checkpoint")
	if magic := r.Bytes(4, "magic"); r.Err() == nil && string(magic) != checkpointMagic {
		return nil, fmt.Errorf("sim: not a checkpoint (magic %q)", magic)
	}
	if v := r.U16("version"); r.Err() == nil && v != checkpointVersion {
		return nil, fmt.Errorf("sim: checkpoint version %d, want %d", v, checkpointVersion)
	}
	ck := &Checkpoint{}

	// Identity header.
	vHosts := r.U64("V")
	if r.Err() == nil && (vHosts < 1 || vHosts > 1<<31-1) {
		return nil, fmt.Errorf("sim: checkpoint V %d out of range", vHosts)
	}
	ck.V = int(vHosts)
	i0 := r.U64("I0")
	if r.Err() == nil && (i0 < 1 || i0 > vHosts) {
		return nil, fmt.Errorf("sim: checkpoint I0 %d out of [1, V=%d]", i0, vHosts)
	}
	ck.I0 = int(i0)
	ck.ScanRate = r.F64("scan rate")
	ck.Seed = r.U64("seed")
	ck.Stream = r.U64("stream")
	ck.PatchRate = r.F64("patch rate")
	ck.ImmunizeRate = r.F64("immunize rate")
	ck.EdgeScanRate = r.Bool("edge-scan-rate")
	ck.TopoFingerprint = r.U64("topology fingerprint")
	ck.DefenseName = string(r.Bytes(r.Count(1, "defense name"), "defense name"))
	ck.HasCluster = r.Bool("cluster flag")
	ck.ClusterNet = addr.IP(r.U32("cluster net"))
	ck.ClusterBits = r.U8("cluster bits")
	if r.Err() == nil && ck.ClusterBits > 32 {
		return nil, fmt.Errorf("sim: checkpoint cluster bits %d out of [0, 32]", ck.ClusterBits)
	}
	ck.HasDuty = r.Bool("duty flag")
	ck.DutyOn = readDur(r, "duty on")
	ck.DutyOff = readDur(r, "duty off")
	ck.RecordPaths = r.Bool("record-paths")
	ck.RecordTree = r.Bool("record-tree")
	kernel := r.U8("kernel")
	if r.Err() == nil && kernel > uint8(des.KernelWheel) {
		return nil, fmt.Errorf("sim: checkpoint kernel %d unknown", kernel)
	}
	ck.Kernel = des.Kind(kernel)

	// Dynamic state.
	ck.Now = readDur(r, "clock")
	ck.Fired = r.U64("fired")
	ck.RNG.Hi = r.U64("rng hi")
	ck.RNG.Lo = r.U64("rng lo")
	ck.RNG.IncHi = r.U64("rng inc hi")
	ck.RNG.IncLo = r.U64("rng inc lo")
	if r.Err() == nil && ck.RNG.IncLo&1 == 0 {
		return nil, fmt.Errorf("sim: checkpoint RNG increment is even")
	}
	if b := section(r, 4, "addresses"); r.Err() == nil {
		ck.Addrs = u32s[addr.IP](b)
	}
	if b := section(r, 8, "infected bitset"); r.Err() == nil {
		ck.Infected = u64s[uint64](b)
	}
	if b := section(r, 8, "removed bitset"); r.Err() == nil {
		ck.Removed = u64s[uint64](b)
	}
	if b := section(r, 4, "generations table"); r.Err() == nil {
		ck.Gen = u32s[int32](b)
	}
	if b := section(r, 8, "infection instants"); r.Err() == nil {
		ck.InfectedAt = u64s[time.Duration](b)
	}
	if b := section(r, 12, "deliveries"); r.Err() == nil {
		ck.Deliv = make([]PendingDelivery, len(b)/12)
		for i := range ck.Deliv {
			e := b[12*i : 12*i+12]
			ck.Deliv[i] = PendingDelivery{
				Src:    addr.IP(le.Uint32(e)),
				Dst:    addr.IP(le.Uint32(e[4:])),
				Parent: int32(le.Uint32(e[8:])),
			}
		}
	}
	if b := section(r, 4, "free delivery slots"); r.Err() == nil {
		ck.FreeDeliv = u32s[int32](b)
	}
	if b := section(r, 13, "pending events"); r.Err() == nil {
		ck.Pending = make([]PendingEvent, len(b)/13)
		for i := range ck.Pending {
			e := b[13*i : 13*i+13]
			ck.Pending[i] = PendingEvent{
				At:   time.Duration(le.Uint64(e)),
				Kind: e[8],
				Arg:  int32(le.Uint32(e[9:])),
			}
		}
	}
	ck.Defense = append([]byte(nil), r.Bytes(r.Count(1, "defense state"), "defense state")...)
	if len(ck.Defense) == 0 {
		ck.Defense = nil
	}

	// Result so far.
	ck.TotalInfected = int(int64(r.U64("total infected")))
	ck.TotalRemoved = int(int64(r.U64("total removed")))
	ck.PeakActive = int(int64(r.U64("peak active")))
	ck.Truncated = r.Bool("truncated")
	if b := section(r, 8, "generation histogram"); r.Err() == nil {
		ck.Generations = u64s[int](b)
	}
	ck.TotalScans = r.U64("total scans")
	ck.Delivered = r.U64("delivered")
	ck.Delayed = r.U64("delayed")
	ck.Dropped = r.U64("dropped")
	ck.Patched = int(int64(r.U64("patched")))
	ck.Immunized = int(int64(r.U64("immunized")))
	if b := section(r, 16, "infection tree"); r.Err() == nil {
		ck.Tree = make([]InfectionEdge, len(b)/16)
		for i := range ck.Tree {
			e := b[16*i : 16*i+16]
			ck.Tree[i] = InfectionEdge{
				Parent: int(int32(le.Uint32(e))),
				Child:  int(int32(le.Uint32(e[4:]))),
				At:     time.Duration(le.Uint64(e[8:])),
			}
		}
	}
	ck.InfectedPts = decodeSeries(r, "infected series")
	ck.RemovedPts = decodeSeries(r, "removed series")
	ck.ActivePts = decodeSeries(r, "active series")
	if err := r.Done(); err != nil {
		return nil, err
	}
	// Counters that flow into lengths elsewhere must fit their types on
	// 32-bit hosts too; reject sign-flipped values outright.
	for _, c := range [...]struct {
		name string
		v    int
	}{
		{"TotalInfected", ck.TotalInfected}, {"TotalRemoved", ck.TotalRemoved},
		{"PeakActive", ck.PeakActive}, {"Patched", ck.Patched}, {"Immunized", ck.Immunized},
	} {
		if c.v < 0 {
			return nil, fmt.Errorf("sim: checkpoint %s is negative", c.name)
		}
	}
	return ck, nil
}

func readDur(r *binio.Reader, what string) time.Duration { return time.Duration(r.U64(what)) }

var le = binary.LittleEndian

// section reads a length-prefixed section of fixed-size elements and
// returns its bytes, taken in one bounds-checked read: r.Count has
// verified that they are all present, so the element loops that decode
// them need no per-element reader call. It returns nil after an error.
func section(r *binio.Reader, size int, what string) []byte {
	return r.Bytes(r.Count(size, what)*size, what)
}

// u32s decodes a section of little-endian 32-bit words.
func u32s[T ~uint32 | ~int32](b []byte) []T {
	out := make([]T, len(b)/4)
	for i := range out {
		out[i] = T(le.Uint32(b[4*i:]))
	}
	return out
}

// u64s decodes a section of little-endian 64-bit words.
func u64s[T ~uint64 | ~int64 | ~int](b []byte) []T {
	out := make([]T, len(b)/8)
	for i := range out {
		out[i] = T(le.Uint64(b[8*i:]))
	}
	return out
}

func decodeSeries(r *binio.Reader, what string) SeriesPoints {
	b := section(r, 16, what)
	if len(b) == 0 {
		return SeriesPoints{}
	}
	p := SeriesPoints{
		Times:  make([]time.Duration, len(b)/16),
		Values: make([]float64, len(b)/16),
	}
	for i := range p.Times {
		e := b[16*i : 16*i+16]
		p.Times[i] = time.Duration(le.Uint64(e))
		p.Values[i] = math.Float64frombits(le.Uint64(e[8:]))
	}
	return p
}
