package crashsafe

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"

	"wormcontain/internal/faultfs"
)

// crashSeeds follows the crash suites' convention (durable, fleet,
// simstate): WORMGATE_CRASH_SEED pins a single fault schedule (the CI
// matrix), default sweeps the canonical three.
func crashSeeds(t *testing.T) []uint64 {
	if v := os.Getenv("WORMGATE_CRASH_SEED"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("WORMGATE_CRASH_SEED=%q: %v", v, err)
		}
		return []uint64{seed}
	}
	return []uint64{1, 7, 1905}
}

func recordN(i int) []byte { return []byte(fmt.Sprintf("record-%05d", i)) }

func TestLogAppendReplay(t *testing.T) {
	mem := faultfs.NewMem(nil)
	j, recs, err := OpenLog(mem, "mc.journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	for i := 0; i < 10; i++ {
		if err := j.Append(recordN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if j.appended != 10 || j.synced != 0 {
		t.Fatalf("appended %d synced %d, want 10/0", j.appended, j.synced)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.synced != 10 {
		t.Fatalf("synced after close: %d", j.synced)
	}

	j2, recs, err := OpenLog(mem, "mc.journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec, recordN(i)) {
			t.Fatalf("record %d: %q", i, rec)
		}
	}
	if j2.appended != 10 {
		t.Fatalf("reopened journal appended %d", j2.appended)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogTruncatesTornTail(t *testing.T) {
	mem := faultfs.NewMem(nil)
	j, _, err := OpenLog(mem, "mc.journal")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(recordN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn frame lands after the valid records: half a header, then
	// garbage.
	f, err := mem.Append("mc.journal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs, err := OpenLog(mem, "mc.journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records past a torn tail, want 4", len(recs))
	}
	// The rewrite removed the tail: append + reopen yields 5 clean records.
	if err := j2.Append(recordN(4)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err = OpenLog(mem, "mc.journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || !bytes.Equal(recs[4], recordN(4)) {
		t.Fatalf("after tail truncation and append: %d records", len(recs))
	}
}

func TestLogReset(t *testing.T) {
	mem := faultfs.NewMem(nil)
	j, _, err := OpenLog(mem, "mc.journal")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(recordN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if j.appended != 0 {
		t.Fatalf("appended after reset: %d", j.appended)
	}
	if err := j.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenLog(mem, "mc.journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0]) != "fresh" {
		t.Fatalf("after reset: %q", recs)
	}
}

func TestLogRejectsBadRecords(t *testing.T) {
	j, _, err := OpenLog(faultfs.NewMem(nil), "mc.journal")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(nil); err == nil {
		t.Error("Append(nil) succeeded")
	}
	if err := j.Append(make([]byte, maxLogRecord+1)); err == nil {
		t.Error("oversized Append succeeded")
	}
	// Size-limit rejections are not sticky failures.
	if err := j.Append([]byte("ok")); err != nil {
		t.Errorf("Append after rejected record: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// logCampaign opens the journal, appends records from the replayed
// position onward with a per-record group commit, and closes. It
// returns the durably acknowledged record count (replayed records plus
// successful syncs) and the appended count, stopping at the first
// error.
func logCampaign(mem *faultfs.Mem, records [][]byte) (acked, appended int) {
	j, replayed, err := OpenLog(mem, "mc.journal")
	if err != nil {
		return 0, 0
	}
	acked, appended = len(replayed), len(replayed)
	for i := len(replayed); i < len(records); i++ {
		if err := j.Append(records[i]); err != nil {
			return acked, appended
		}
		appended++
		if err := j.Sync(); err != nil {
			return acked, appended
		}
		acked++
	}
	if err := j.Close(); err != nil {
		return acked, appended
	}
	return acked, appended
}

// TestLogCrashSweep kills the filesystem at every injectable
// operation of an append campaign and proves the journal's recovery
// invariant: replay yields a clean prefix of the record sequence, at
// least every record whose Sync was acknowledged and at most every
// record appended — and the journal keeps accepting appends afterwards.
func TestLogCrashSweep(t *testing.T) {
	for _, seed := range crashSeeds(t) {
		t.Logf("crash seed %d", seed)
		logCrashSweep(t, seed)
	}
}

func logCrashSweep(t *testing.T, seed uint64) {
	records := make([][]byte, 8)
	for i := range records {
		records[i] = recordN(i)
	}

	inj := faultfs.NewInjector(faultfs.Profile{}, seed)
	memClean := faultfs.NewMem(inj)
	if acked, _ := logCampaign(memClean, records); acked != len(records) {
		t.Fatalf("fault-free campaign acked %d/%d records", acked, len(records))
	}
	totalOps := inj.Ops()

	for n := uint64(1); n <= totalOps; n++ {
		inj := faultfs.NewInjector(faultfs.Profile{}, seed)
		inj.SetCrashAt(n)
		mem := faultfs.NewMem(inj)
		acked, appended := logCampaign(mem, records)
		mem.Crash()
		mem.Reopen()

		_, replayed, err := OpenLog(mem, "mc.journal")
		if err != nil {
			t.Fatalf("crash at op %d: recovery open failed: %v", n, err)
		}
		if len(replayed) < acked || len(replayed) > appended {
			t.Fatalf("crash at op %d: replayed %d records, want within [%d, %d]",
				n, len(replayed), acked, appended)
		}
		for i, rec := range replayed {
			if !bytes.Equal(rec, records[i]) {
				t.Fatalf("crash at op %d: replayed record %d = %q, want %q", n, i, rec, records[i])
			}
		}

		// Continue to completion on the recovered journal.
		if acked2, _ := logCampaign(mem, records); acked2 != len(records) {
			t.Fatalf("crash at op %d: post-recovery campaign acked %d/%d", n, acked2, len(records))
		}
		_, final, err := OpenLog(mem, "mc.journal")
		if err != nil || len(final) != len(records) {
			t.Fatalf("crash at op %d: final replay %d records, err %v", n, len(final), err)
		}
	}
}

// logGolden is a two-record log as the pre-crashsafe simstate.Journal
// wrote it for the records "header" and "r0", spelled by hand: the log
// file format is these bytes, not whatever the current encoder emits.
var logGolden = []byte{
	0x06, 0x00, 0x00, 0x00, // payload length, u32 LE
	0x42, 0xe1, 0x5f, 0x1c, // CRC32-C of the payload, u32 LE
	'h', 'e', 'a', 'd', 'e', 'r',
	0x02, 0x00, 0x00, 0x00,
	0x0a, 0xda, 0x9e, 0x59,
	'r', '0',
}

func TestLogBytesGolden(t *testing.T) {
	mem := faultfs.NewMem(nil)
	j, _, err := OpenLog(mem, "mc.journal")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"header", "r0"} {
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := mem.Content("mc.journal"); !bytes.Equal(got, logGolden) {
		t.Fatalf("log bytes\n got % x\nwant % x", got, logGolden)
	}
	if names, _ := mem.List(); len(names) != 1 {
		t.Fatalf("directory after close: %v, want the log alone", names)
	}
}

// TestLogOpensParentLayout opens a log laid out byte for byte as the
// pre-crashsafe code left it after a crash — two records, a torn third,
// and the temp file of an interrupted open — and requires the answers
// that code gave: both records replay, and the file is cut back to them.
func TestLogOpensParentLayout(t *testing.T) {
	mem := faultfs.NewMem(nil)
	for name, data := range map[string][]byte{
		"mc.journal":     append(append([]byte{}, logGolden...), logGolden[:11]...),
		"mc.journal.tmp": logGolden[:3],
	} {
		f, err := mem.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	j, recs, err := OpenLog(mem, "mc.journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0]) != "header" || string(recs[1]) != "r0" {
		t.Fatalf("replayed %q, want [header r0]", recs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := mem.Content("mc.journal"); !bytes.Equal(got, logGolden) {
		t.Fatalf("log after reopen\n got % x\nwant % x", got, logGolden)
	}
	if _, ok := mem.Content("mc.journal.tmp"); ok {
		t.Fatal("interrupted open's temp file survived the reopen")
	}
}
