package crashsafe

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"wormcontain/internal/faultfs"
)

var testSeries = Series{Prefix: "snap-", Suffix: ".snap"}

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

func TestSeriesMatchesOnlyItsOwnNames(t *testing.T) {
	for _, gen := range []uint64{0, 1, 42, 9999999999999999} {
		name := testSeries.Name(gen)
		if got, ok := testSeries.match(name); !ok || got != gen {
			t.Errorf("match(%q) = (%d, %v), want (%d, true)", name, got, ok, gen)
		}
	}
	if got := testSeries.Name(7); got != "snap-0000000000000007.snap" {
		t.Errorf("Name(7) = %q", got)
	}
	for _, name := range []string{
		"snap-12.snap",                   // not fixed-width
		"snap-00000000000000012.snap",    // seventeen digits
		"snap-+000000000000012.snap",     // a sign is not a digit
		"snap-000000000000001x.snap",     // nor is a letter
		"xsnap-0000000000000001.snap",    // stray prefix
		"snap-0000000000000001.snap.bak", // stray suffix
		"snap-0000000000000001.log",      // another series
		"snap-.snap", "",
	} {
		if gen, ok := testSeries.match(name); ok {
			t.Errorf("match(%q) accepted a foreign name as generation %d", name, gen)
		}
	}
}

func TestScanDirClassifies(t *testing.T) {
	mem := faultfs.NewMem(nil)
	wal := Series{Prefix: "wal-", Suffix: ".log"}
	for _, name := range []string{
		wal.Name(3), testSeries.Name(2), testSeries.Name(10), wal.Name(2),
		testSeries.Name(11) + tmpSuffix, "mc.journal" + tmpSuffix, tmpSuffix,
		"README", "snap-12.snap",
	} {
		if _, err := mem.Create(name); err != nil {
			t.Fatal(err)
		}
	}
	gens, tmps, err := ScanDir(mem, testSeries, wal)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(gens), "[[2 10] [2 3]]"; got != want {
		t.Errorf("generations %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(tmps), "[mc.journal.tmp snap-0000000000000011.snap.tmp]"; got != want {
		t.Errorf("tmps %s, want %s", got, want)
	}

	mem.Crash()
	if _, _, err := ScanDir(mem, testSeries); !errors.Is(err, faultfs.ErrCrashed) {
		t.Errorf("ScanDir on a dead filesystem: %v, want ErrCrashed", err)
	}
}

func TestReclaimKeepsFloorAndForeignFiles(t *testing.T) {
	mem := faultfs.NewMem(nil)
	wal := Series{Prefix: "wal-", Suffix: ".log"}
	for _, name := range []string{
		testSeries.Name(1), testSeries.Name(2), testSeries.Name(3), wal.Name(1), wal.Name(3),
		testSeries.Name(4) + tmpSuffix, "README", "other-0000000000000001.snap",
	} {
		if _, err := mem.Create(name); err != nil {
			t.Fatal(err)
		}
	}
	Reclaim(mem, 2, testSeries, wal)
	names, _ := mem.List()
	want := fmt.Sprint([]string{"README", "other-0000000000000001.snap", testSeries.Name(2), testSeries.Name(3), wal.Name(3)})
	if got := fmt.Sprint(names); got != want {
		t.Fatalf("after Reclaim(keep 2): %s, want %s", got, want)
	}
	mem.Crash()
	Reclaim(mem, 9, testSeries, wal) // a dead filesystem: best effort means no panic, nothing to do
}

// TestPublishCrashSweep kills the filesystem at every injectable
// operation of a sequence of publishes to one name and proves the
// publish invariant: after crash and restart the file holds, in full,
// the last content whose Publish returned nil — never a torn or mixed
// one, an older one, or one whose Publish failed — and it passes
// DecodeFile. (faultfs.Mem leaves the old name in place when it crashes
// at a rename, so "acknowledged" and "renamed" coincide.)
func TestPublishCrashSweep(t *testing.T) {
	for _, seed := range crashSeeds(t) {
		t.Logf("crash seed %d", seed)
		publishCrashSweep(t, seed)
	}
}

func publishCrashSweep(t *testing.T, seed uint64) {
	contents := make([][]byte, 5)
	for i := range contents {
		contents[i] = AppendFrame(nil, bytes.Repeat([]byte{byte('a' + i)}, 100+i))
	}
	campaign := func(mem *faultfs.Mem) (acked int) {
		for _, c := range contents {
			if err := Publish(mem, "state", c); err != nil {
				break
			}
			acked++
		}
		return acked
	}

	inj := faultfs.NewInjector(faultfs.Profile{}, seed)
	if got := campaign(faultfs.NewMem(inj)); got != len(contents) {
		t.Fatalf("fault-free campaign published %d/%d", got, len(contents))
	}
	totalOps := inj.Ops()

	for n := uint64(1); n <= totalOps; n++ {
		inj := faultfs.NewInjector(faultfs.Profile{}, seed)
		inj.SetCrashAt(n)
		mem := faultfs.NewMem(inj)
		acked := campaign(mem)
		mem.Crash()
		mem.Reopen()

		got, err := mem.ReadFile("state")
		switch {
		case errors.Is(err, faultfs.ErrCrashed):
			t.Fatalf("crash at op %d: %v", n, err)
		case err != nil: // no such file: nothing was ever published
			if acked != 0 {
				t.Fatalf("crash at op %d: %d publishes acknowledged, file missing: %v", n, acked, err)
			}
			continue
		}
		if acked == 0 || !bytes.Equal(got, contents[acked-1]) {
			t.Fatalf("crash at op %d: file holds %d bytes, want content %d in full", n, len(got), acked-1)
		}
		if _, err := DecodeFile(got); err != nil {
			t.Fatalf("crash at op %d: surviving content fails DecodeFile: %v", n, err)
		}
	}
}

// TestPublishFailureKeepsPreviousContent: a publish that fails without a
// crash (a short write: the full disk) leaves the previous content in
// place and no temp file behind.
func TestPublishFailureKeepsPreviousContent(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.Profile{ShortWrite: 0.5}, 7)
	mem := faultfs.NewMem(inj)
	var last []byte
	failed := 0
	for i := 0; i < 40; i++ {
		c := AppendFrame(nil, []byte(fmt.Sprintf("content-%04d", i)))
		if err := Publish(mem, "state", c); err != nil {
			var ie *faultfs.InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("publish %d: unexpected error type: %v", i, err)
			}
			failed++
		} else {
			last = c
		}
		if got, _ := mem.Content("state"); !bytes.Equal(got, last) {
			t.Fatalf("after publish %d: file holds %q, want last acknowledged %q", i, got, last)
		}
		if _, ok := mem.Content("state" + tmpSuffix); ok {
			t.Fatalf("after publish %d: temp file left behind", i)
		}
	}
	if failed == 0 || last == nil {
		t.Fatalf("%d of 40 publishes failed; both outcomes must occur", failed)
	}
}
