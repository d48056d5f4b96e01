package simstate

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"testing"

	"wormcontain/internal/faultfs"
)

// crashSeeds follows the crash suites' convention (durable, fleet,
// crashsafe): WORMGATE_CRASH_SEED pins a single fault schedule (the CI
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

// dirCampaign drives one deterministic Save sequence against a Dir,
// stopping at the first failed operation, and returns how many saves
// completed.
func dirCampaign(d *Dir, payloads [][]byte) int {
	ok := 0
	for _, p := range payloads {
		if _, err := d.Save(p); err != nil {
			break
		}
		ok++
	}
	return ok
}

// TestDirCrashSweep kills the filesystem at every injectable operation
// of a multi-generation checkpoint campaign and proves the recovery
// invariant: after crash and restart, Load returns exactly the payload
// of the last Save that was acknowledged — the atomic rename is the
// publication point, so an interrupted Save never surfaces and a
// completed one never disappears — and the directory keeps accepting
// checkpoints afterwards.
func TestDirCrashSweep(t *testing.T) {
	for _, seed := range crashSeeds(t) {
		t.Logf("crash seed %d", seed)
		dirCrashSweep(t, seed)
	}
}

func dirCrashSweep(t *testing.T, seed uint64) {
	payloads := make([][]byte, 6)
	for i := range payloads {
		payloads[i] = payloadN(i)
	}

	// Fault-free campaign: count the injectable operations to sweep.
	inj := faultfs.NewInjector(faultfs.Profile{}, seed)
	if got := dirCampaign(Open(faultfs.NewMem(inj)), payloads); got != len(payloads) {
		t.Fatalf("fault-free campaign completed %d/%d saves", got, len(payloads))
	}
	totalOps := inj.Ops()
	if totalOps == 0 {
		t.Fatal("campaign performed no injectable operations")
	}

	for n := uint64(1); n <= totalOps; n++ {
		inj := faultfs.NewInjector(faultfs.Profile{}, seed)
		inj.SetCrashAt(n)
		mem := faultfs.NewMem(inj)
		// A crash in a final Save's best-effort GC tail still lets the
		// campaign complete — Save acknowledges at the rename, so acked
		// may legitimately reach len(payloads).
		acked := dirCampaign(Open(mem), payloads)
		mem.Crash()
		mem.Reopen()

		// Recovery: the newest acknowledged payload, nothing else.
		d := Open(mem)
		got, _, err := d.Load()
		if acked == 0 {
			if !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("crash at op %d before first publish: Load err %v, want ErrNoCheckpoint", n, err)
			}
		} else {
			if err != nil {
				t.Fatalf("crash at op %d: Load failed: %v", n, err)
			}
			if !bytes.Equal(got, payloads[acked-1]) {
				t.Fatalf("crash at op %d: Load returned payload %q, want save %d", n, got, acked-1)
			}
		}

		// The directory is never unrecoverable: the remaining campaign
		// completes and the final state matches the fault-free one.
		if rest := dirCampaign(d, payloads[acked:]); rest != len(payloads)-acked {
			t.Fatalf("crash at op %d: post-recovery campaign completed %d/%d", n, rest, len(payloads)-acked)
		}
		got, _, err = d.Load()
		if err != nil || !bytes.Equal(got, payloads[len(payloads)-1]) {
			t.Fatalf("crash at op %d: final Load %q, %v", n, got, err)
		}
		gens, err := d.scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(gens) > keepGenerations+1 {
			t.Fatalf("crash at op %d: GC left %d generations: %v", n, len(gens), gens)
		}
	}
}

// TestDirShortWriteRetry drives the Save campaign through a filesystem
// that injects short writes (full-disk style failures without a crash):
// a failed Save must leave the previous generation loadable and the
// next Save must succeed cleanly.
func TestDirShortWriteRetry(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.Profile{ShortWrite: 0.3}, 7)
	d := Open(faultfs.NewMem(inj))
	var last []byte
	saved, failed := 0, 0
	for i := 0; i < 40; i++ {
		p := payloadN(i)
		if _, err := d.Save(p); err != nil {
			failed++
			var ie *faultfs.InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("save %d: unexpected error type: %v", i, err)
			}
		} else {
			saved++
			last = p
		}
		got, _, err := d.Load()
		if saved == 0 {
			if !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("save %d: %v", i, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, last) {
			t.Fatalf("after save %d: Load %q err %v, want last acknowledged payload", i, got, err)
		}
	}
	if failed == 0 {
		t.Fatal("short-write profile injected no failures; raise the probability")
	}
	if saved == 0 {
		t.Fatal("every save failed; the retry path was never exercised")
	}
}
