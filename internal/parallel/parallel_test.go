package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"wormcontain/internal/rng"
)

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		out, err := Map(100, workers, func(r int) (int, error) {
			// Jittered completion order: later replications may finish
			// first, exercising the reorder buffer.
			time.Sleep(time.Duration(r%7) * time.Microsecond)
			return r * r, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(out))
		}
		for r, v := range out {
			if v != r*r {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, r, v, r*r)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	// The real contract: each replication draws from its own RNG stream,
	// and the engine must produce identical output for any worker count.
	draw := func(r int) (uint64, error) {
		src := rng.NewPCG64(42, uint64(r))
		var sum uint64
		for i := 0; i < 1000; i++ {
			sum += src.Uint64()
		}
		return sum, nil
	}
	ref, err := Map(200, 1, draw)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 16} {
		got, err := Map(200, workers, draw)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for r := range ref {
			if got[r] != ref[r] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, r, got[r], ref[r])
			}
		}
	}
}

func TestReduceMergesInOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var merged []int
		_, err := Reduce(50, workers, 0,
			func(r int) (int, error) {
				time.Sleep(time.Duration((50-r)%5) * time.Microsecond)
				return r, nil
			},
			func(acc, r, v int) (int, error) {
				if r != v {
					t.Fatalf("workers=%d: merge(r=%d) got value %d", workers, r, v)
				}
				merged = append(merged, r)
				return acc + v, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range merged {
			if r != i {
				t.Fatalf("workers=%d: merge order %v", workers, merged)
			}
		}
	}
}

func TestReduceAccumulates(t *testing.T) {
	sum, err := Reduce(101, 8, 0,
		func(r int) (int, error) { return r, nil },
		func(acc, _ int, v int) (int, error) { return acc + v, nil })
	if err != nil {
		t.Fatal(err)
	}
	if sum != 101*100/2 {
		t.Fatalf("sum = %d, want %d", sum, 101*100/2)
	}
}

func TestFirstErrorWinsDeterministically(t *testing.T) {
	boom := errors.New("boom")
	fn := func(r int) (int, error) {
		// Replications 30 and 60 fail; 30 must always be reported even if
		// 60 finishes first.
		if r == 60 {
			return 0, fmt.Errorf("late failure at %d", r)
		}
		if r == 30 {
			time.Sleep(200 * time.Microsecond)
			return 0, boom
		}
		return r, nil
	}
	for _, workers := range []int{1, 4, 16} {
		_, err := Map(100, workers, fn)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want the replication-30 error", workers, err)
		}
	}
}

func TestErrorCancelsRemainingWork(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := Map(10_000, 4, func(r int) (int, error) {
		started.Add(1)
		if r == 0 {
			return 0, boom
		}
		time.Sleep(50 * time.Microsecond)
		return r, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n >= 10_000 {
		t.Errorf("all %d replications ran despite an early error", n)
	}
}

func TestMergeErrorStopsReduce(t *testing.T) {
	boom := errors.New("merge boom")
	acc, err := Reduce(100, 8, 0,
		func(r int) (int, error) { return r, nil },
		func(acc, r, v int) (int, error) {
			if r == 5 {
				return acc, boom
			}
			return acc + v, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if acc != 0+1+2+3+4 {
		t.Errorf("acc = %d, want the pre-error prefix sum 10", acc)
	}
}

func TestZeroAndNegativeN(t *testing.T) {
	out, err := Map(0, 8, func(r int) (int, error) { return r, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("n=0: out = %v, err = %v", out, err)
	}
	if _, err := Map(-1, 8, func(r int) (int, error) { return r, nil }); err == nil {
		t.Error("n=-1: expected error")
	}
}

func TestClampWorkers(t *testing.T) {
	cases := []struct {
		requested, n, want int
	}{
		{0, 100, DefaultWorkers()},
		{-3, 100, DefaultWorkers()},
		{4, 100, 4},
		{16, 4, 4},  // never more workers than replications
		{16, 0, 16}, // n=0 leaves the request alone
	}
	for _, c := range cases {
		if got := ClampWorkers(c.requested, c.n); got != c.want {
			t.Errorf("ClampWorkers(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers < 1")
	}
}

// TestHighContention hammers the pool with many tiny replications so the
// race detector (go test -race) can certify the claim/merge paths.
func TestHighContention(t *testing.T) {
	var calls atomic.Int64
	out, err := Map(5000, 16, func(r int) (int, error) {
		calls.Add(1)
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 5000 || len(out) != 5000 {
		t.Fatalf("calls = %d, len = %d", calls.Load(), len(out))
	}
}

// TestReduceSlotSlotsAreExclusive verifies the property that makes
// slot-local scratch safe: no two replications on the same slot ever
// overlap in time. Each slot keeps an entry counter that a second
// concurrent replication would observe mid-flight.
func TestReduceSlotSlotsAreExclusive(t *testing.T) {
	const n, workers = 200, 8
	inFlight := make([]atomic.Int32, workers)
	_, err := ReduceSlot(n, workers, 0,
		func(r, slot int) (int, error) {
			if slot < 0 || slot >= workers {
				return 0, fmt.Errorf("slot %d out of range", slot)
			}
			if inFlight[slot].Add(1) != 1 {
				return 0, fmt.Errorf("slot %d entered concurrently", slot)
			}
			time.Sleep(time.Duration(r%3) * 10 * time.Microsecond)
			if inFlight[slot].Add(-1) != 0 {
				return 0, fmt.Errorf("slot %d left concurrently", slot)
			}
			return r, nil
		},
		func(acc, r, v int) (int, error) { return acc + v, nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestReduceSlotSerialUsesSlotZero pins the serial reference path: with
// one worker every replication runs on slot 0.
func TestReduceSlotSerialUsesSlotZero(t *testing.T) {
	_, err := ReduceSlot(50, 1, 0,
		func(r, slot int) (int, error) {
			if slot != 0 {
				return 0, fmt.Errorf("replication %d on slot %d, want 0", r, slot)
			}
			return 0, nil
		},
		func(acc, r, v int) (int, error) { return acc, nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestScratchPoolReuseKeepsDeterminism runs a toy Monte-Carlo with a
// slot-local accumulation buffer and checks the result is identical to
// the buffer-free serial computation for several worker counts — the
// whole point of the arena design.
func TestScratchPoolReuseKeepsDeterminism(t *testing.T) {
	const n = 300
	ref := make([]uint64, n)
	for r := 0; r < n; r++ {
		src := rng.NewPCG64(99, uint64(r))
		var sum uint64
		for i := 0; i < 64; i++ {
			sum += src.Uint64() % 1000
		}
		ref[r] = sum
	}
	for _, workers := range []int{1, 2, 4, 16} {
		pool := NewScratchPool(ClampWorkers(workers, n), func() []uint64 {
			return make([]uint64, 64)
		})
		got, err := MapSlot(n, workers, func(r, slot int) (uint64, error) {
			buf := pool.Get(slot) // reused across replications on this slot
			src := rng.NewPCG64(99, uint64(r))
			for i := range buf {
				buf[i] = src.Uint64() % 1000 // overwrites previous replication's values
			}
			var sum uint64
			for _, v := range buf {
				sum += v
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := range got {
			if got[r] != ref[r] {
				t.Fatalf("workers=%d replication %d: %d != ref %d",
					workers, r, got[r], ref[r])
			}
		}
	}
}

// TestScratchPoolLazyConstruction checks arenas are built once per slot,
// on demand.
func TestScratchPoolLazyConstruction(t *testing.T) {
	var built atomic.Int32
	pool := NewScratchPool(4, func() *int {
		built.Add(1)
		v := new(int)
		return v
	})
	a := pool.Get(2)
	b := pool.Get(2)
	if a != b {
		t.Fatal("same slot returned different arenas")
	}
	if built.Load() != 1 {
		t.Fatalf("constructor ran %d times, want 1", built.Load())
	}
	pool.Get(0)
	if built.Load() != 2 {
		t.Fatalf("constructor ran %d times after second slot, want 2", built.Load())
	}
}
