package rng

import "testing"

// TestPCG64StateRoundTrip drains a generator partway, exports its
// state, and checks that a restored generator — freshly constructed or
// previously pointed elsewhere — produces the identical remaining
// stream, across several seed/stream pairs and capture offsets.
func TestPCG64StateRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		seed, stream uint64
		burn         int
	}{
		{0, 0, 0}, {1, 0, 1}, {7, 3, 17}, {1905, 9, 1000},
		{^uint64(0), 1 << 62, 313},
	} {
		p := NewPCG64(tc.seed, tc.stream)
		for i := 0; i < tc.burn; i++ {
			p.Uint64()
		}
		st := p.State()

		fresh := NewPCG64(42, 42) // deliberately elsewhere
		fresh.SetState(st)
		for i := 0; i < 256; i++ {
			want := p.Uint64()
			if got := fresh.Uint64(); got != want {
				t.Fatalf("seed=%d stream=%d burn=%d: draw %d: restored %#x, original %#x",
					tc.seed, tc.stream, tc.burn, i, got, want)
			}
		}
	}
}

// TestPCG64StateReseedEquivalence pins that State/SetState and Reseed
// agree: the state exported immediately after Reseed restores the same
// stream NewPCG64 produces, so checkpoints interoperate with the
// replication loops that reseed in place.
func TestPCG64StateReseedEquivalence(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 1905} {
		p := NewPCG64(99, 99)
		p.Reseed(seed, seed^3)
		st := p.State()

		ref := NewPCG64(seed, seed^3)
		restored := NewPCG64(0, 0)
		restored.SetState(st)
		for i := 0; i < 64; i++ {
			want := ref.Uint64()
			if got := restored.Uint64(); got != want {
				t.Fatalf("seed %d: draw %d: restored %#x != fresh %#x", seed, i, got, want)
			}
		}
		// Reseeding a restored generator must fully overwrite the
		// imported state.
		restored.Reseed(5, 6)
		ref2 := NewPCG64(5, 6)
		for i := 0; i < 64; i++ {
			if got, want := restored.Uint64(), ref2.Uint64(); got != want {
				t.Fatalf("post-restore Reseed diverged at draw %d: %#x != %#x", i, got, want)
			}
		}
	}
}

// TestPCG64SetStateOddIncrement checks the one structural invariant:
// an even increment in an imported state is forced odd, matching what
// Reseed constructs.
func TestPCG64SetStateOddIncrement(t *testing.T) {
	p := NewPCG64(1, 1)
	st := p.State()
	if st.IncLo&1 == 0 {
		t.Fatalf("exported increment is even: %#x", st.IncLo)
	}
	st.IncLo &^= 1
	p.SetState(st)
	if got := p.State().IncLo; got&1 == 0 {
		t.Fatalf("SetState kept an even increment: %#x", got)
	}
}

// TestSplitMix64StateRoundTrip is the SplitMix64 analogue: capture at
// an arbitrary offset, restore, identical continuation.
func TestSplitMix64StateRoundTrip(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0x9e3779b97f4a7c15, ^uint64(0)} {
		s := NewSplitMix64(seed)
		for i := 0; i < 37; i++ {
			s.Uint64()
		}
		restored := NewSplitMix64(0)
		restored.state = s.state
		for i := 0; i < 128; i++ {
			if got, want := restored.Uint64(), s.Uint64(); got != want {
				t.Fatalf("seed %#x: draw %d: restored %#x != original %#x", seed, i, got, want)
			}
		}
	}
}
