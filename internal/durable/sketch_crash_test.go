package durable

import (
	"bytes"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/faultfs"
)

// sketchCrashCfg exercises contact removals fast (M=3) and failure
// removals faster (FailureM=2), with cycle rolls inside the scripted
// timeline. Widths are explicit so the thresholds are stable: 1024
// contact bits put the deny threshold at 3 set bits with negligible
// collision odds among the script's handful of destinations; 64 failure
// bits put the failure-deny threshold at 2.
var sketchCrashCfg = core.SketchConfig{
	LimiterConfig: core.LimiterConfig{M: 3, Cycle: 500 * time.Millisecond, CheckFraction: 0.5},
	Bits:          1024,
	FailureM:      2,
	FailureBits:   64,
}

func newSketchCrashLimiter(start time.Time) (core.Backend, error) {
	return core.NewSketchLimiter(sketchCrashCfg, start)
}

// sketchInput is one logical input; kind 'o' = Observe, 'f' =
// ObserveFailure, 'r' = Reinstate. Whole-millisecond timestamps keep the
// shadow and WAL replay aligned, as in crashScript.
type sketchInput struct {
	kind     byte
	src, dst uint32
	atMs     int64
}

// sketchCrashScript is the deterministic workload: contact repeats,
// contact-budget removals, failure-threshold removals, reinstates and
// two cycle rolls. Every input journals exactly one record (failure
// observations always journal when the variant is on, and each
// reinstate targets a host that is removed at that point — the shadow
// pass asserts it).
func sketchCrashScript() []sketchInput {
	var in []sketchInput
	ms := int64(0)
	add := func(kind byte, src, dst uint32) {
		in = append(in, sketchInput{kind: kind, src: src, dst: dst, atMs: ms})
		ms += 7
	}
	// Cycle 0: host 1 burns its contact budget (dup dst 11 is free) and
	// is reinstated; host 4 is removed by two distinct failures (dup
	// failure 91 is free) while its contact count stays at 1.
	add('o', 1, 10)
	add('o', 1, 11)
	add('o', 1, 11)
	add('o', 1, 12)
	add('o', 4, 90)
	add('f', 4, 90)
	add('f', 4, 91)
	add('f', 4, 91)
	add('o', 1, 13) // contact removal
	add('o', 1, 14) // denied
	add('f', 4, 92) // failure removal
	add('o', 4, 93) // denied via failure removal
	add('r', 1, 0)
	add('r', 4, 0)
	add('o', 1, 15)
	add('o', 2, 20)
	// Cycle 1: fresh budgets; host 4 fails again across the roll.
	ms = 600
	add('o', 3, 30)
	add('f', 4, 94)
	add('f', 4, 95)
	add('f', 4, 96) // failure removal in the new cycle
	add('o', 1, 16)
	add('o', 1, 17)
	add('o', 1, 18)
	add('o', 1, 19) // contact removal again
	// Cycle 2:
	ms = 1100
	add('o', 1, 40)
	add('o', 2, 41)
	add('f', 3, 42)
	add('o', 3, 43)
	return in
}

// driveSketchScript mirrors driveScript for the sketch workload: group
// commit after every 5th input, snapshot rotation after input 12.
func driveSketchScript(t *testing.T, s *Store, in []sketchInput) {
	t.Helper()
	l := s.Limiter()
	fo, ok := l.(core.FailureObserver)
	if !ok {
		t.Fatalf("recovered limiter %T does not observe failures", l)
	}
	for i, c := range in {
		at := crashStart.Add(time.Duration(c.atMs) * time.Millisecond)
		switch c.kind {
		case 'o':
			l.Observe(c.src, c.dst, at)
		case 'f':
			fo.ObserveFailure(c.src, c.dst, at)
		case 'r':
			l.Reinstate(c.src)
		}
		if (i+1)%5 == 0 {
			_ = s.Sync()
		}
		if i == 12 {
			_ = s.WriteSnapshot()
		}
	}
	_ = s.Sync()
}

// sketchShadowStates returns states[j] = MarshalState after the first j
// inputs, computed on a plain SketchLimiter — the byte-equality oracle
// the recovered store is judged against.
func sketchShadowStates(t *testing.T, in []sketchInput) [][]byte {
	t.Helper()
	l, err := core.NewSketchLimiter(sketchCrashCfg, crashStart)
	if err != nil {
		t.Fatal(err)
	}
	states := make([][]byte, 0, len(in)+1)
	snap := func() {
		b, err := l.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, b)
	}
	snap()
	for i, c := range in {
		at := crashStart.Add(time.Duration(c.atMs) * time.Millisecond)
		switch c.kind {
		case 'o':
			l.Observe(c.src, c.dst, at)
		case 'f':
			l.ObserveFailure(c.src, c.dst, at)
		case 'r':
			if !l.Reinstate(c.src) {
				t.Fatalf("script bug: input %d reinstates %d, which is not removed and would not journal", i, c.src)
			}
		}
		snap()
	}
	return states
}

// TestSketchCrashAtEveryInjectionPoint runs the exhaustive crash sweep
// against the sketch backend: crash at every filesystem operation,
// recover through Options.NewLimiter + RestoreAnyLimiter, and require
// the recovered sketch state — registers and all — to be byte-equal to
// the shadow state after some acknowledged prefix of inputs. This is
// what certifies that journaling logical inputs (contact AND failure
// records) reproduces sketch registers exactly.
func TestSketchCrashAtEveryInjectionPoint(t *testing.T) {
	in := sketchCrashScript()
	states := sketchShadowStates(t, in)
	cfg := sketchCrashCfg.LimiterConfig

	for _, seed := range crashSeeds(t) {
		clean := faultfs.NewInjector(faultfs.Profile{}, seed)
		mem := faultfs.NewMem(clean)
		s, err := Open(Options{FS: mem, NewLimiter: newSketchCrashLimiter}, cfg, crashStart)
		if err != nil {
			t.Fatalf("seed %d: clean Open: %v", seed, err)
		}
		driveSketchScript(t, s, in)
		if err := s.Close(); err != nil {
			t.Fatalf("seed %d: clean Close: %v", seed, err)
		}
		nops := clean.Ops()
		if nops < 20 {
			t.Fatalf("seed %d: clean pass saw only %d injectable ops", seed, nops)
		}
		if got := mustState(t, s.Limiter()); !bytes.Equal(got, states[len(in)]) {
			t.Fatalf("seed %d: clean final state diverges from shadow:\nwant %s\ngot  %s",
				seed, states[len(in)], got)
		}

		for k := uint64(1); k <= nops; k++ {
			inj := faultfs.NewInjector(faultfs.Profile{}, seed)
			inj.SetCrashAt(k)
			mem := faultfs.NewMem(inj)

			var acked, appended uint64
			s, err := Open(Options{FS: mem, NewLimiter: newSketchCrashLimiter}, cfg, crashStart)
			if err == nil {
				driveSketchScript(t, s, in)
				_ = s.Close()
				acked, appended = s.Acked(), s.Appended()
			}

			mem.Crash()
			mem.Reopen()

			r, err := Open(Options{FS: mem, NewLimiter: newSketchCrashLimiter}, cfg, crashStart)
			if err != nil {
				t.Fatalf("seed %d crash@%d: recovery Open failed: %v\ntrace:\n%s",
					seed, k, err, inj.TraceString())
			}
			if _, ok := r.Limiter().(*core.SketchLimiter); !ok {
				t.Fatalf("seed %d crash@%d: recovered %T, want *core.SketchLimiter", seed, k, r.Limiter())
			}
			got := mustState(t, r.Limiter())
			j := matchPrefix(states, got)
			if j < 0 {
				t.Fatalf("seed %d crash@%d: recovered sketch state matches no input prefix\nstate: %s",
					seed, k, got)
			}
			if uint64(j) < acked {
				t.Fatalf("seed %d crash@%d: recovered prefix %d < acked %d — durably acknowledged inputs were refunded",
					seed, k, j, acked)
			}
			if uint64(j) > appended {
				t.Fatalf("seed %d crash@%d: recovered prefix %d > appended %d — recovery invented inputs",
					seed, k, j, appended)
			}
		}
	}
}

// TestSketchRecoveredStateKeepsDeciding spot-checks semantic continuity
// on top of byte equality: after a crash mid-script and recovery, the
// recovered sketch and the matching shadow prefix must keep returning
// identical decisions on fresh traffic, failures included.
func TestSketchRecoveredStateKeepsDeciding(t *testing.T) {
	in := sketchCrashScript()
	states := sketchShadowStates(t, in)

	inj := faultfs.NewInjector(faultfs.Profile{}, 7)
	inj.SetCrashAt(9)
	mem := faultfs.NewMem(inj)
	s, err := Open(Options{FS: mem, NewLimiter: newSketchCrashLimiter}, sketchCrashCfg.LimiterConfig, crashStart)
	if err == nil {
		driveSketchScript(t, s, in)
		_ = s.Close()
	}
	mem.Crash()
	mem.Reopen()
	r, err := Open(Options{FS: mem, NewLimiter: newSketchCrashLimiter}, sketchCrashCfg.LimiterConfig, crashStart)
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	j := matchPrefix(states, mustState(t, r.Limiter()))
	if j < 0 {
		t.Fatal("recovered state matches no prefix")
	}
	restored, err := core.RestoreAnyLimiter(states[j])
	if err != nil {
		t.Fatal(err)
	}
	shadow := restored.(*core.SketchLimiter)
	lim := r.Limiter().(*core.SketchLimiter)
	at := crashStart.Add(2 * time.Second)
	for i := 0; i < 200; i++ {
		src, dst := uint32(i%6), uint32(1000+i)
		if dl, ds := lim.Observe(src, dst, at), shadow.Observe(src, dst, at); dl != ds {
			t.Fatalf("contact decision %d diverges: recovered %v, shadow %v", i, dl, ds)
		}
		if dl, ds := lim.ObserveFailure(src, dst, at), shadow.ObserveFailure(src, dst, at); dl != ds {
			t.Fatalf("failure decision %d diverges: recovered %v, shadow %v", i, dl, ds)
		}
		at = at.Add(time.Millisecond)
	}
}
