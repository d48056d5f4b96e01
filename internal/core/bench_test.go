package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func BenchmarkAnalyze(b *testing.B) {
	w := CodeRed(10000, 10)
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesignM(b *testing.B) {
	w := CodeRed(0, 10)
	target := ContainmentTarget{MaxTotalInfected: 150, Confidence: 0.95}
	for i := 0; i < b.N; i++ {
		if _, err := DesignM(w, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLimiterObserve measures the per-connection cost of the
// containment engine's hot path (repeat destination: no allocation).
func BenchmarkLimiterObserve(b *testing.B) {
	l, err := NewLimiter(LimiterConfig{M: 5000, Cycle: 30 * 24 * time.Hour}, t0)
	if err != nil {
		b.Fatal(err)
	}
	l.Observe(1, 42, t0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Observe(1, 42, t0)
	}
}

// BenchmarkLimiterObserveDistinct measures the new-destination path.
func BenchmarkLimiterObserveDistinct(b *testing.B) {
	l, err := NewLimiter(LimiterConfig{M: 1 << 30, Cycle: 30 * 24 * time.Hour}, t0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Observe(1, uint32(i), t0)
	}
}

func BenchmarkLimiterMarshalState(b *testing.B) {
	l, err := NewLimiter(LimiterConfig{M: 5000, Cycle: 30 * 24 * time.Hour}, t0)
	if err != nil {
		b.Fatal(err)
	}
	for src := uint32(0); src < 100; src++ {
		for dst := uint32(0); dst < 50; dst++ {
			l.Observe(src, dst, t0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.MarshalState(); err != nil {
			b.Fatal(err)
		}
	}
}

// snapshotBenchLimiter builds the state shape the repository benchmark's
// decide-stream workload snapshots: `hosts` legitimate sources with an
// 8-destination working set each, plus one scanner per 500 of them that
// has run its M=5000 budget out and been removed.
func snapshotBenchLimiter(b *testing.B, backend string, hosts int) Backend {
	cfg := LimiterConfig{M: 5000, Cycle: 365 * 24 * time.Hour, CheckFraction: 0.9}
	var l Backend
	var err error
	if backend == "sketch" {
		l, err = NewSketchLimiter(SketchConfig{LimiterConfig: cfg, FailureM: 100}, t0)
	} else {
		l, err = NewLimiter(cfg, t0)
	}
	if err != nil {
		b.Fatal(err)
	}
	for h := 0; h < hosts; h++ {
		src := 0x0A000000 + uint32(h)
		for k := uint32(0); k < 8; k++ {
			l.Observe(src, 0xC0000000+uint32(h)*8+k, t0)
		}
	}
	for s := 0; s < hosts/500; s++ {
		src := 0xAC100000 + uint32(s)
		for d := uint32(0); !l.RemovedAt(src, t0); d++ {
			l.Observe(src, d*2654435761+uint32(s), t0)
		}
	}
	return l
}

// BenchmarkLimiterSnapshot measures the snapshot codec at fleet scale:
// marshal and restore time per snapshot and the payload size
// (snapshot-bytes), both backends, 100k and 1M tracked hosts. Its set-up
// also records what the state costs resident: B/host is the heap the
// loaded limiter holds (live bytes after a collection, scanners' sets
// included) over its tracked hosts — the figure a capacity plan for the
// exact backend at V=10M starts from.
func BenchmarkLimiterSnapshot(b *testing.B) {
	for _, backend := range []string{"exact", "sketch"} {
		for _, size := range []struct {
			name  string
			hosts int
		}{{"100k", 100_000}, {"1M", 1_000_000}} {
			b.Run(backend+"/hosts="+size.name, func(b *testing.B) {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				l := snapshotBenchLimiter(b, backend, size.hosts)
				runtime.GC()
				runtime.ReadMemStats(&after)
				perHost := float64(after.HeapAlloc-before.HeapAlloc) / float64(l.Snapshot().ActiveHosts)
				data, err := l.CheckpointState(nil)
				if err != nil {
					b.Fatal(err)
				}
				b.Run("marshal", func(b *testing.B) {
					b.ReportMetric(perHost, "B/host")
					b.ReportMetric(float64(len(data)), "snapshot-bytes")
					for i := 0; i < b.N; i++ {
						if _, err := l.CheckpointState(nil); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run("restore", func(b *testing.B) {
					b.ReportMetric(float64(len(data)), "snapshot-bytes")
					for i := 0; i < b.N; i++ {
						if _, err := RestoreAnyLimiter(data); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// parallelMixObs is observation i of the mix the repository benchmark's
// decide-stream workload feeds the limiter (benchmark/stream.go), as a
// pure function of i so that any number of goroutines can draw from it:
// 100 000 legitimate sources revisiting an 8-destination working set —
// repeat contacts, the fast path — and, when skewed, one observation in
// ten from one of 200 scanners picked with a u² skew and sending to a
// fresh destination: inserts, spilled sets, and for the hottest
// scanners removal and denials. A scanner slot gets a new source every
// 700 000 observations of its goroutine, about when the hottest reaches
// M = 5000.
func parallelMixObs(i uint64, skewed bool) (src, dst uint32) {
	x := (i + 1) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	if skewed && x%100 < 10 {
		u := float64(x>>11) / (1 << 53)
		slot := uint32(200 * u * u)
		return 0xAC100000 + slot + 200*uint32(i/700_000), uint32(x >> 7)
	}
	host := uint32(x>>8) % 100_000
	return 0x0A000000 + host, 0xC0000000 + host*8 + uint32(x>>40)%8
}

// BenchmarkObserveParallel is the multicore row of the decision path:
// Observe from 1, 2, 4 and 8 goroutines on the uniform and the skewed
// mix, on each backend. The goroutine count is set inside the
// benchmark, so one plain `go test -bench` records the whole matrix;
// ns/op is wall time over all goroutines' observations, so perfect
// scaling halves it per doubling up to the core count. make
// bench-allocs holds the uniform rows at 0 allocs/op. (The backend= key
// tells these rows from internal/durable's.)
func BenchmarkObserveParallel(b *testing.B) {
	cfg := LimiterConfig{M: 5000, Cycle: 365 * 24 * time.Hour, CheckFraction: 0.9}
	for _, backend := range []string{"exact", "sketch"} {
		for _, mix := range []string{"uniform", "skewed"} {
			b.Run("backend="+backend+",mix="+mix, func(b *testing.B) {
				l := newBackend(b, backend, cfg)
				for i := uint64(0); i < 1_600_000; i++ { // every working set seen: steady state
					src, dst := parallelMixObs(i, false)
					l.Observe(src, dst, t0)
				}
				var stretch atomic.Uint64 // gives every goroutine of every run its own stretch of the mix
				for _, g := range []int{1, 2, 4, 8} {
					b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(g))
						b.ReportAllocs()
						b.RunParallel(func(pb *testing.PB) {
							i := stretch.Add(1) << 36
							for pb.Next() {
								src, dst := parallelMixObs(i, mix == "skewed")
								l.Observe(src, dst, t0)
								i++
							}
						})
					})
				}
			})
		}
	}
}
