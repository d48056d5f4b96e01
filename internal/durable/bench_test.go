package durable

import (
	"fmt"
	"io/fs"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wormcontain/internal/core"
	"wormcontain/internal/faultfs"
)

// discardFS is an empty state directory that drops everything written
// to it: the benchmark below measures journaling — lanes, sequence
// numbers, drains — not a filesystem.
type discardFS struct{}

func (discardFS) List() ([]string, error)             { return nil, nil }
func (discardFS) ReadFile(string) ([]byte, error)     { return nil, fs.ErrNotExist }
func (discardFS) Create(string) (faultfs.File, error) { return discardFS{}, nil }
func (discardFS) Append(string) (faultfs.File, error) { return discardFS{}, nil }
func (discardFS) Rename(string, string) error         { return nil }
func (discardFS) Remove(string) error                 { return nil }
func (discardFS) Write(p []byte) (int, error)         { return len(p), nil }
func (discardFS) Sync() error                         { return nil }
func (discardFS) Close() error                        { return nil }

// parallelMixObs is core's benchmark mix (internal/core/bench_test.go,
// where it is explained): observation i of 100 000 legitimate sources
// on 8-destination working sets, plus, when skewed, one in ten from 200
// skew-picked scanners sending to fresh destinations.
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

// BenchmarkObserveParallel is core's benchmark of the same name through
// a Store: every Observe also journals one record into its source's
// lane while the 10 ms group-commit flusher drains the lanes in the
// background — the per-decision cost of a `-state-dir` gateway from 1,
// 2, 4 and 8 goroutines.
func BenchmarkObserveParallel(b *testing.B) {
	for _, mix := range []string{"uniform", "skewed"} {
		b.Run("backend=durable,mix="+mix, func(b *testing.B) {
			s, err := Open(Options{FS: discardFS{}, FsyncInterval: 10 * time.Millisecond},
				core.LimiterConfig{M: 5000, Cycle: 365 * 24 * time.Hour, CheckFraction: 0.9}, testStart)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			l := s.Limiter()
			for i := uint64(0); i < 1_600_000; i++ { // every working set seen: steady state
				src, dst := parallelMixObs(i, false)
				l.Observe(src, dst, testStart)
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
							l.Observe(src, dst, testStart)
							i++
						}
					})
				})
			}
		})
	}
}
