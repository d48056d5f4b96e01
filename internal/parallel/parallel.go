// Package parallel is the deterministic replication engine behind every
// Monte-Carlo sweep in the repository: it fans n independent
// replications across a pool of workers while guaranteeing bit-for-bit
// identical results for any worker count.
//
// The determinism contract has two halves, one owed by the caller and
// one by the engine:
//
//   - The caller's replication function must be pure in its replication
//     index: fn(r) derives all randomness from r (stream-per-replication
//     seeding, e.g. rng.NewPCG64(seed, r)) and shares no mutable state
//     with other replications.
//   - The engine always applies results in replication order 0, 1, 2,
//     ..., n-1 on the caller's goroutine, regardless of the order in
//     which workers finish. A reorder buffer holds early results until
//     their predecessors arrive.
//
// Together these make Map and Reduce indistinguishable from the serial
// loop they replace: workers=1 and workers=64 produce identical output,
// identical errors, and identical progress callback sequences.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wormcontain/internal/telemetry"
)

// Func computes replication r. It must derive all randomness from r and
// must not share mutable state with other replications.
type Func[T any] func(r int) (T, error)

// SlotFunc computes replication r on worker slot. Slots are stable
// goroutine identities in [0, workers): two replications on the same
// slot never run concurrently, so fn may reuse slot-local scratch
// (arenas, simulators, buffers) across replications without locking.
// Randomness must still derive from r alone — the slot only scopes
// memory reuse, never results — so output stays identical for every
// worker count.
type SlotFunc[T any] func(r, slot int) (T, error)

// MergeFunc folds replication r's value into the accumulator. The engine
// calls it on the caller's goroutine in strict replication order, so it
// may mutate the accumulator freely without synchronization.
type MergeFunc[T, A any] func(acc A, r int, v T) (A, error)

// progressFunc observes completed replications. It is called on the
// caller's goroutine after each in-order merge with done = 1, 2, ...,
// total — the sequence is identical for every worker count.
type progressFunc func(done, total int)

// Option tunes a Map or Reduce call.
type Option func(*config)

type config struct {
	progress progressFunc
	metrics  *engineMetrics
}

// withProgress installs a progress callback.
func withProgress(p progressFunc) Option {
	return func(c *config) { c.progress = p }
}

// engineMetrics is the engine's telemetry wiring.
type engineMetrics struct {
	completed *telemetry.Counter
	busyNanos *telemetry.Counter
	active    *telemetry.Gauge
}

// withTelemetry wires the run into a telemetry registry:
// parallel_replications_completed_total counts in-order merges,
// parallel_worker_busy_nanoseconds_total accumulates time spent inside
// replication functions (utilization = busy nanos / (workers × wall
// time)), and parallel_workers_active gauges replications in flight.
// The two clock reads per replication are noise next to a replication's
// own cost (a whole simulation run), and determinism is untouched —
// instruments never feed back into scheduling.
func withTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) {
		c.metrics = &engineMetrics{
			completed: reg.Counter("parallel_replications_completed_total",
				"Replications merged in order by the parallel engine."),
			busyNanos: reg.Counter("parallel_worker_busy_nanoseconds_total",
				"Cumulative time workers spent inside replication functions."),
			active: reg.Gauge("parallel_workers_active",
				"Replications currently executing."),
		}
	}
}

// instrumentSlot wraps fn with busy-time and in-flight accounting.
// Generic free function because methods cannot introduce type parameters.
func instrumentSlot[T any](m *engineMetrics, fn SlotFunc[T]) SlotFunc[T] {
	if m == nil {
		return fn
	}
	return func(r, slot int) (T, error) {
		m.active.Add(1)
		start := time.Now()
		v, err := fn(r, slot)
		m.busyNanos.Add(uint64(time.Since(start)))
		m.active.Add(-1)
		return v, err
	}
}

// DefaultWorkers returns the default worker count: runtime.GOMAXPROCS(0),
// the number of CPUs the Go scheduler will actually use.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// ClampWorkers normalizes a requested worker count for n replications:
// requested <= 0 selects DefaultWorkers, and the result never exceeds n
// (extra workers would only idle).
func ClampWorkers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = DefaultWorkers()
	}
	if n > 0 && w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// item carries one replication's outcome from a worker to the merger.
type item[T any] struct {
	r   int
	v   T
	err error
}

// Reduce runs fn(r) for every r in [0, n) across workers goroutines and
// folds the results into acc strictly in replication order. workers <= 0
// selects DefaultWorkers. The fold runs on the calling goroutine, so
// merge needs no locking and may build order-sensitive state (series,
// histograms, output text).
//
// On the first error — from fn or merge, at the smallest replication
// index that errs — Reduce stops handing out new replications, waits for
// in-flight ones to drain, and returns that error with the accumulator
// as of the last successful merge. Because errors are selected in
// replication order, the returned error is also identical for every
// worker count.
func Reduce[T, A any](n, workers int, acc A, fn Func[T], merge MergeFunc[T, A], opts ...Option) (A, error) {
	return ReduceSlot(n, workers, acc,
		func(r, _ int) (T, error) { return fn(r) },
		merge, opts...)
}

// ReduceSlot is Reduce with worker-slot identity: fn receives, besides
// the replication index r, the stable slot in [0, ClampWorkers(workers,
// n)) of the goroutine running it. Replications that share a slot run
// strictly one after another, which is what makes per-slot scratch
// arenas (see ScratchPool) safe without synchronization. Everything
// else — ordering, error selection, progress — is exactly Reduce.
func ReduceSlot[T, A any](n, workers int, acc A, fn SlotFunc[T], merge MergeFunc[T, A], opts ...Option) (A, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if n < 0 {
		return acc, fmt.Errorf("parallel: negative replication count %d", n)
	}
	if n == 0 {
		return acc, nil
	}
	workers = ClampWorkers(workers, n)
	fn = instrumentSlot(cfg.metrics, fn)

	if workers == 1 {
		// Serial reference path: the parallel path below must be
		// observationally identical to this loop.
		for r := 0; r < n; r++ {
			v, err := fn(r, 0)
			if err != nil {
				return acc, err
			}
			if acc, err = merge(acc, r, v); err != nil {
				return acc, err
			}
			if m := cfg.metrics; m != nil {
				m.completed.Inc()
			}
			if cfg.progress != nil {
				cfg.progress(r+1, n)
			}
		}
		return acc, nil
	}

	var (
		next    atomic.Int64          // work-stealing replication counter
		stop    = make(chan struct{}) // closed on first in-order error
		results = make(chan item[T], workers)
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				r := int(next.Add(1) - 1)
				if r >= n {
					return
				}
				select {
				case <-stop:
					return
				default:
				}
				v, err := fn(r, slot)
				select {
				case results <- item[T]{r: r, v: v, err: err}:
				case <-stop:
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// The merger: buffer out-of-order arrivals and fold strictly in
	// replication order. Workers finish in any order, but fast workers
	// never run ahead by more than the pool size, so the buffer stays
	// O(workers).
	pending := make(map[int]item[T], workers)
	nextMerge := 0
	var firstErr error
	for it := range results {
		if firstErr != nil {
			continue // draining after cancellation
		}
		pending[it.r] = it
		for {
			p, ok := pending[nextMerge]
			if !ok {
				break
			}
			delete(pending, nextMerge)
			if p.err != nil {
				firstErr = p.err
				close(stop)
				break
			}
			var err error
			if acc, err = merge(acc, nextMerge, p.v); err != nil {
				firstErr = err
				close(stop)
				break
			}
			nextMerge++
			if m := cfg.metrics; m != nil {
				m.completed.Inc()
			}
			if cfg.progress != nil {
				cfg.progress(nextMerge, n)
			}
		}
	}
	return acc, firstErr
}

// ScratchPool hands each worker slot a reusable scratch arena, created
// lazily on a slot's first replication and reused for every later
// replication on that slot. Because ReduceSlot/MapSlot never run two
// replications of one slot concurrently, Get needs no synchronization —
// each slot's entry is touched by exactly one goroutine per call.
//
// The arena must hold only memory, never results: replication output
// must still be a pure function of the replication index, or the
// engine's any-worker-count determinism guarantee is void.
type ScratchPool[S any] struct {
	mk    func() S
	slots []S
	ready []bool
}

// NewScratchPool returns a pool with capacity for slots workers (size it
// with ClampWorkers). mk builds one slot's arena on first use.
func NewScratchPool[S any](workers int, mk func() S) *ScratchPool[S] {
	if workers < 1 {
		workers = 1
	}
	return &ScratchPool[S]{
		mk:    mk,
		slots: make([]S, workers),
		ready: make([]bool, workers),
	}
}

// Get returns slot's arena, building it on first use. The caller is
// responsible for resetting whatever state the previous replication
// left behind.
func (p *ScratchPool[S]) Get(slot int) S {
	if !p.ready[slot] {
		p.slots[slot] = p.mk()
		p.ready[slot] = true
	}
	return p.slots[slot]
}

// Map runs fn(r) for every r in [0, n) across workers goroutines and
// returns the results indexed by replication: out[r] = fn(r). workers <=
// 0 selects DefaultWorkers. On error the first failing replication's
// error (in replication order) is returned and the partial results are
// discarded.
func Map[T any](n, workers int, fn Func[T], opts ...Option) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("parallel: negative replication count %d", n)
	}
	out := make([]T, n)
	_, err := Reduce(n, workers, struct{}{}, fn,
		func(z struct{}, r int, v T) (struct{}, error) {
			out[r] = v
			return z, nil
		}, opts...)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapSlot is Map with worker-slot identity; see ReduceSlot.
func MapSlot[T any](n, workers int, fn SlotFunc[T], opts ...Option) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("parallel: negative replication count %d", n)
	}
	out := make([]T, n)
	_, err := ReduceSlot(n, workers, struct{}{}, fn,
		func(z struct{}, r int, v T) (struct{}, error) {
			out[r] = v
			return z, nil
		}, opts...)
	if err != nil {
		return nil, err
	}
	return out, nil
}
