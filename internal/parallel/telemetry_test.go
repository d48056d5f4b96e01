package parallel

import (
	"testing"
	"time"

	"wormcontain/internal/telemetry"
)

func TestWithTelemetryCountsReplications(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		const n = 32
		sum, err := Reduce(n, workers, 0,
			func(r int) (int, error) {
				time.Sleep(100 * time.Microsecond)
				return r, nil
			},
			func(acc, r, v int) (int, error) { return acc + v, nil },
			withTelemetry(reg))
		if err != nil {
			t.Fatal(err)
		}
		if want := n * (n - 1) / 2; sum != want {
			t.Errorf("workers=%d: sum = %d, want %d", workers, sum, want)
		}
		snap := reg.Snapshot()
		if v, _ := snap.Value("parallel_replications_completed_total"); v != n {
			t.Errorf("workers=%d: completed = %v, want %d", workers, v, n)
		}
		if v, _ := snap.Value("parallel_worker_busy_nanoseconds_total"); v <= 0 {
			t.Errorf("workers=%d: busy nanos = %v, want > 0", workers, v)
		}
		if v, _ := snap.Value("parallel_workers_active"); v != 0 {
			t.Errorf("workers=%d: active after completion = %v, want 0", workers, v)
		}
	}
}

func TestWithTelemetryPreservesDeterminism(t *testing.T) {
	// The telemetry option must not perturb merge order or results.
	run := func(workers int, opts ...Option) []int {
		out, err := Map(50, workers, func(r int) (int, error) { return r * r, nil }, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	reg := telemetry.NewRegistry()
	base := run(1)
	instrumented := run(8, withTelemetry(reg))
	for i := range base {
		if base[i] != instrumented[i] {
			t.Fatalf("out[%d] = %d instrumented vs %d serial", i, instrumented[i], base[i])
		}
	}
}
