package stats

import (
	"testing"
	"time"
)

func TestTimeSeriesStepSemantics(t *testing.T) {
	ts := NewTimeSeries()
	ts.Record(1*time.Second, 10)
	ts.Record(3*time.Second, 25)
	if got := ts.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0 before first record", got)
	}
	if got := ts.At(1 * time.Second); got != 10 {
		t.Errorf("At(1s) = %v, want 10", got)
	}
	if got := ts.At(2 * time.Second); got != 10 {
		t.Errorf("At(2s) = %v, want 10 (hold)", got)
	}
	if got := ts.At(3 * time.Second); got != 25 {
		t.Errorf("At(3s) = %v, want 25", got)
	}
	if got := ts.At(time.Hour); got != 25 {
		t.Errorf("At(1h) = %v, want 25 (hold forever)", got)
	}
}

func TestTimeSeriesSameInstantOverwrites(t *testing.T) {
	ts := NewTimeSeries()
	ts.Record(time.Second, 1)
	ts.Record(time.Second, 2)
	ts.Record(time.Second, 3)
	if len(ts.times) != 1 {
		t.Errorf("len = %d, want 1", len(ts.times))
	}
	if got := ts.At(time.Second); got != 3 {
		t.Errorf("At = %v, want final value 3", got)
	}
}

func TestTimeSeriesRegressionPanics(t *testing.T) {
	ts := NewTimeSeries()
	ts.Record(2*time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ts.Record(1*time.Second, 2)
}

func TestTimeSeriesSampleGrid(t *testing.T) {
	ts := NewTimeSeries()
	ts.Record(0, 1)
	ts.Record(5*time.Second, 2)
	times, values := ts.Sample(10*time.Second, 10)
	if len(times) != 11 || len(values) != 11 {
		t.Fatalf("grid sizes %d, %d", len(times), len(values))
	}
	if values[0] != 1 || values[4] != 1 || values[5] != 2 || values[10] != 2 {
		t.Errorf("sampled values = %v", values)
	}
	if times[10] != 10*time.Second {
		t.Errorf("last grid point = %v", times[10])
	}
}

func TestTimeSeriesSamplePanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTimeSeries().Sample(time.Second, 0)
}

func TestTimeSeriesPointsAreCopies(t *testing.T) {
	ts := NewTimeSeries()
	ts.Record(time.Second, 1)
	times, values := ts.Points()
	times[0] = 0
	values[0] = 99
	if got := ts.At(time.Second); got != 1 {
		t.Error("Points() must return defensive copies")
	}
}
