package stats

import (
	"fmt"
	"sort"
	"time"
)

// TimeSeries is a piecewise-constant (step) time series: the natural
// representation of counters in a discrete-event simulation, such as the
// "accumulated infected hosts" and "active infected hosts" curves of
// Figs. 9 and 10. Values change only at recorded instants and hold until
// the next record.
type TimeSeries struct {
	times  []time.Duration
	values []float64
}

// NewTimeSeries returns an empty series.
func NewTimeSeries() *TimeSeries {
	return &TimeSeries{}
}

// Record appends an observation. Timestamps must be non-decreasing; a
// regression is a programming error in the simulator and panics.
// Recording a new value at an existing last timestamp overwrites it
// (several state changes can occur at one simulated instant; the final
// one is the observable value).
func (ts *TimeSeries) Record(t time.Duration, v float64) {
	n := len(ts.times)
	if n > 0 && t < ts.times[n-1] {
		panic(fmt.Sprintf("stats: time series regression: %v after %v", t, ts.times[n-1]))
	}
	if n > 0 && t == ts.times[n-1] {
		ts.values[n-1] = v
		return
	}
	ts.times = append(ts.times, t)
	ts.values = append(ts.values, v)
}

// At returns the series value at time t (the last recorded value with
// timestamp <= t). Before the first record the series is 0.
func (ts *TimeSeries) At(t time.Duration) float64 {
	idx := sort.Search(len(ts.times), func(i int) bool { return ts.times[i] > t })
	if idx == 0 {
		return 0
	}
	return ts.values[idx-1]
}

// Sample evaluates the series on a regular grid of n+1 points spanning
// [0, horizon]: the form consumed by plotting and by the figure
// harness's printed tables.
func (ts *TimeSeries) Sample(horizon time.Duration, n int) (times []time.Duration, values []float64) {
	if n < 1 {
		panic("stats: Sample needs n >= 1")
	}
	times = make([]time.Duration, n+1)
	values = make([]float64, n+1)
	for i := 0; i <= n; i++ {
		t := time.Duration(int64(horizon) * int64(i) / int64(n))
		times[i] = t
		values[i] = ts.At(t)
	}
	return times, values
}

// Points returns copies of the raw step points.
func (ts *TimeSeries) Points() (times []time.Duration, values []float64) {
	times = append([]time.Duration(nil), ts.times...)
	values = append([]float64(nil), ts.values...)
	return times, values
}
