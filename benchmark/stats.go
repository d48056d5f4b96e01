package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nsQuantile is quantile over a latency sample in nanoseconds.
func nsQuantile(ns []int64, q float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return quantile(xs, q)
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// seconds times fn.
func seconds(fn func()) float64 {
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}

// setupRounds runs a workload's set-up `rounds` times and returns the
// value of the last round, plus setup_s: the time from process start
// to the first round, plus the median round. Earlier rounds are torn
// down with the closer the set-up returns.
func setupRounds[T any](b *bench, rounds int, setup func() (T, func())) T {
	if b.quick {
		rounds = 1
	}
	lead := time.Since(procStart).Seconds()
	var (
		v     T
		times []float64
	)
	for i := 0; i < rounds; i++ {
		var closer func()
		times = append(times, seconds(func() { v, closer = setup() }))
		if i < rounds-1 && closer != nil {
			closer()
		}
	}
	b.info("setup_rounds", float64(rounds), "count")
	if b.tr == nil {
		b.set("setup_s", lead+median(times))
	}
	return v
}
