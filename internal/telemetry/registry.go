package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a metric family.
type Kind int

const (
	// kindCounter is a monotonically increasing total.
	kindCounter Kind = iota + 1
	// kindGauge is an instantaneous value that can go up and down.
	kindGauge
	// kindHistogram is a log₂-bucketed latency distribution.
	kindHistogram
)

// String implements fmt.Stringer using Prometheus TYPE names.
func (k Kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// series is one labeled instrument within a family. Exactly one of the
// value fields is non-nil, matching the family's kind; fn-backed series
// are evaluated lazily at snapshot time.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	fn          func() float64 // counterFunc / gaugeFunc
}

// family is a named group of series sharing a kind and label names.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string

	mu     sync.Mutex
	series map[string]*series // keyed by joined label values
}

// Registry is a named collection of metric families. All methods are
// safe for concurrent use; registration is get-or-create, so package
// wiring can idempotently ask for the same family. Mismatched
// re-registration (same name, different kind or label names) panics —
// that is a programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether name fits the Prometheus metric/label name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// getFamily returns the named family, creating it on first use and
// panicking on any redefinition mismatch.
func (r *Registry) getFamily(name, help string, kind Kind, labelNames []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q in family %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name:       name,
			help:       help,
			kind:       kind,
			labelNames: append([]string(nil), labelNames...),
			series:     make(map[string]*series),
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind || !equalStrings(f.labelNames, labelNames) {
		panic(fmt.Sprintf("telemetry: family %q redefined with kind %v labels %v (was kind %v labels %v)",
			name, kind, labelNames, f.kind, f.labelNames))
	}
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seriesKey joins label values into a map key. The separator cannot
// appear in a label value that would collide, because values are joined
// in order with an unlikely delimiter.
func seriesKey(values []string) string { return strings.Join(values, "\x1f") }

// get returns the series for the given label values, creating it with
// mk on first use.
func (f *family) get(values []string, mk func() *series) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: family %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = mk()
		s.labelValues = append([]string(nil), values...)
		f.series[key] = s
	}
	return s
}

// Counter returns the unlabeled counter of the named family, creating
// the family on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.getFamily(name, help, kindCounter, nil)
	return f.get(nil, func() *series { return &series{counter: newCounter()} }).counter
}

// CounterVec declares a counter family with label dimensions.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family, creating it on first
// use.
func (r *Registry) CounterVec(name, help string, labelNames ...string) CounterVec {
	return CounterVec{f: r.getFamily(name, help, kindCounter, labelNames)}
}

// With returns the counter for the given label values, creating it on
// first use. Callers on hot paths should hoist With out of the loop:
// it takes the family lock.
func (v CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues, func() *series { return &series{counter: newCounter()} }).counter
}

// WithFunc registers a function-backed series under the given label
// values, evaluated at snapshot time. It lets one labeled family mix
// live counters with series derived from state that already has its own
// synchronized source of truth. fn must be monotone and safe to call
// from any goroutine. Registering over an existing series for the same
// label values is a no-op (get-or-create, like With).
func (v CounterVec) WithFunc(fn func() float64, labelValues ...string) {
	v.f.get(labelValues, func() *series { return &series{fn: fn} })
}

// Gauge returns the unlabeled gauge of the named family.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.getFamily(name, help, kindGauge, nil)
	return f.get(nil, func() *series { return &series{gauge: newGauge()} }).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time — the bridge for state that already has its own synchronized
// source of truth (limiter statistics, fleet aggregates, runtime info).
// fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.getFamily(name, help, kindGauge, nil)
	f.get(nil, func() *series { return &series{fn: fn} })
}

// CounterFunc registers a counter whose cumulative value is computed by
// fn at snapshot time. fn must be monotone and safe to call from any
// goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.getFamily(name, help, kindCounter, nil)
	f.get(nil, func() *series { return &series{fn: fn} })
}

// Histogram returns the unlabeled histogram of the named family.
func (r *Registry) Histogram(name, help string) *Histogram {
	f := r.getFamily(name, help, kindHistogram, nil)
	return f.get(nil, func() *series { return &series{hist: newHistogram()} }).hist
}

// SeriesSnapshot is one labeled series' point-in-time value.
type SeriesSnapshot struct {
	// LabelValues aligns with the family's LabelNames.
	LabelValues []string
	// Value holds counter and gauge readings.
	Value float64
	// Histogram holds histogram readings (nil otherwise).
	Histogram *HistogramSnapshot
}

// FamilySnapshot is one family's point-in-time state.
type FamilySnapshot struct {
	Name       string
	Help       string
	Kind       Kind
	LabelNames []string
	// Series is sorted by label values for deterministic output.
	Series []SeriesSnapshot
}

// Snapshot is a point-in-time copy of a whole registry, cheap to take
// (one pass over the instruments) and diffable for windowed rates.
type Snapshot struct {
	Families []FamilySnapshot // sorted by name
}

// Snapshot captures every family. Function-backed series are evaluated
// here, on the scraper's goroutine.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for _, f := range fams {
		f.mu.Lock()
		all := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			all = append(all, s)
		}
		f.mu.Unlock()
		sort.Slice(all, func(i, j int) bool {
			return seriesKey(all[i].labelValues) < seriesKey(all[j].labelValues)
		})
		fs := FamilySnapshot{
			Name:       f.name,
			Help:       f.help,
			Kind:       f.kind,
			LabelNames: f.labelNames,
			Series:     make([]SeriesSnapshot, 0, len(all)),
		}
		for _, s := range all {
			ss := SeriesSnapshot{LabelValues: s.labelValues}
			switch {
			case s.counter != nil:
				ss.Value = float64(s.counter.Value())
			case s.gauge != nil:
				ss.Value = s.gauge.Value()
			case s.hist != nil:
				h := s.hist.Snapshot()
				ss.Histogram = &h
			case s.fn != nil:
				ss.Value = s.fn()
			}
			fs.Series = append(fs.Series, ss)
		}
		out.Families = append(out.Families, fs)
	}
	return out
}

// Family returns the named family snapshot, or nil.
func (s Snapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Value returns the value of the named family's series with the given
// label values (ok = false when absent).
func (s Snapshot) Value(name string, labelValues ...string) (float64, bool) {
	f := s.Family(name)
	if f == nil {
		return 0, false
	}
	key := seriesKey(labelValues)
	for _, ss := range f.Series {
		if seriesKey(ss.LabelValues) == key {
			return ss.Value, true
		}
	}
	return 0, false
}
