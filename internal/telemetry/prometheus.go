package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// This file implements the Prometheus text exposition format v0.0.4:
// one HELP and TYPE line per family followed by one sample line per
// series, histograms expanded into cumulative _bucket{le=...} samples
// plus _sum and _count.

// escapeHelp escapes a HELP string (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, quote, newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...}; extra appends one more pair (used
// for histogram le labels). Returns "" when there are no labels.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// writePrometheus renders the snapshot in the text exposition format.
func (s Snapshot) writePrometheus(w io.Writer) error {
	for _, f := range s.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, ss := range f.Series {
			if f.Kind == kindHistogram && ss.Histogram != nil {
				if err := writeHistogram(w, f, ss); err != nil {
					return err
				}
				continue
			}
			labels := labelString(f.LabelNames, ss.LabelValues, "", "")
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, labels, formatValue(ss.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram expands one histogram series into cumulative buckets.
// Only buckets up to the highest populated one are emitted (plus +Inf),
// keeping 64-bucket histograms compact on the wire; cumulative counts
// make the omission exact, not lossy.
func writeHistogram(w io.Writer, f FamilySnapshot, ss SeriesSnapshot) error {
	h := ss.Histogram
	highest := -1
	for k := 0; k < numBuckets; k++ {
		if h.Counts[k] != 0 {
			highest = k
		}
	}
	var cum uint64
	for k := 0; k <= highest; k++ {
		cum += h.Counts[k]
		// Bucket k counts values < 2^k ns cumulatively; le is seconds.
		le := formatValue(float64(uint64(1)<<uint(k)) / 1e9)
		labels := labelString(f.LabelNames, ss.LabelValues, "le", le)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, labels, cum); err != nil {
			return err
		}
	}
	inf := labelString(f.LabelNames, ss.LabelValues, "le", "+Inf")
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, inf, h.Count); err != nil {
		return err
	}
	base := labelString(f.LabelNames, ss.LabelValues, "", "")
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, base, formatValue(float64(h.SumNanos)/1e9)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, base, h.Count)
	return err
}

// WritePrometheus takes a snapshot and renders it — the scrape entry
// point.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().writePrometheus(w)
}

// contentType is the exposition format's HTTP content type.
const contentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape target (mounted at /metrics by convention).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", contentType)
		if err := r.WritePrometheus(w); err != nil {
			// Headers are already out; the scraper sees a short body and
			// retries on its own schedule.
			_ = err
		}
	})
}
