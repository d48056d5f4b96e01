package telemetry

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheusCounterGauge(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("conns_total", "connections by decision", "decision").With("allow").Add(4)
	r.Gauge("depth", "queue depth").Set(2.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP conns_total connections by decision\n",
		"# TYPE conns_total counter\n",
		`conns_total{decision="allow"} 4` + "\n",
		"# TYPE depth gauge\n",
		"depth 2.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "request latency")
	h.Observe(time.Microsecond)      // bucket 10 (values < 1024ns at le 1.024e-06)
	h.Observe(500 * time.Nanosecond) // bucket 9
	h.Observe(time.Millisecond)      // bucket 20

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE latency_seconds histogram\n",
		`latency_seconds_bucket{le="+Inf"} 3` + "\n",
		"latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the last finite bucket carries all 3.
	if !strings.Contains(out, `latency_seconds_bucket{le="1.048576e-03"} 3`) &&
		!strings.Contains(out, `latency_seconds_bucket{le="0.001048576"} 3`) {
		t.Errorf("missing cumulative final bucket:\n%s", out)
	}
	// Sum is in seconds.
	if !strings.Contains(out, "latency_seconds_sum 0.0010015") {
		t.Errorf("missing sum in seconds:\n%s", out)
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("odd_total", "line1\nline2 and \\slash", "path").
		With(`a"b\c` + "\n").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP odd_total line1\nline2 and \\slash`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `odd_total{path="a\"b\\c\n"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != contentType {
		t.Errorf("Content-Type = %q, want %q", got, contentType)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "hits_total 1") {
		t.Errorf("body missing sample: %q", buf[:n])
	}
}
