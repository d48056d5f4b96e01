package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRecordRoundTrip(t *testing.T) {
	in := []Record{
		{
			Start: 12 * time.Second, Duration: 3 * time.Second,
			Proto: "smtp", BytesOrig: 100, BytesResp: 2000,
			Local: 5, Remote: 99, State: "SF",
		},
		{
			Start: 100 * time.Millisecond, Duration: -time.Second,
			Proto: "telnet", BytesOrig: -1, BytesResp: -1,
			Local: 0, Remote: 1, State: "REJ",
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("parsed %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Proto != in[i].Proto || out[i].Local != in[i].Local ||
			out[i].Remote != in[i].Remote || out[i].State != in[i].State {
			t.Errorf("record %d fields changed: %+v vs %+v", i, out[i], in[i])
		}
		if (out[i].Start - in[i].Start).Abs() > time.Millisecond {
			t.Errorf("record %d start drifted: %v vs %v", i, out[i].Start, in[i].Start)
		}
		if in[i].BytesOrig == -1 && out[i].BytesOrig != -1 {
			t.Errorf("record %d unknown bytes not preserved", i)
		}
	}
	// Unknown duration round-trips as negative.
	if out[1].Duration >= 0 {
		t.Error("unknown duration should stay negative")
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	input := `# LBL-CONN-7 style trace
0.5000 1.0000 smtp 10 20 1 2 SF

# another comment
1.0000 ? nntp ? ? 3 4 REJ
`
	recs, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2", len(recs))
	}
	if recs[1].BytesOrig != -1 || recs[1].Duration >= 0 {
		t.Error("'?' fields should map to unknown markers")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"0.5 1.0 smtp 10 20 1 2",               // 7 fields
		"x 1.0 smtp 10 20 1 2 SF",              // bad timestamp
		"-1 1.0 smtp 10 20 1 2 SF",             // negative timestamp
		"0.5 bad smtp 10 20 1 2 SF",            // bad duration
		"0.5 1.0 smtp -5 20 1 2 SF",            // negative bytes
		"0.5 1.0 smtp 10 20 zz 2 SF",           // bad local
		"0.5 1.0 smtp 10 20 1 999999999999 SF", // remote overflow
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", line)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := []GeneratorConfig{
		{Hosts: 0, Span: time.Hour, BodyMedian: 1, BodySigma: 1, BodyCap: 10},
		{Hosts: 1, Span: 0, BodyMedian: 1, BodySigma: 1, BodyCap: 10},
		{Hosts: 1, Span: time.Hour, BodyMedian: 0, BodySigma: 1, BodyCap: 10},
		{Hosts: 1, Span: time.Hour, BodyMedian: 1, BodySigma: -1, BodyCap: 10},
		{Hosts: 1, Span: time.Hour, BodyMedian: 1, BodySigma: 1, BodyCap: 0},
		{Hosts: 1, Span: time.Hour, BodyMedian: 1, BodySigma: 1, BodyCap: 10, RepeatFactor: -1},
		{Hosts: 1, Span: time.Hour, BodyMedian: 1, BodySigma: 1, BodyCap: 10,
			HeavyTargets: []int{5, 5}},
		{Hosts: 2, Span: time.Hour, BodyMedian: 1, BodySigma: 1, BodyCap: 10,
			HeavyTargets: []int{0}},
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGenerateMatchesPaperStatistics(t *testing.T) {
	cfg := DefaultGeneratorConfig(1)
	recs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hosts() != 1645 {
		t.Errorf("hosts = %d, want 1645", a.Hosts())
	}
	// "97% of hosts contacted less than 100 distinct destination IP
	// addresses" — allow the sampling band.
	if f := a.FractionBelow(100); f < 0.945 || f > 0.99 {
		t.Errorf("fraction below 100 = %v, want ≈0.97", f)
	}
	// "Only six hosts contacted more than 1000 distinct IP addresses."
	if n := a.CountAbove(1000); n != 6 {
		t.Errorf("hosts above 1000 = %d, want 6", n)
	}
	// "The most active host has contacted approximately 4000 unique IP
	// addresses."
	top := a.Top(1)
	if len(top) != 1 || top[0].Distinct != 4000 {
		t.Errorf("most active = %+v, want 4000", top)
	}
	// "If ... M is set to be 5000, none of the above hosts will trigger
	// alarm."
	if fa := a.FalseAlarms(5000); fa != 0 {
		t.Errorf("false alarms at M=5000 = %d, want 0", fa)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGeneratorConfig(7)
	cfg.Hosts = 50
	cfg.HeavyTargets = []int{500}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGenerateSortedByTime(t *testing.T) {
	cfg := DefaultGeneratorConfig(8)
	cfg.Hosts = 100
	cfg.HeavyTargets = nil
	recs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatalf("records unsorted at %d", i)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("expected error for empty trace")
	}
}

func TestAnalyzeDistinctCounting(t *testing.T) {
	recs := []Record{
		{Start: 1 * time.Second, Local: 1, Remote: 10},
		{Start: 2 * time.Second, Local: 1, Remote: 10}, // repeat: no new distinct
		{Start: 3 * time.Second, Local: 1, Remote: 11},
		{Start: 4 * time.Second, Local: 2, Remote: 10},
	}
	a, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Distinct[1] != 2 || a.Distinct[2] != 1 {
		t.Errorf("distinct = %v", a.Distinct)
	}
	if a.Hosts() != 2 {
		t.Errorf("hosts = %d", a.Hosts())
	}
	if a.Span != 4*time.Second {
		t.Errorf("span = %v", a.Span)
	}
}

func TestAnalyzeGrowthCurve(t *testing.T) {
	recs := []Record{
		{Start: 0, Local: 1, Remote: 10},
		{Start: 10 * time.Second, Local: 1, Remote: 11},
		{Start: 20 * time.Second, Local: 1, Remote: 12},
	}
	a, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	_, counts, err := a.GrowthCurve(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2, 2, 3}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("growth = %v, want %v", counts, want)
			break
		}
	}
	if _, _, err := a.GrowthCurve(999, 4); err == nil {
		t.Error("expected error for unknown host")
	}
}

func TestAnalyzeUnorderedInput(t *testing.T) {
	// Analyze must sort internally: the later record of a duplicated
	// destination must not count.
	recs := []Record{
		{Start: 10 * time.Second, Local: 1, Remote: 10},
		{Start: 1 * time.Second, Local: 1, Remote: 10},
	}
	a, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Distinct[1] != 1 {
		t.Errorf("distinct = %d, want 1", a.Distinct[1])
	}
	// The growth step must be at the EARLIER time.
	g := a.Growth[1]
	if got := g.At(1 * time.Second); got != 1 {
		t.Errorf("growth at 1s = %v, want 1", got)
	}
}

func TestTopOrderingAndTies(t *testing.T) {
	recs := []Record{
		{Start: 0, Local: 1, Remote: 1},
		{Start: 0, Local: 1, Remote: 2},
		{Start: 0, Local: 2, Remote: 1},
		{Start: 0, Local: 2, Remote: 2},
		{Start: 0, Local: 3, Remote: 1},
	}
	a, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	top := a.Top(3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	// Hosts 1 and 2 tie at 2; host id breaks the tie.
	if top[0].Host != 1 || top[1].Host != 2 || top[2].Host != 3 {
		t.Errorf("top order = %v", top)
	}
	if got := a.Top(10); len(got) != 3 {
		t.Errorf("Top(10) returned %d entries", len(got))
	}
}

func TestRatesPerHour(t *testing.T) {
	recs := []Record{
		{Start: 0, Local: 1, Remote: 1},
		{Start: 2 * time.Hour, Local: 1, Remote: 2},
		{Start: 2 * time.Hour, Local: 2, Remote: 1},
	}
	a, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	rates := a.RatesPerHour()
	if len(rates) != 2 {
		t.Fatalf("rates = %v", rates)
	}
	// Span is 2h: host 1 → 1/h, host 2 → 0.5/h.
	if rates[0] != 1 || rates[1] != 0.5 {
		t.Errorf("rates = %v, want [1 0.5]", rates)
	}
}

func TestFalseAlarms(t *testing.T) {
	recs := []Record{
		{Start: 0, Local: 1, Remote: 1},
		{Start: 0, Local: 1, Remote: 2},
		{Start: 0, Local: 2, Remote: 1},
	}
	a, err := Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.FalseAlarms(2); got != 1 {
		t.Errorf("false alarms at M=2: %d, want 1 (host 1)", got)
	}
	if got := a.FalseAlarms(3); got != 0 {
		t.Errorf("false alarms at M=3: %d, want 0", got)
	}
}
