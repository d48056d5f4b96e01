package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded by the benchmark's own files around the calls it makes;
// spans inside the program are a later issue.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // 0 = root
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	StartNs  int64              `json:"start_ns"` // since process start
	EndNs    int64              `json:"end_ns"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory and writes them out at exit. A nil
// tracer records nothing, so the untraced pass runs the same code.
type tracer struct {
	workload string
	mu       sync.Mutex
	spans    []span
}

// start opens a span under parent and returns its id (0 when not
// tracing).
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(procStart).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: now})
	t.mu.Unlock()
	return id
}

// end closes a span, attaching the counts taken at the same boundary
// as alternating name, value pairs.
func (t *tracer) end(id int, counts ...any) {
	if t == nil {
		return
	}
	now := time.Since(procStart).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.EndNs = now
	for i := 0; i+1 < len(counts); i += 2 {
		if s.Counts == nil {
			s.Counts = map[string]float64{}
		}
		s.Counts[counts[i].(string)] = counts[i+1].(float64)
	}
	t.mu.Unlock()
}

// nameTotal aggregates the spans of one name. Self time is a span's
// duration minus the part of it its child spans cover.
type nameTotal struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) totals() []nameTotal {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := map[string]*nameTotal{}
	for _, s := range t.spans {
		nt := byName[s.Name]
		if nt == nil {
			nt = &nameTotal{Name: s.Name}
			byName[s.Name] = nt
		}
		d := s.EndNs - s.StartNs
		self := d - child[s.ID]
		if self < 0 { // concurrent children can cover more than the parent's wall
			self = 0
		}
		nt.Spans++
		nt.TotalS += float64(d) / 1e9
		nt.SelfS += float64(self) / 1e9
	}
	out := make([]nameTotal, 0, len(byName))
	for _, nt := range byName {
		out = append(out, *nt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans and their per-name totals as one JSON file.
func (t *tracer) write(path string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		ByName   []nameTotal `json:"by_name"`
		Spans    []span      `json:"spans"`
	}{t.workload, seed, t.totals(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
