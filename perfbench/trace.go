package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Calls made for
// one request share Req; Parent is the id of the span that caused this
// one (0 for a root).
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// only hands out ids, so untraced runs pay one atomic add per call.
type tracer struct {
	on    bool
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// newID returns a fresh id, used both for spans and for request ids.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// timed runs fn as a span named name and returns its duration. The span
// id is passed to fn so that nested calls can name it as their parent.
func (t *tracer) timed(name string, parent, req int64, fn func(id int64)) time.Duration {
	id := t.newID()
	start := time.Now()
	fn(id)
	end := time.Now()
	if t.on {
		t.mu.Lock()
		t.spans = append(t.spans, span{name, id, parent, req, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))})
		t.mu.Unlock()
	}
	return end.Sub(start)
}

// durations returns the durations in milliseconds of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// spanSummary is one span name's totals in the trace file.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the total minus the part of each span's interval that
	// its child spans cover.
	SelfMs float64 `json:"self_ms"`
	P50Ms  float64 `json:"p50_ms"`
}

// summary computes per-name totals and self times.
func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*spanSummary{}
	durs := map[string][]float64{}
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := float64(s.EndNs-s.StartNs) / 1e6
		sum.Count++
		sum.TotalMs += d
		sum.SelfMs += d - covered(s, children[s.ID])
		durs[s.Name] = append(durs[s.Name], d)
	}
	out := make([]spanSummary, 0, len(byName))
	for name, sum := range byName {
		sum.P50Ms = median(durs[name])
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how many milliseconds of parent's interval the union
// of its children's intervals covers.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return float64(total) / 1e6
}

// write saves the spans and their summary as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	blob, err := json.Marshal(struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{t.summary(), spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// spanCost measures what recording one span costs, by recording n empty
// spans into a throwaway tracer.
func spanCost(n int) time.Duration {
	t := newTracer(true)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.timed("calibrate", 0, 0, func(int64) {})
	}
	return time.Since(start) / time.Duration(n)
}
