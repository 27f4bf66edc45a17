package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0 for the
// operation's root). Counts are taken at the same boundary as the times.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end then do nothing but compare a pointer.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (IDs start at 1).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span, attaching the counts measured inside it.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Counts = counts
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children of one parent do not
// overlap each other here (each operation runs on one goroutine), so the
// covered part is the sum of the children's durations clipped to the
// parent's interval.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		if covered := min(s.End, p.End) - max(s.Start, p.Start); covered > 0 {
			self[p.ID] -= covered
		}
	}
	return self
}

// selfByName groups self times (in the unit of one `per`) by span name.
func selfByName(spans []span, per time.Duration) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID])/float64(per))
	}
	return out
}

// spanCounts collects one count from every span of one name.
func spanCounts(spans []span, name, count string) []float64 {
	var out []float64
	for _, s := range spans {
		if v, ok := s.Counts[count]; ok && s.Name == name {
			out = append(out, v)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// annotate adds a count to a span already closed: a count measured by
// readings that must themselves stay outside the span's interval.
func (t *tracer) annotate(id int, name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[id-1].Counts == nil {
		t.spans[id-1].Counts = map[string]float64{}
	}
	t.spans[id-1].Counts[name] = v
}
