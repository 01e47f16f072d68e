package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the harness's own files, around calls into each layer's public
// functions; granularity is per frame or per vehicle leg, never per
// record (a clock read costs as much as a TransformStage.Feed).
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for a
	// root. Spans of one frame or one vehicle share Trace.
	Parent int    `json:"parent"`
	Trace  uint64 `json:"trace_id"`
}

// tracer keeps spans in memory until write. A nil *tracer records
// nothing and reads no clock: the untraced run takes the same code path
// with a nil tracer, so the wall difference between the two is the
// tracing overhead.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// newTracer makes room for spans up front: growing the slice mid-run
// would charge the traced pass for garbage the untraced one never makes.
func newTracer(spans int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, spans)}
}

// begin opens a span and returns its index (-1 from a nil tracer).
func (t *tracer) begin(name string, parent int, trace uint64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Trace: trace})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// adopt appends another tracer's spans, re-basing their parent links.
func (t *tracer) adopt(o *tracer) {
	base := len(t.spans)
	shift := int64(o.epoch.Sub(t.epoch))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
}

// layerTime is what the spans say about one span name.
type layerTime struct {
	Count int
	Total time.Duration // sum of durations
	Self  time.Duration // durations minus the part child spans cover
}

// byName aggregates spans per name; self time is a span's duration
// minus its children's durations.
func (t *tracer) byName() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - child[i])
		out[s.Name] = lt
	}
	return out
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
