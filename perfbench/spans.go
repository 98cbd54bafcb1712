package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one layer boundary the benchmark crossed: a timed call into
// the program. Spans of one setup or job share a run id.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 for a root
	Run    int     `json:"run"`
}

// tracer keeps spans in memory until the benchmark ends. begin, end and
// span are no-ops on a nil tracer, which is how untraced runs call them.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.origin).Seconds() }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Run: run})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
}

// span runs fn inside a span.
func (t *tracer) span(name string, parent, run int, fn func()) {
	id := t.begin(name, parent, run)
	fn()
	t.end(id)
}

// durations returns the duration of every span with the given name, in
// order.
func (t *tracer) durations(name string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.End-s.Start)
		}
	}
	return ds
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
