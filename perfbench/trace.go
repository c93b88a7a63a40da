package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps the spans of a traced run in memory; write saves them once,
// at the end. Every method is a no-op on a nil tracer, so the timed code is
// the same with tracing on and off.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans begun and not yet ended, innermost last
}

// span is one call into a layer, timed from outside the program.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 for a root
	Req     int64  `json:"req"`    // frame id, -1 when the span covers no single frame
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span inside the innermost open one and returns its index
// for end. Spans nest: each is ended before the span enclosing it.
func (t *tracer) begin(name string, req int64) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.t0)), EndNS: -1, Parent: parent, Req: req})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// ms returns the durations in milliseconds of the closed spans named name.
func (t *tracer) ms(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS >= 0 {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// medianMS is the median duration of the spans named name.
func (t *tracer) medianMS(name string) float64 { return quantile(t.ms(name), 0.5) }

// sumMS is the total duration of the spans named name.
func (t *tracer) sumMS(name string) float64 {
	var sum float64
	for _, d := range t.ms(name) {
		sum += d
	}
	return sum
}

// write saves the spans as JSON lines after a header line with the
// machine stamp.
func (t *tracer) write(path, stamp string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"machine\":%q}\n", stamp)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
