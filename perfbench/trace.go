package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// maxSpans bounds the spans kept in memory; later spans still feed the
// per-name duration samples but are not written out.
const maxSpans = 200_000

// span is one timed call into a layer. Spans are not linked to the
// request that caused them: across the wire that needs stage stamps inside
// the program.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory and the durations of each span name. A nil
// *tracer is the untraced run: every method is a no-op.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
	byName  map[string]*sampler
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), byName: make(map[string]*sampler)}
}

// record files a span that started at start and ends now.
func (t *tracer) record(name string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	s := t.byName[name]
	if s == nil {
		s = &sampler{}
		t.byName[name] = s
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	s.addDur(end.Sub(start))
}

// durations returns the samples (ms) of one span name; empty when untraced
// or never recorded.
func (t *tracer) durations(name string) *sampler {
	if t == nil {
		return &sampler{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.byName[name]; s != nil {
		return s
	}
	return &sampler{}
}

// write stores the header object and then every kept span, one JSON object
// per line.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := enc.Encode(map[string]any{"header": header, "spans": len(t.spans), "dropped_spans": t.dropped}); err != nil {
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
