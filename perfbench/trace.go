package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share Op; Parent is the id of the
// enclosing span (0 for an operation's root). Start and End are offsets
// from the tracer's creation.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the untraced path pays one
// nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-measured span, for intervals cut at observer
// callbacks rather than around a call.
func (t *tracer) record(name string, op, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// checkNesting verifies that every span is closed, lies inside its
// parent's interval, and belongs to its parent's operation.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q not closed or ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) || s.Parent >= s.ID {
			return fmt.Errorf("span %d %q has invalid parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if p.Op != s.Op {
			return fmt.Errorf("span %d %q is in op %d, its parent %d in op %d", s.ID, s.Name, s.Op, p.ID, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%v,%v] escapes parent %d %q [%v,%v]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

// layerOf maps a span name to its layer: the prefix before the first
// dot. An operation's root span ("op") holds the unattributed remainder.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "unattributed"
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
