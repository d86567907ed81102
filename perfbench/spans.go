package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job share its id;
// parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Job    int           `json:"job"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the timed and traced modes share one code path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its index.
func (t *tracer) open(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Job: job})
	return len(t.spans) - 1
}

// close ends span i.
func (t *tracer) close(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
}

// add records a finished span with explicit bounds.
func (t *tracer) add(name string, parent, job int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Job: job})
}

// layerStat is the self time of every span with one name: its
// duration minus the part its child spans cover.
type layerStat struct {
	n    int
	self time.Duration
}

func (l layerStat) meanMS() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.self) / float64(l.n) / 1e6
}

// selfTimes aggregates self time by span name.
func (t *tracer) selfTimes() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]layerStat{}
	for i, s := range t.spans {
		l := out[s.Name]
		l.n++
		l.self += self[i]
		out[s.Name] = l
	}
	return out
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
