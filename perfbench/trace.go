package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Trace;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps finished spans in memory until the run ends. A nil
// *tracer records nothing, so measured runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is a started span; finish records it.
type active struct {
	t *tracer
	s span
}

type spanKey struct{}

// start opens a span named name under the span carried by ctx (a new
// trace when ctx carries none) and returns ctx carrying the new span.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *active) {
	if t == nil {
		return ctx, nil
	}
	a := &active{t: t, s: span{ID: t.ids.Add(1), Name: name, Start: int64(time.Since(t.t0))}}
	if parent, ok := ctx.Value(spanKey{}).(*active); ok && parent != nil {
		a.s.Parent, a.s.Trace = parent.s.ID, parent.s.Trace
	} else {
		a.s.Trace = a.s.ID
	}
	return context.WithValue(ctx, spanKey{}, a), a
}

// finish closes the span, renaming it when name is non-empty (the
// handler learns its route and cache outcome only after it ran).
func (a *active) finish(name string) {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.t.t0))
	if name != "" {
		a.s.Name = name
	}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// timed runs fn inside a root span and returns its duration.
func (t *tracer) timed(name string, fn func()) time.Duration {
	_, a := t.start(context.Background(), name)
	start := time.Now()
	fn()
	d := time.Since(start)
	a.finish("")
	return d
}

// snapshot returns a copy of the finished spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfStat is the mean self time of one span name and its span count.
type selfStat struct {
	Mean time.Duration
	N    int
}

// selfTimes returns, per span name, the mean self time — duration minus
// the time covered by direct children — and the span count.
func selfTimes(spans []span) map[string]selfStat {
	child := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	sum := map[string]time.Duration{}
	cnt := map[string]int{}
	for _, s := range spans {
		sum[s.Name] += s.dur() - child[s.ID]
		cnt[s.Name]++
	}
	out := map[string]selfStat{}
	for name, total := range sum {
		out[name] = selfStat{total / time.Duration(cnt[name]), cnt[name]}
	}
	return out
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
