package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Layers a span can belong to. The benchmark records spans only around its
// own calls into the program, so each layer's span covers the layers below
// it; self time subtracts them again.
const (
	layerBench = "bench" // the harness: passes, client requests, checks
	layerServe = "serve" // the daemon's HTTP handler (middleware around Handler())
	layerExper = "exper" // calls into the experiment engine
)

// span is one timed interval. Times are nanoseconds since the tracer's
// start. Spans of one HTTP request share Req; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one branch per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; end closes and keeps it. begin on a nil tracer
// returns nil, and end(nil) does nothing.
func (t *tracer) begin(layer, name string, parent, req int64) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: int64(time.Since(t.t0))}
}

func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// spanID is s.ID, or 0 for a nil span.
func spanID(s *span) int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.all())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// spanCost measures what recording one span costs on this host, so the
// traced run can state its own overhead as spans x cost.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(layerBench, "calibrate", 0, 0))
	}
	return time.Since(start) / n
}
