package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// operation share Op (the id of its root span); N counts the work
// items the span covered (quotes, evaluations, messages).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
}

// tracer keeps spans in memory until write. Every method is a no-op on
// a nil tracer, so untraced runs pass nil and pay one nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 opens a new operation) and returns
// its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes span id, recording n work items.
func (t *tracer) end(id int, n int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
}

// point records a zero-length span: an event such as a callback.
func (t *tracer) point(parent int, name string, n int64) {
	t.end(t.begin(parent, name), n)
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerStat aggregates every closed span of one name.
type layerStat struct {
	Spans   int   `json:"spans"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"` // total minus the time child spans cover
	N       int64 `json:"n"`
}

// summary aggregates spans by name.
func (t *tracer) summary() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Spans++
		st.TotalNs += s.End - s.Start
		st.SelfNs += s.End - s.Start - covered(s, children[s.ID])
		st.N += s.N
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers; concurrent children may overlap.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// perItem returns the mean span time per work item of name, in ns.
func perItem(sum map[string]*layerStat, name string) float64 {
	st := sum[name]
	if st == nil || st.N == 0 {
		return 0
	}
	return float64(st.TotalNs) / float64(st.N)
}

// perSpan returns the mean duration of spans of name, in ns.
func perSpan(sum map[string]*layerStat, name string) float64 {
	st := sum[name]
	if st == nil || st.Spans == 0 {
		return 0
	}
	return float64(st.TotalNs) / float64(st.Spans)
}

// medianMs returns the median duration of closed spans of name, in ms.
func (t *tracer) medianMs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			ds = append(ds, float64(s.End-s.Start)/1e6)
		}
	}
	return median(ds)
}

// write saves the spans, their per-name summary and meta to path.
func (t *tracer) write(path string, meta map[string]any) error {
	sum := t.summary()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Meta    map[string]any        `json:"meta"`
		Summary map[string]*layerStat `json:"summary"`
		Spans   []span                `json:"spans"`
	}{meta, sum, t.spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
