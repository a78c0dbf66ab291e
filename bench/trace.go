package main

// Spans for the traced run. The benchmark records them from its own code,
// around each call into an openbi module; nothing inside the program is
// instrumented. Spans live in memory and are written out once, at the end.

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call. Parent is the index of the enclosing span, -1 for
// a root. Times are nanoseconds since the run's epoch.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// maxSpans bounds the trace's memory and file size. Past it, calls are
// still timed (the metrics come from the returned durations) but no longer
// recorded.
const maxSpans = 150000

// tracer records nested spans on one goroutine; every traced call in the
// benchmark is serial, so the innermost open span is the parent.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int32 // stack of open span indices; -1 for an unrecorded one
	calls    int     // spans begun, recorded or not
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

type spanRef struct {
	idx   int32
	start time.Time
}

func (t *tracer) begin(name string) spanRef {
	t.calls++
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{ID: idx, Parent: parent, Name: name, Workload: t.workload})
	}
	t.open = append(t.open, idx)
	ref := spanRef{idx: idx, start: time.Now()}
	if idx >= 0 {
		t.spans[idx].Start = ref.start.Sub(t.epoch).Nanoseconds()
	}
	return ref
}

// finish closes the innermost open span and returns its duration.
func (t *tracer) finish(ref spanRef) time.Duration {
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	if ref.idx >= 0 {
		t.spans[ref.idx].End = end.Sub(t.epoch).Nanoseconds()
	}
	return end.Sub(ref.start)
}

// rename gives a finished span the name its outcome decides, such as a
// cache hit or miss.
func (t *tracer) rename(ref spanRef, name string) {
	if ref.idx >= 0 {
		t.spans[ref.idx].Name = name
	}
}

// time runs fn inside a span and returns the span's duration.
func (t *tracer) time(name string, fn func() error) (time.Duration, error) {
	ref := t.begin(name)
	err := fn()
	return t.finish(ref), err
}

// spanCost measures what recording one span costs, for the tracing
// overhead estimate.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer("calibration")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.finish(t.begin("x"))
	}
	return time.Since(t0) / n
}

// selfTimes returns each span's self time — its duration minus the part of
// it that its children cover — summed by span name.
func (t *tracer) selfTimes() map[string]int64 {
	children := make(map[int32][]int32)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := map[string]int64{}
	for _, s := range t.spans {
		covered := int64(0)
		var iv [][2]int64
		for _, c := range children[s.ID] {
			iv = append(iv, [2]int64{t.spans[c].Start, t.spans[c].End})
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		curS, curE := int64(0), int64(-1)
		for _, x := range iv {
			if x[0] > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = x[0], x[1]
			} else if x[1] > curE {
				curE = x[1]
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// layerOf is the module a span name belongs to: the text before its first
// dot ("rdf.decode.nt" → "rdf").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// traceFile is the layout of trace.json.
type traceFile struct {
	Workload      string           `json:"workload"`
	Seed          int64            `json:"seed"`
	Epoch         time.Time        `json:"epoch"`
	SpanCostNs    int64            `json:"span_cost_ns"`
	Calls         int              `json:"calls"`
	Dropped       int              `json:"dropped"`
	SelfNs        map[string]int64 `json:"self_ns"`
	SelfNsByLayer map[string]int64 `json:"self_ns_by_layer"`
	Spans         []span           `json:"spans"`
}

func (t *tracer) write(path string, seed int64, cost time.Duration, self map[string]int64) error {
	byLayer := map[string]int64{}
	for name, ns := range self {
		byLayer[layerOf(name)] += ns
	}
	data, err := json.Marshal(traceFile{
		Workload: t.workload, Seed: seed, Epoch: t.epoch, SpanCostNs: cost.Nanoseconds(),
		Calls: t.calls, Dropped: t.calls - len(t.spans), SelfNs: self, SelfNsByLayer: byLayer, Spans: t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
