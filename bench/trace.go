package main

// Tracing from outside: the benchmark opens a span around each call
// into a layer's public functions. Spans stay in memory and are
// written to bench/out/trace-<workload>.json when the run ends. A nil
// *tracer records nothing, so the same code runs the untraced
// repetitions whose difference is the tracing overhead.

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one timed call. Start and End are nanoseconds since the
// tracer was made. Parent indexes the tracer's span list (-1 for a
// root). Spans of one query share Query; probe spans, which time a
// layer outside any query, have Query -1.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Query    int    `json:"query"`
	// Allocs and Bytes are runtime.MemStats deltas (Mallocs,
	// TotalAlloc) around the call, for spans opened with mem.
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
}

type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index; on a nil tracer it
// returns -1.
func (t *tracer) begin(name string, parent, query int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Workload: t.workload, Name: name, Parent: parent, Query: query})
	id := len(t.spans) - 1
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// call times f as a child span of parent.
func (t *tracer) call(name string, parent, query int, f func()) {
	id := t.begin(name, parent, query)
	f()
	t.end(id)
}

// callMem is call plus allocation counts. The MemStats reads stop the
// world; they sit outside the span, in the parent's self time, and
// are part of what raquery.trace_overhead_frac measures.
func (t *tracer) callMem(name string, parent, query int, f func()) {
	if t == nil {
		f()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.begin(name, parent, query)
	f()
	t.end(id)
	runtime.ReadMemStats(&after)
	t.spans[id].Allocs = after.Mallocs - before.Mallocs
	t.spans[id].Bytes = after.TotalAlloc - before.TotalAlloc
}

// spanStats holds one value per span of a given name.
type spanStats struct {
	// total is the span's seconds, self is total minus the part its
	// children cover, covered is that part as a share of total.
	total, self, covered []float64
	allocs, bytes        []float64
}

// stats collects the workload's spans named name: the probes (spans
// outside any query) or the spans inside queries.
func (t *tracer) stats(workload, name string, probes bool) spanStats {
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var st spanStats
	for i, s := range t.spans {
		if s.Workload != workload || s.Name != name || probes != (s.Query < 0) {
			continue
		}
		dur := s.End - s.Start
		st.total = append(st.total, float64(dur)/1e9)
		st.self = append(st.self, float64(dur-children[i])/1e9)
		st.covered = append(st.covered, float64(children[i])/float64(dur))
		st.allocs = append(st.allocs, float64(s.Allocs))
		st.bytes = append(st.bytes, float64(s.Bytes))
	}
	return st
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (q = 0.5 is the median).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}
