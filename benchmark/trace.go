package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval at a layer boundary. The benchmark records
// spans from its own files, around its calls into each layer; nothing inside
// the simulator is instrumented. Spans of one iteration share Iter, and
// Parent is the span that was open when this one began (-1 for a root).
//
// An aggregate span stands for many short calls made under one parent (64 k
// StartFlow calls inside the run phase of rpc-churn): Count is how many,
// BusyNs the sum of their durations, and Start/End the first start and last
// end. For an ordinary span Count is 1 and BusyNs is End-Start.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Iter    int              `json:"iter"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	BusyNs  int64            `json:"busy_ns"`
	Count   int64            `json:"count"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; writeTrace writes them out when the run ends.
type tracer struct {
	t0    time.Time
	iter  int
	spans []span
	stack []int // open ordinary spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: now()} }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.t0).Nanoseconds() }

func (t *tracer) top() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.top(), Iter: t.iter, Name: name, StartNs: t.at(now()), Count: 1})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t.top() != id {
		panic("trace: spans must close innermost first")
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.EndNs = t.at(now())
	s.BusyNs = s.EndNs - s.StartNs
}

// call folds one short call [start, end) into the aggregate span of that
// name under the innermost open span, creating it on first use.
func (t *tracer) call(name string, start, end time.Time) {
	parent := t.top()
	for i := len(t.spans) - 1; i >= 0 && i > parent; i-- {
		s := &t.spans[i]
		if s.Parent == parent && s.Name == name && s.Iter == t.iter {
			s.EndNs = t.at(end)
			s.BusyNs += end.Sub(start).Nanoseconds()
			s.Count++
			return
		}
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Iter: t.iter, Name: name,
		StartNs: t.at(start), EndNs: t.at(end), BusyNs: end.Sub(start).Nanoseconds(), Count: 1})
}

// count records a counter on the innermost open span, so ratios are taken
// where the work happens.
func (t *tracer) count(key string, v int64) {
	s := &t.spans[t.top()]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += v
}

// selfNs is each span's busy time minus the busy time of its children.
func selfNs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.BusyNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.BusyNs
		}
	}
	return self
}

// busyMs sums the busy time of the spans of one iteration with the given
// name (a phase may be entered more than once).
func busyMs(spans []span, iter int, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Iter == iter && s.Name == name {
			ns += s.BusyNs
		}
	}
	return float64(ns) / 1e6
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// SelfMs is self time by span name, summed over the file: the first
	// thing to read. Spans holds the intervals themselves.
	SelfMs map[string]float64 `json:"self_ms"`
	Spans  []span             `json:"spans"`
}

func writeTrace(path, workload string, seed uint64, spans []span) error {
	tf := traceFile{Workload: workload, Seed: seed, SelfMs: map[string]float64{}, Spans: spans}
	for i, ns := range selfNs(spans) {
		tf.SelfMs[spans[i].Name] += float64(ns) / 1e6
	}
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
