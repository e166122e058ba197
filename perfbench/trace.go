package main

import (
	"sort"
	"time"
)

// span is one in-memory trace record: a named interval around a call
// into one layer, the span that caused it, and the operation it
// belongs to. Spans are kept in memory and written out when the run
// ends (writeResultFile), so tracing adds no I/O to the timed phase.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index of the parent span, -1 for a root
	op         int
}

// tracer records spans; a nil tracer records nothing at no cost, which
// is how untraced operations run the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 when t is nil).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
}

// phases turns a result's per-phase busy times into child spans of
// parent, laid end to end from the parent's start in the given order.
// The program reports phase durations, not instants, so this is the
// layout they describe; their self time is exact either way, and the
// parent's self time is what the phases leave uncovered.
func (t *tracer) phases(parent, op int, names []string, durs []time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	at := t.spans[parent].start
	for i, name := range names {
		if durs[i] <= 0 {
			continue
		}
		t.spans = append(t.spans, span{name: name, start: at, end: at + durs[i], parent: parent, op: op})
		at += durs[i]
	}
}

// selfTimes returns, per span name, the per-operation sums of self
// time: a span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]map[int]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]map[int]time.Duration{}
	for i, s := range spans {
		self := s.end - s.start - covered(spans, children[i], s.start, s.end)
		if out[s.name] == nil {
			out[s.name] = map[int]time.Duration{}
		}
		out[s.name][s.op] += self
	}
	return out
}

// covered is the length of the union of the child intervals, clipped
// to [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			if v.b > curB {
				curB = v.b
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// medianSelfMS is the median, over the operations that ran span name,
// of its per-operation self time in milliseconds; 0 when no operation
// ran it (the layer was bypassed).
func medianSelfMS(self map[string]map[int]time.Duration, name string) float64 {
	var xs []float64
	for _, d := range self[name] {
		xs = append(xs, ms(d))
	}
	return median(xs)
}

// spansJSON renders spans for the result file.
func spansJSON(spans []span) []map[string]any {
	out := make([]map[string]any, len(spans))
	for i, s := range spans {
		out[i] = map[string]any{
			"id": i, "name": s.name, "parent": s.parent, "op": s.op,
			"start_ns": s.start.Nanoseconds(), "end_ns": s.end.Nanoseconds(),
		}
	}
	return out
}
