package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	pexec "partminer/internal/exec"
)

// span is one timed call into a layer. Spans of one request (a mine, a
// fold, a read) share req; parent is the index of the enclosing span the
// harness opened, -1 for a request's root.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is how the untraced passes run the
// same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// request starts a new request id for the spans that follow.
func (t *tracer) request() {
	if t != nil {
		t.mu.Lock()
		t.req++
		t.mu.Unlock()
	}
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Req = t.req
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens a span under parent and returns its id; -1 on a nil tracer.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(span{Name: name, Start: t.now(), End: -1, Parent: parent})
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call runs f inside a span named name under parent.
func (t *tracer) call(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// merge appends the spans of another tracer (a replay pass run in its
// own process), re-basing their parents and request ids, and returns the
// index of the first.
func (t *tracer) merge(spans []span) int {
	off, reqOff := len(t.spans), t.req
	for _, s := range spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		s.Req += reqOff
		t.req = max(t.req, s.Req)
		t.spans = append(t.spans, s)
	}
	return off
}

// observer turns the stage events core publishes through its exported
// Observer hook into spans under parent: the stages that run only nested
// inside core.MineContext/IncMineContext (unit.<i>, the inner index
// builds, merge.<node>, merge.verify) are visible no other way. Nil on a
// nil tracer.
func (t *tracer) observer(parent int) pexec.Observer {
	if t == nil {
		return nil
	}
	return stageSpans{t: t, parent: parent}
}

type stageSpans struct {
	t      *tracer
	parent int
}

func (o stageSpans) StageStart(string) {}

func (o stageSpans) StageEnd(name string, d time.Duration) {
	end := o.t.now()
	o.t.add(span{Name: name, Start: end - d, End: end, Parent: o.parent})
}

func (o stageSpans) Counter(string, int64) {}

// childIDs lists the ids of the spans opened under id.
func (t *tracer) childIDs(id int) []int {
	var out []int
	for i, s := range t.spans {
		if s.Parent == id {
			out = append(out, i)
		}
	}
	return out
}

// children lists the spans opened under id.
func (t *tracer) children(id int) []span {
	var out []span
	for _, i := range t.childIDs(id) {
		out = append(out, t.spans[i])
	}
	return out
}

// covered is the part of outer's interval that the spans cover.
func covered(outer span, spans []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, outer.Start), min(s.End, outer.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach time.Duration
	reach = outer.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		total += v.b - max(v.a, reach)
		reach = v.b
	}
	return total
}

// sumNamed sums the durations of the spans whose name satisfies match.
func sumNamed(spans []span, match func(string) bool) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if match(s.Name) {
			d += s.dur()
		}
	}
	return d
}

func named(name string) func(string) bool { return func(s string) bool { return s == name } }

func isUnit(name string) bool {
	return strings.HasPrefix(name, "unit.") && !strings.Contains(name[5:], ".")
}

// within lists the spans lying inside one of the spans named outer.
func within(spans []span, outer string) []span {
	var out []span
	for _, o := range spans {
		if o.Name != outer {
			continue
		}
		for _, s := range spans {
			if s.Name != outer && s.Start >= o.Start && s.End <= o.End {
				out = append(out, s)
			}
		}
	}
	return out
}

// write stores the spans as JSON lines and reports where.
func (t *tracer) write(r *run) {
	path := r.path(r.workload + ".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		r.printf("  spans not written: %v", err)
		return
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		enc.Encode(s)
	}
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		r.printf("  spans not written: %v", err)
		return
	}
	r.printf("  %d spans written to %s", len(t.spans), path)
}

// selfTimes sums, per span name, each span's duration minus the part its
// nested spans cover. Nesting is by interval within a request: spans are
// visited by start time, and a span is nested in the innermost open span
// that contains it. Concurrent spans (parallel units, pooled
// verification) that overlap without containment are treated as
// siblings.
func (t *tracer) selfTimes() map[string]time.Duration {
	byReq := map[int][]int{}
	for i, s := range t.spans {
		byReq[s.Req] = append(byReq[s.Req], i)
	}
	self := map[string]time.Duration{}
	for _, ids := range byReq {
		sort.Slice(ids, func(a, b int) bool {
			sa, sb := t.spans[ids[a]], t.spans[ids[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		type open struct {
			s            span
			cover, reach time.Duration
		}
		var stack []open
		closeTop := func() {
			o := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			self[o.s.Name] += o.s.dur() - o.cover
		}
		for _, id := range ids {
			s := t.spans[id]
			for len(stack) > 0 && (s.Start < stack[len(stack)-1].s.Start || s.End > stack[len(stack)-1].s.End) {
				closeTop()
			}
			if len(stack) > 0 {
				top := &stack[len(stack)-1]
				if s.End > top.reach {
					top.cover += s.End - max(s.Start, top.reach)
					top.reach = s.End
				}
			}
			stack = append(stack, open{s: s, reach: s.Start})
		}
		for len(stack) > 0 {
			closeTop()
		}
	}
	return self
}

// printSelf prints the span names with the most self time.
func (t *tracer) printSelf(r *run, top int) {
	self := t.selfTimes()
	var names []string
	var total time.Duration
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	r.printf("  self time by span (all requests, %d span names):", len(names))
	for _, n := range names[:min(top, len(names))] {
		r.printf("    %-24s %10.4f s  %5.1f%%", n, self[n].Seconds(), 100*ratio(float64(self[n]), float64(total)))
	}
}
