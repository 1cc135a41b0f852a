package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one verdict share Verdict; Parent links a
// span to the span that caused it (-1 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Verdict int    `json:"verdict"`
	Name    string `json:"name"`
	Program string `json:"program,omitempty"`
	// Op orders the verdict roots of a run deterministically (client,
	// then the client's op index); 0 for set-up and probe roots.
	Op      int                `json:"op,omitempty"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

func (s *span) durMs() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced verdicts pay one nil check per call.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	verdict int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// scope is an open span; end closes it. The zero scope (from a nil
// tracer) is inert and its children are inert too.
type scope struct {
	t       *tracer
	id      int
	verdict int
	program string
}

// root opens the parentless span of a new verdict; the verdict's spans
// share its fresh ID.
func (t *tracer) root(name string, op int) scope {
	if t == nil {
		return scope{}
	}
	t.mu.Lock()
	t.verdict++
	v := t.verdict
	t.mu.Unlock()
	s := t.open(-1, v, name, "")
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[s.id].Op = op
	return s
}

// named labels the span with the program it works on; spans opened
// from the returned scope inherit the label.
func (s scope) named(program string) scope {
	if s.t == nil {
		return s
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans[s.id].Program = program
	s.program = program
	return s
}

func (t *tracer) open(parent, verdict int, name, program string) scope {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Verdict: verdict, Name: name,
		Program: program, StartNs: now})
	return scope{t: t, id: id, verdict: verdict, program: program}
}

// child opens a span caused by s.
func (s scope) child(name string) scope {
	if s.t == nil {
		return scope{}
	}
	return s.t.open(s.id, s.verdict, name, s.program)
}

// end closes the span and attaches the counts measured at its boundary.
func (s scope) end(counts map[string]float64) {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	sp := &s.t.spans[s.id]
	sp.EndNs = now
	if counts != nil {
		sp.Counts = counts
	}
}

// call runs fn inside a child span of s.
func (s scope) call(name string, fn func()) {
	c := s.child(name)
	fn()
	c.end(nil)
}

// selfMs returns each span's duration minus the time its direct
// children cover (children of one span never overlap: every layer call
// is sequential within a verdict).
func selfMs(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i := range spans {
		self[i] = spans[i].durMs()
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].durMs()
		}
	}
	return self
}

// setCounts attaches counts to the span, open or closed.
func (s scope) setCounts(counts map[string]float64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans[s.id].Counts = counts
}
