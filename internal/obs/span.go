package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// StageRecord is one recorded stage: its name and how long it took.
// Records keep insertion order; a stage recorded twice (e.g. transfer
// split around the code push) appears twice and aggregates in ByStage.
type StageRecord struct {
	Stage string
	Dur   time.Duration
}

// Span is one request's stage breakdown. A span is owned by a single
// request flow at a time: the device proc in simulations, the connection
// handler (and the engine procs it injects, which are strictly ordered
// with it) in the realtime server. It is not safe for concurrent writers.
//
// The nil span is the disabled span: every method on it is a no-op costing
// one pointer comparison, which is what makes instrumentation affordable
// to leave in hot paths unconditionally.
type Span struct {
	stages []StageRecord
	// inline backs stages until a request records more than spanInline of
	// them: a cold TCP request records three, a warm one one.
	inline [spanInline]StageRecord
}

// spanInline is how many stages a span holds without a second allocation.
const spanInline = 4

// NewSpan returns an empty, enabled span.
func NewSpan() *Span { return &Span{} }

// Add records one stage duration. Negative durations clamp to zero (a
// paced clock read race can produce them in realtime paths). Nil-safe.
func (s *Span) Add(stage string, d time.Duration) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	if s.stages == nil {
		s.stages = s.inline[:0]
	}
	s.stages = append(s.stages, StageRecord{Stage: stage, Dur: d})
}

// Stages returns the records in insertion order. The slice is the span's
// own backing store; callers must not mutate it. Nil-safe (returns nil).
func (s *Span) Stages() []StageRecord {
	if s == nil {
		return nil
	}
	return s.stages
}

// ByStage aggregates the records into per-stage totals. Nil-safe.
func (s *Span) ByStage() map[string]time.Duration {
	if s == nil {
		return nil
	}
	m := make(map[string]time.Duration, len(s.stages))
	for _, r := range s.stages {
		m[r.Stage] += r.Dur
	}
	return m
}

// TopLevelTotal sums the top-level stages (names without a '/'): the
// span's reconstruction of the end-to-end response time. Nil-safe.
func (s *Span) TopLevelTotal() time.Duration {
	var t time.Duration
	for _, r := range s.Stages() {
		if !strings.Contains(r.Stage, "/") {
			t += r.Dur
		}
	}
	return t
}

// String renders the aggregated breakdown, stages sorted by name.
func (s *Span) String() string {
	if s == nil {
		return "span(disabled)"
	}
	agg := s.ByStage()
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("span(")
	for i, n := range names {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%v", n, agg[n])
	}
	b.WriteString(")")
	return b.String()
}
