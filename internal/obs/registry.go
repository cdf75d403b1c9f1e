package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rattrap/internal/metrics"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (pool size, queue depth).
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a concurrent collection of named counters, gauges and
// latency histograms. Get-or-create lookups take a read lock in the
// common (already exists) case; hot paths are expected to resolve their
// instruments once and hold the pointers, so the registry itself is off
// the per-request path. A nil *Registry is inert: lookups return nil
// instruments whose methods are no-ops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]metrics.Snapshotter
	// stageHists is ObserveSpan's (prefix, stage) → Histogram(prefix+stage).
	stageHists map[stageKey]*metrics.ShardedHistogram
}

type stageKey struct{ prefix, stage string }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]metrics.Snapshotter),
		stageHists: make(map[stageKey]*metrics.ShardedHistogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe
// (returns a nil counter whose methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named sharded histogram, creating it on first
// use. Nil-safe (returns nil; ShardedHistogram methods are not nil-safe,
// so callers that may hold a nil registry guard the Observe site).
func (r *Registry) Histogram(name string) *metrics.ShardedHistogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, _ := r.hists[name].(*metrics.ShardedHistogram)
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.hists[name].(*metrics.ShardedHistogram); ok {
		return existing
	}
	h = metrics.NewShardedHistogram()
	r.hists[name] = h
	return h
}

// RegisterHistogram attaches an externally owned histogram (e.g. the
// realtime server's wall-clock request histogram) under name, replacing
// any previous registration.
func (r *Registry) RegisterHistogram(name string, h metrics.Snapshotter) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	r.hists[name] = h
	r.mu.Unlock()
}

// ObserveSpan folds a completed span into the registry: each stage record
// becomes one observation on the histogram named prefix + stage name.
// Nil-safe on both the registry and the span.
func (r *Registry) ObserveSpan(prefix string, sp *Span) {
	if r == nil || sp == nil {
		return
	}
	for _, rec := range sp.Stages() {
		key := stageKey{prefix, rec.Stage}
		r.mu.RLock()
		h := r.stageHists[key]
		r.mu.RUnlock()
		if h == nil { // the pair's first fold names its histogram
			h = r.Histogram(prefix + rec.Stage)
			r.mu.Lock()
			r.stageHists[key] = h
			r.mu.Unlock()
		}
		h.Observe(rec.Dur)
	}
}

// HistStat is one histogram's scrape-time summary. Durations are reported
// in nanoseconds so JSON consumers get exact integers.
type HistStat struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P95Ns  int64 `json:"p95_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`
}

// Snapshot is a point-in-time view of the whole registry, ready for
// rendering as text or JSON.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]HistStat `json:"histograms"`
}

// Snapshot captures every instrument. Nil-safe (returns empty maps).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistStat{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]metrics.Snapshotter, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()

	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range hists {
		snap := h.Snapshot()
		p50, p95, p99 := snap.Percentiles()
		s.Histograms[n] = HistStat{
			Count:  snap.Count(),
			MeanNs: snap.Mean().Nanoseconds(),
			P50Ns:  p50.Nanoseconds(),
			P95Ns:  p95.Nanoseconds(),
			P99Ns:  p99.Nanoseconds(),
			MaxNs:  snap.Max().Nanoseconds(),
		}
	}
	return s
}

// Text renders the snapshot as sorted plain text, one instrument per
// line — the format `curl /metrics` returns by default.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, n := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter %s %d\n", n, s.Counters[n])
	}
	for _, n := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge %s %d\n", n, s.Gauges[n])
	}
	for _, n := range sortedKeys(s.Histograms) {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "histogram %s count=%d mean=%v p50=%v p95=%v p99=%v max=%v\n",
			n, h.Count,
			time.Duration(h.MeanNs), time.Duration(h.P50Ns),
			time.Duration(h.P95Ns), time.Duration(h.P99Ns), time.Duration(h.MaxNs))
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
