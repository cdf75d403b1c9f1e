package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rattrap/internal/metrics"
)

func TestSpanBasics(t *testing.T) {
	sp := NewSpan()
	sp.Add(StageConnect, 5*time.Millisecond)
	sp.Add(StageTransfer, 2*time.Millisecond)
	sp.Add(StagePrepare, 100*time.Millisecond)
	sp.Add(StageQueueWait, 40*time.Millisecond)
	sp.Add(StageBoot, 60*time.Millisecond)
	sp.Add(StageTransfer, 3*time.Millisecond) // transfer split around the push
	sp.Add(StageExecute, 90*time.Millisecond)

	if got := len(sp.Stages()); got != 7 {
		t.Fatalf("Stages() = %d records, want 7 (insertion order kept)", got)
	}
	agg := sp.ByStage()
	if agg[StageTransfer] != 5*time.Millisecond {
		t.Fatalf("transfer aggregate = %v, want 5ms", agg[StageTransfer])
	}
	// Top-level total excludes the '/'-qualified sub-stages: sub-stages
	// nest inside prepare/execute and must not double-count.
	want := (5 + 2 + 100 + 3 + 90) * time.Millisecond
	if got := sp.TopLevelTotal(); got != want {
		t.Fatalf("TopLevelTotal = %v, want %v", got, want)
	}
	if s := sp.String(); !strings.Contains(s, "connect=5ms") {
		t.Fatalf("String() = %q, want connect=5ms in it", s)
	}
}

func TestSpanNilSafe(t *testing.T) {
	var sp *Span
	sp.Add(StageRun, time.Second) // must not panic
	if sp.Stages() != nil || sp.ByStage() != nil || sp.TopLevelTotal() != 0 {
		t.Fatal("nil span leaked state")
	}
	if sp.String() != "span(disabled)" {
		t.Fatalf("nil span String() = %q", sp.String())
	}
}

func TestSpanNegativeClamp(t *testing.T) {
	sp := NewSpan()
	sp.Add(StageRun, -time.Second)
	if d := sp.ByStage()[StageRun]; d != 0 {
		t.Fatalf("negative duration recorded as %v, want 0", d)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c1.Inc()
	if c2 := r.Counter("a"); c2 != c1 {
		t.Fatal("Counter(a) returned a different instance on second lookup")
	}
	if r.Counter("a").Value() != 1 {
		t.Fatal("counter state lost across lookups")
	}
	g := r.Gauge("g")
	g.Set(7)
	if r.Gauge("g").Value() != 7 {
		t.Fatal("gauge state lost across lookups")
	}
	h := r.Histogram("h")
	h.Observe(time.Millisecond)
	if r.Histogram("h") != h {
		t.Fatal("Histogram(h) returned a different instance")
	}
	if r.Histogram("h").Count() != 1 {
		t.Fatal("histogram state lost across lookups")
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(5)
	r.Gauge("y").Set(3)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Fatal("nil instruments leaked state")
	}
	if r.Histogram("z") != nil {
		t.Fatal("nil registry returned a histogram")
	}
	r.RegisterHistogram("w", metrics.NewLatencyHistogram())
	r.ObserveSpan("p.", NewSpan())
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestObserveSpan(t *testing.T) {
	r := NewRegistry()
	sp := NewSpan()
	sp.Add(StagePrepare, 10*time.Millisecond)
	sp.Add(StageBoot, 6*time.Millisecond)
	sp.Add(StagePrepare, 4*time.Millisecond)
	r.ObserveSpan("s.", sp)
	if n := r.Histogram("s." + StagePrepare).Count(); n != 2 {
		t.Fatalf("s.prepare count = %d, want 2 (one per record)", n)
	}
	if n := r.Histogram("s." + StageBoot).Count(); n != 1 {
		t.Fatalf("s.prepare/boot count = %d, want 1", n)
	}
	r.ObserveSpan("s.", nil) // nil span: no-op
}

// A request's span, recorded and folded, allocates only the span itself:
// its first stages live inline, and folding resolves each (prefix, stage)
// to its histogram without building the name. The fold still lands on the
// histogram named prefix + stage, and a span past its inline stages keeps
// every record in order.
func TestSpanRecordAndFoldAllocs(t *testing.T) {
	r := NewRegistry()
	stages := []string{StageBoot, StageCodeStage, StageRun}
	fold := func() {
		sp := NewSpan()
		for _, st := range stages {
			sp.Add(st, time.Millisecond)
		}
		r.ObserveSpan("server.stage.", sp)
	}
	fold() // the first fold makes the histograms
	if n := testing.AllocsPerRun(200, fold); n > 1 {
		t.Fatalf("recording and folding a %d-stage span allocates %.0f objects, want at most 1 (the span)", len(stages), n)
	}
	if n := r.Histogram("server.stage." + StageRun).Count(); n != 202 {
		t.Fatalf("server.stage.run count = %d, want 202", n)
	}
	sp := NewSpan()
	for i := 0; i < 2*spanInline+1; i++ {
		sp.Add(stages[i%len(stages)], time.Duration(i))
	}
	for i, rec := range sp.Stages() {
		if rec.Stage != stages[i%len(stages)] || rec.Dur != time.Duration(i) {
			t.Fatalf("record %d = %+v after outgrowing the inline stages", i, rec)
		}
	}
	var zero Span
	zero.Add(StageRun, time.Second) // the zero Span records too
	if len(zero.Stages()) != 1 {
		t.Fatal("a zero Span lost its record")
	}
}

func TestSnapshotTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(3)
	r.Counter("a.count").Add(1)
	r.Gauge("pool").Set(5)
	r.Histogram("lat").Observe(2 * time.Millisecond)
	wall := metrics.NewLatencyHistogram()
	wall.Observe(time.Second)
	r.RegisterHistogram("wall", wall)

	snap := r.Snapshot()
	text := snap.Text()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	wantOrder := []string{
		"counter a.count 1",
		"counter z.count 3",
		"gauge pool 5",
	}
	for i, w := range wantOrder {
		if lines[i] != w {
			t.Fatalf("text line %d = %q, want %q (sorted output)", i, lines[i], w)
		}
	}
	if !strings.Contains(text, "histogram lat count=1") {
		t.Fatalf("text missing lat histogram:\n%s", text)
	}
	if !strings.Contains(text, "histogram wall count=1") {
		t.Fatalf("text missing registered external histogram:\n%s", text)
	}

	buf, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["z.count"] != 3 || back.Gauges["pool"] != 5 {
		t.Fatalf("JSON round-trip lost values: %+v", back)
	}
	if back.Histograms["wall"].Count != 1 || back.Histograms["wall"].MaxNs != time.Second.Nanoseconds() {
		t.Fatalf("JSON wall histogram = %+v", back.Histograms["wall"])
	}
}

func newTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("req").Add(42)
	r.Gauge("pool").Set(3)
	h := r.Histogram("stage.run")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	return r
}

func TestHandlerText(t *testing.T) {
	srv := httptest.NewServer(Handler(newTestRegistry()))
	defer srv.Close()
	res, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	buf, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(buf)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if !strings.Contains(body, "counter req 42") {
		t.Fatalf("text body missing counter:\n%s", body)
	}
	if !strings.Contains(body, "histogram stage.run count=100") {
		t.Fatalf("text body missing histogram:\n%s", body)
	}
}

func TestHandlerJSON(t *testing.T) {
	srv := httptest.NewServer(Handler(newTestRegistry()))
	defer srv.Close()
	for _, mode := range []string{"?format=json", ""} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+mode, nil)
		if mode == "" {
			req.Header.Set("Accept", "application/json")
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		err = json.NewDecoder(res.Body).Decode(&snap)
		res.Body.Close()
		if err != nil {
			t.Fatalf("mode %q: bad JSON: %v", mode, err)
		}
		if snap.Counters["req"] != 42 || snap.Histograms["stage.run"].Count != 100 {
			t.Fatalf("mode %q: snapshot = %+v", mode, snap)
		}
	}
}

func TestHandlerQuantile(t *testing.T) {
	srv := httptest.NewServer(Handler(newTestRegistry()))
	defer srv.Close()

	res, err := http.Get(srv.URL + "?hist=stage.run&q=0.99")
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !strings.HasPrefix(string(buf), "stage.run q0.99 ") {
		t.Fatalf("quantile reply: status %d body %q", res.StatusCode, string(buf))
	}

	cases := []struct {
		url  string
		code int
	}{
		{"?hist=stage.run&q=1.5", http.StatusBadRequest}, // out of range → typed error → 400
		{"?hist=stage.run&q=zz", http.StatusBadRequest},  // unparseable
		{"?hist=nope", http.StatusNotFound},              // unknown histogram
	}
	for _, c := range cases {
		res, err := http.Get(srv.URL + c.url)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != c.code {
			t.Fatalf("%s: status %d, want %d", c.url, res.StatusCode, c.code)
		}
	}
}

func TestHandlerMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(Handler(newTestRegistry()))
	defer srv.Close()
	res, err := http.Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", res.StatusCode)
	}
}
