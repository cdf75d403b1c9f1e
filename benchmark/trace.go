package main

import (
	"bufio"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// req; parent is the index (in the same buffer) of the span that caused this
// one, -1 for a root. Times are nanoseconds since the buffer's base.
type span struct {
	name, req, parent int32
	start, end        int64
}

// traceBuf holds one part of the traced run in memory: spans are appended to
// a slice allocated up front and written out only when the run ends, so
// recording costs two clock reads and a store.
type traceBuf struct {
	part    string
	base    time.Time
	names   []string
	spans   []span
	dropped int // spans that did not fit
}

func newTraceBuf(part string, base time.Time, capacity int, names ...string) *traceBuf {
	return &traceBuf{part: part, base: base, names: names, spans: make([]span, 0, capacity)}
}

func (t *traceBuf) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span and returns its index, -1 when the buffer is
// full.
func (t *traceBuf) add(name, req int, parent int32, start, end int64) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{int32(name), int32(req), parent, start, end})
	return int32(len(t.spans) - 1)
}

// open records a span that starts now; close ends it.
func (t *traceBuf) open(name, req int, parent int32) int32 {
	return t.add(name, req, parent, t.now(), 0)
}

func (t *traceBuf) close(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// selfUs gives, per span name, the median over requests of the span's self
// time in µs: its duration minus the part its child spans cover. A request
// with several spans of one name (the cold path enters the driver three
// times) contributes their sum.
func (t *traceBuf) selfUs() map[string]float64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end > 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	perReq := make([]map[int32]float64, len(t.names))
	for i := range perReq {
		perReq[i] = map[int32]float64{}
	}
	for i, s := range t.spans {
		if s.end == 0 {
			continue // still open when the window closed
		}
		perReq[s.name][s.req] += float64(s.end-s.start-covered[i]) / 1e3
	}
	out := map[string]float64{}
	for i, name := range t.names {
		var vals series
		for _, v := range perReq[i] {
			vals = append(vals, v)
		}
		out[name] = vals.median()
	}
	return out
}

// writeTrace writes the parts as one JSON object:
//
//	{"unit":"ns","parts":[{"part":"...","names":[...],"dropped":0,
//	  "spans":[[name,req,parent,start,end],...]},...]}
//
// name indexes names; parent indexes spans of the same part (-1 = root).
func writeTrace(path string, parts []*traceBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"unit":"ns","parts":[`)
	var num []byte
	for pi, t := range parts {
		if pi > 0 {
			w.WriteByte(',')
		}
		w.WriteString(`{"part":` + strconv.Quote(t.part) + `,"names":[`)
		for i, n := range t.names {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(strconv.Quote(n))
		}
		w.WriteString(`],"dropped":` + strconv.Itoa(t.dropped) + `,"spans":[`)
		for i, s := range t.spans {
			if i > 0 {
				w.WriteByte(',')
			}
			num = append(num[:0], '[')
			for j, v := range [...]int64{int64(s.name), int64(s.req), int64(s.parent), s.start, s.end} {
				if j > 0 {
					num = append(num, ',')
				}
				num = strconv.AppendInt(num, v, 10)
			}
			w.Write(append(num, ']'))
		}
		w.WriteString("]}")
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedConn notes when the last Read on a device's socket blocked and
// returned, which is how the client's wait is told from its decode. It is
// used by one goroutine at a time.
type timedConn struct {
	net.Conn
	base               time.Time
	on                 bool
	readStart, readEnd int64
}

func (c *timedConn) Read(p []byte) (int, error) {
	if !c.on {
		return c.Conn.Read(p)
	}
	start := int64(time.Since(c.base))
	n, err := c.Conn.Read(p)
	c.readStart, c.readEnd = start, int64(time.Since(c.base))
	return n, err
}

// Span names of the traced window, recorded by the benchmark's own wrappers
// around the client calls.
const (
	spanRequest = iota // submit start to result, the parent of the other three
	spanSubmit         // PipelineClient.Submit once the pipeline has room: encode and write
	spanWait           // blocked in the socket read that delivered the result
	spanDecode         // from that read's return to the result callback
)

var clientSpanNames = []string{"client.request", "client.submit", "client.wait", "client.decode"}

// traceRecorder turns one generator's submit and result events into spans.
type traceRecorder struct {
	buf     *traceBuf
	rw      *timedConn
	roots   []int32 // open client.request span by seq, a ring like generator.sent
	lastEnd int64   // end of this connection's previous client event
}

func newTraceRecorder(g *generator, capacity int) *traceRecorder {
	t := &traceRecorder{
		buf:   newTraceBuf("window:"+g.dev.id, g.base, capacity, clientSpanNames...),
		rw:    g.rw,
		roots: make([]int32, len(g.sent)),
	}
	for i := range t.roots {
		t.roots[i] = -1 // requests submitted before tracing began have no root
	}
	return t
}

// submitted is called after Submit(seq) returned: the send began at start
// (see generator.submit) and Submit came back at returned.
func (t *traceRecorder) submitted(seq int, start, returned int64) {
	root := t.buf.add(spanRequest, seq, -1, start, 0)
	t.roots[seq&(len(t.roots)-1)] = root
	if root >= 0 {
		t.buf.add(spanSubmit, seq, root, start, returned)
	}
	t.lastEnd = returned
}

// result is called from the result callback at instant now.
func (t *traceRecorder) result(seq int, now int64) {
	root := t.roots[seq&(len(t.roots)-1)]
	if root >= 0 && t.buf.spans[root].req == int32(seq) {
		from := t.lastEnd
		if t.rw.readEnd > from { // this result's bytes arrived in a read of its own
			waitFrom := t.rw.readStart
			if waitFrom < from {
				waitFrom = from
			}
			t.buf.add(spanWait, seq, root, waitFrom, t.rw.readEnd)
			from = t.rw.readEnd
		}
		t.buf.add(spanDecode, seq, root, from, now)
		t.buf.spans[root].end = now
	}
	t.lastEnd = now
}
