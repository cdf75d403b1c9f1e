package acd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"rattrap/internal/sim"
)

// Alarm is the per-namespace state of the RTC-based alarm driver Android
// uses for timer messages. Alarms fire on the virtual clock.
type Alarm struct {
	e     *sim.Engine
	next  int
	armed map[int]*sim.Event
	fired int
}

// NewAlarm returns an alarm device bound to e. Its table is made by the
// first Set: most namespaces never arm an alarm.
func NewAlarm(e *sim.Engine) *Alarm { return &Alarm{e: e} }

// Set arms an alarm to fire fn after d; it returns an id for Cancel.
func (a *Alarm) Set(d time.Duration, fn func()) int {
	if a.armed == nil {
		a.armed = make(map[int]*sim.Event)
	}
	a.next++
	id := a.next
	a.armed[id] = a.e.After(d, func() {
		delete(a.armed, id)
		a.fired++
		fn()
	})
	return id
}

// Cancel disarms an alarm; it reports whether the alarm was still pending.
func (a *Alarm) Cancel(id int) bool {
	ev, ok := a.armed[id]
	if !ok {
		return false
	}
	ev.Cancel()
	delete(a.armed, id)
	return true
}

// Pending returns the number of armed alarms.
func (a *Alarm) Pending() int { return len(a.armed) }

// Fired returns how many alarms have fired.
func (a *Alarm) Fired() int { return a.fired }

// LogEntry is one record in a logger ring buffer.
type LogEntry struct {
	Tag string
	Msg string
}

// Logger is the lightweight RAM log driver: a byte ring buffer, one
// instance per namespace per log stream (/dev/log/main, .../events). Like
// the kernel driver it copies each entry into the ring — an 8-byte header
// holding the tag and message lengths, then their bytes — so an entry
// costs exactly the bytes Used counts, writing one allocates nothing once
// the ring has grown, and strings are made again only by Read.
type Logger struct {
	capBytes int
	used     int
	dropped  int
	n        int // entries buffered
	// buf holds the entries back to back from head, wrapping at its end.
	// It starts as first, grows toward capBytes as the log fills and is
	// reused from then on: evicting an entry advances head, it frees
	// nothing.
	buf  []byte
	head int
	// first is the ring until it outgrows it: a runtime's boot and its
	// first request log about 220 bytes, so the logger a container's
	// namespace makes holds them without allocating again.
	first [firstRing]byte
}

// firstRing is the ring a logger starts with.
const firstRing = 256

// logHeader is an entry's fixed overhead: its tag and message lengths.
const logHeader = 8

// NewLogger returns a ring buffer holding up to capBytes of entries.
func NewLogger(capBytes int) *Logger {
	if capBytes <= 0 {
		panic("acd: logger capacity must be positive")
	}
	l := &Logger{capBytes: capBytes}
	l.buf = l.first[:min(capBytes, firstRing)]
	return l
}

// Write appends an entry whose message is the concatenation of msg,
// evicting the oldest entries when full. An entry takes its tag and
// message bytes plus logHeader.
func (l *Logger) Write(tag string, msg ...string) {
	msgLen := 0
	for _, m := range msg {
		msgLen += len(m)
	}
	sz := logHeader + len(tag) + msgLen
	for l.used+sz > l.capBytes && l.n > 0 {
		l.evict()
	}
	if sz > l.capBytes {
		l.dropped++
		return // entry larger than the whole buffer: dropped, like the real driver truncating
	}
	if l.used+sz > len(l.buf) {
		l.grow(l.used + sz)
	}
	at := (l.head + l.used) % len(l.buf)
	var hdr [logHeader]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(tag)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(msgLen))
	for _, b := range hdr {
		l.buf[at] = b
		at = (at + 1) % len(l.buf)
	}
	at = l.put(at, tag)
	for _, m := range msg {
		at = l.put(at, m)
	}
	l.used += sz
	l.n++
}

// put copies s into the ring at at, wrapping, and returns where it ended.
func (l *Logger) put(at int, s string) int {
	if n := copy(l.buf[at:], s); n < len(s) {
		copy(l.buf, s[n:])
	}
	return (at + len(s)) % len(l.buf)
}

// get returns the n ring bytes at at as a string, and where they end.
func (l *Logger) get(at, n int) (string, int) {
	end := at + n
	if end <= len(l.buf) {
		return string(l.buf[at:end]), end % len(l.buf)
	}
	end -= len(l.buf)
	return string(l.buf[at:]) + string(l.buf[:end]), end
}

// header decodes the lengths of the entry at at.
func (l *Logger) header(at int) (tagLen, msgLen, next int) {
	var hdr [logHeader]byte
	for i := range hdr {
		hdr[i] = l.buf[at]
		at = (at + 1) % len(l.buf)
	}
	return int(binary.LittleEndian.Uint32(hdr[:4])), int(binary.LittleEndian.Uint32(hdr[4:])), at
}

// evict drops the oldest entry.
func (l *Logger) evict() {
	tagLen, msgLen, _ := l.header(l.head)
	sz := logHeader + tagLen + msgLen
	l.head = (l.head + sz) % len(l.buf)
	l.used -= sz
	l.n--
	l.dropped++
}

// grow resizes the ring to hold at least need bytes (never more than
// capBytes), laying the entries out from the start again.
func (l *Logger) grow(need int) {
	grown := make([]byte, min(l.capBytes, max(need, 2*len(l.buf))))
	if n := copy(grown, l.buf[l.head:min(len(l.buf), l.head+l.used)]); n < l.used {
		copy(grown[n:], l.buf[:l.used-n])
	}
	l.buf, l.head = grown, 0
}

// Read returns the buffered entries, oldest first.
func (l *Logger) Read() []LogEntry {
	out := make([]LogEntry, l.n)
	at := l.head
	for i := range out {
		tagLen, msgLen, next := l.header(at)
		out[i].Tag, next = l.get(next, tagLen)
		out[i].Msg, at = l.get(next, msgLen)
	}
	return out
}

// Dropped returns how many entries have been evicted or rejected.
func (l *Logger) Dropped() int { return l.dropped }

// Used returns buffered bytes.
func (l *Logger) Used() int { return l.used }

// Ashmem is the anonymous-shared-memory driver: named regions that
// processes map by fd. State is kernel-global (not namespaced).
type Ashmem struct {
	next    int
	regions map[int]*AshmemRegion
}

// AshmemRegion is one shared memory region.
type AshmemRegion struct {
	ID     int
	Name   string
	Size   int
	pinned bool
	freed  bool
}

// NewAshmem returns an empty region table, made by the first Create.
func NewAshmem() *Ashmem { return &Ashmem{} }

// ErrRegionFreed is returned when touching an unpinned, reclaimed region.
var ErrRegionFreed = errors.New("acd: ashmem region was reclaimed")

// Create allocates a region of size bytes, initially pinned.
func (a *Ashmem) Create(name string, size int) (*AshmemRegion, error) {
	if size <= 0 {
		return nil, fmt.Errorf("acd: ashmem region %q: size %d", name, size)
	}
	if a.regions == nil {
		a.regions = make(map[int]*AshmemRegion)
	}
	a.next++
	r := &AshmemRegion{ID: a.next, Name: name, Size: size, pinned: true}
	a.regions[r.ID] = r
	return r, nil
}

// Unpin marks the region reclaimable under memory pressure.
func (a *Ashmem) Unpin(id int) error {
	r, ok := a.regions[id]
	if !ok {
		return fmt.Errorf("acd: ashmem: no region %d", id)
	}
	r.pinned = false
	return nil
}

// Pin re-pins a region; it fails with ErrRegionFreed if the kernel
// reclaimed it while unpinned.
func (a *Ashmem) Pin(id int) error {
	r, ok := a.regions[id]
	if !ok {
		return fmt.Errorf("acd: ashmem: no region %d", id)
	}
	if r.freed {
		return ErrRegionFreed
	}
	r.pinned = true
	return nil
}

// Shrink simulates memory pressure: every unpinned region is reclaimed.
// It returns the bytes freed.
func (a *Ashmem) Shrink() int {
	freed := 0
	for _, r := range a.regions {
		if !r.pinned && !r.freed {
			r.freed = true
			freed += r.Size
		}
	}
	return freed
}

// Destroy removes a region entirely.
func (a *Ashmem) Destroy(id int) {
	delete(a.regions, id)
}

// TotalBytes returns bytes held by live (non-reclaimed) regions.
func (a *Ashmem) TotalBytes() int {
	t := 0
	for _, r := range a.regions {
		if !r.freed {
			t += r.Size
		}
	}
	return t
}
