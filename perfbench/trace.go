package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpansPerBuf bounds each goroutine's span buffer (about 56 MB at
// 56 bytes a span); spans past it are counted, not kept.
const maxSpansPerBuf = 1 << 20

// span is one timed call: a Mux call, a scrape or a layer probe.
// Spans of one logical request share req; parent names the span that
// caused this one (0 at the root).
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	id, parent uint64
	req        uint64
}

// tracer keeps spans in memory while the traced run is on and writes
// them out when the run ends. Each goroutine records into its own
// spanBuf, so recording takes no lock.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Uint64

	mu   sync.Mutex
	bufs []*spanBuf // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span buffer.
type spanBuf struct {
	t       *tracer
	spans   []span
	dropped int
}

// buf registers a new buffer; a nil tracer yields a nil buffer, whose
// methods record nothing.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// active reports whether spans are being recorded right now.
func (b *spanBuf) active() bool { return b != nil && b.t.on.Load() }

// add records a finished span and returns its ID (0 when not recording).
func (b *spanBuf) add(name string, parent, req uint64, start, end time.Time) uint64 {
	if !b.active() {
		return 0
	}
	return b.addID(b.t.nextID.Add(1), name, parent, req, start, end)
}

// reserve mints a span ID up front, for a parent span that is recorded
// (with addID) after its children.
func (b *spanBuf) reserve() uint64 {
	if !b.active() {
		return 0
	}
	return b.t.nextID.Add(1)
}

// addID records a finished span under an ID from reserve.
func (b *spanBuf) addID(id uint64, name string, parent, req uint64, start, end time.Time) uint64 {
	if !b.active() || id == 0 {
		return 0
	}
	if len(b.spans) >= maxSpansPerBuf {
		b.dropped++
		return 0
	}
	b.spans = append(b.spans, span{
		name: name, start: int64(start.Sub(b.t.epoch)), end: int64(end.Sub(b.t.epoch)),
		id: id, parent: parent, req: req,
	})
	return id
}

// durations returns the duration of every recorded span with the given
// name, in ns. Call it only once the recording goroutines have finished.
func (t *tracer) durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.name == name {
				out = append(out, s.end-s.start)
			}
		}
	}
	return out
}

// write dumps every span as one JSON object a line, and returns how many
// were kept and dropped.
func (t *tracer) write(path string) (kept, dropped int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		dropped += b.dropped
		for _, s := range b.spans {
			kept++
			fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"id":%d,"parent":%d,"req":%d}`+"\n",
				s.name, s.start, s.end, s.id, s.parent, s.req)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return kept, dropped, f.Close()
}
