package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/gateway"
)

// muxTimeout bounds every request/reply exchange; a reply slower than
// this is a failed operation.
const muxTimeout = 5 * time.Second

// Span names of the Mux calls, also the per-layer metric stems.
const (
	callOpen      = "open"
	callSend      = "send"
	callSendBatch = "sendbatch"
	callStats     = "stats"
	callClose     = "close"
)

var callNames = []string{callOpen, callSend, callSendBatch, callStats, callClose}

// checker collects correctness breaches from every goroutine.
type checker struct {
	mu    sync.Mutex
	n     int      // guarded by mu
	first []string // guarded by mu; the first few breaches, for the report
}

func (c *checker) breach(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checker) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// report returns the first few breaches.
func (c *checker) report() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.first
}

// liveSet is every session ID currently open across the run's
// connections: the gateway must never hand out a live ID twice.
type liveSet struct {
	mu  sync.Mutex
	ids map[uint32]struct{} // guarded by mu
}

func (l *liveSet) add(id uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.ids[id]; dup {
		return false
	}
	l.ids[id] = struct{}{}
	return true
}

func (l *liveSet) remove(id uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.ids, id)
}

// client drives one gateway.Mux connection. It counts every call as an
// attempt, checks the shape of every reply, keeps the bits sent to each
// session's current occupant, and records a span per call when traced.
type client struct {
	m     *gateway.Mux
	k     int // gateway slots: every OPENED ID must be below it
	live  *liveSet
	chk   *checker
	spans *spanBuf

	sent      map[uint32]int64 // bits sent to each open session
	totalSent int64            // bits sent on this connection, all sessions
	attempted int64
	failed    int64
	opens     []int64 // OPEN->OPENED round trips, ns
}

func dialClient(addr string, k int, live *liveSet, chk *checker, spans *spanBuf) (*client, error) {
	m, err := gateway.DialMux(addr, muxTimeout)
	if err != nil {
		return nil, err
	}
	return &client{m: m, k: k, live: live, chk: chk, spans: spans, sent: make(map[uint32]int64)}, nil
}

// done counts one call and records its span.
func (c *client) done(name string, req uint64, start time.Time, err error) time.Time {
	end := time.Now()
	c.attempted++
	if err != nil {
		c.failed++
	}
	c.spans.add(name, 0, req, start, end)
	return end
}

func (c *client) open(req uint64) (uint32, error) {
	start := time.Now()
	id, err := c.m.Open()
	end := c.done(callOpen, req, start, err)
	if err != nil {
		// Every workload stays below capacity, so OPENFAIL is a breach too.
		return 0, fmt.Errorf("open: %w", err)
	}
	c.opens = append(c.opens, int64(end.Sub(start)))
	if int(id) >= c.k {
		c.chk.breach("OPENED id %d outside the %d-slot table", id, c.k)
	}
	if !c.live.add(id) {
		c.chk.breach("OPENED id %d is already live", id)
	}
	c.sent[id] = 0
	return id, nil
}

func (c *client) send(id uint32, bits int64, req uint64) error {
	c.sent[id] += bits
	c.totalSent += bits
	var start time.Time
	if c.spans.active() {
		start = time.Now()
	}
	err := c.m.Send(id, bw.Bits(bits))
	if start.IsZero() {
		c.attempted++
		if err != nil {
			c.failed++
		}
	} else {
		c.done(callSend, req, start, err)
	}
	if err != nil {
		return fmt.Errorf("send: %w", err)
	}
	return nil
}

func (c *client) sendBatch(items []gateway.BatchItem, req uint64) error {
	for _, it := range items {
		c.sent[it.Session] += int64(it.Bits)
		c.totalSent += int64(it.Bits)
	}
	var start time.Time
	if c.spans.active() {
		start = time.Now()
	}
	err := c.m.SendBatch(items)
	if start.IsZero() {
		c.attempted++
		if err != nil {
			c.failed++
		}
	} else {
		c.done(callSendBatch, req, start, err)
	}
	if err != nil {
		return fmt.Errorf("send batch: %w", err)
	}
	return nil
}

// stats performs one STATS round trip and returns the reply with the
// times the request left and the reply arrived.
func (c *client) stats(id uint32, req uint64) (gateway.SessionStats, time.Time, time.Time, error) {
	start := time.Now()
	st, err := c.m.Stats(id)
	end := c.done(callStats, req, start, err)
	if err != nil {
		return st, start, end, fmt.Errorf("stats: %w", err)
	}
	c.checkShape(id, st)
	return st, start, end, nil
}

// checkShape rejects a STATSR with a negative field.
func (c *client) checkShape(id uint32, st gateway.SessionStats) {
	if st.Served < 0 || st.Queued < 0 || st.MaxDelay < 0 || st.Changes < 0 {
		c.chk.breach("session %d: malformed STATSR %+v", id, st)
	}
}

// statsBatch polls several sessions in one pipelined round trip.
func (c *client) statsBatch(ids []uint32, req uint64) ([]gateway.SessionStats, time.Time, time.Time, error) {
	start := time.Now()
	sts, err := c.m.StatsBatch(ids)
	end := time.Now()
	c.attempted += int64(len(ids))
	if err != nil {
		c.failed += int64(len(ids))
	}
	c.spans.add("statsbatch", 0, req, start, end)
	if err != nil {
		return nil, start, end, fmt.Errorf("stats batch: %w", err)
	}
	for i, st := range sts {
		c.checkShape(ids[i], st)
	}
	return sts, start, end, nil
}

func (c *client) closeSession(id uint32, req uint64) error {
	// The gateway frees the slot before it answers CLOSED, so another
	// connection may be handed the ID before this call returns: the ID
	// stops being live when the CLOSE is sent.
	c.live.remove(id)
	delete(c.sent, id)
	start := time.Now()
	err := c.m.CloseSession(id)
	c.done(callClose, req, start, err)
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

// ramp opens n sessions.
func (c *client) ramp(n int) ([]uint32, error) {
	ids := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		id, err := c.open(0)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// window is the measured phase, cut into equal parts. Samples taken
// before from are warm-up and dropped. An untraced run reports the median
// over its parts of each part's figure, so a few seconds of disturbance
// on a shared box do not move the result; a traced run has two parts,
// untraced then traced, whose difference is the tracing overhead.
type window struct {
	from, to time.Time
	parts    int
}

func (w window) in(t time.Time) bool { return !t.Before(w.from) && t.Before(w.to) }

// part is the index of the part holding t; call it only when in(t).
func (w window) part(t time.Time) int {
	return int(int64(t.Sub(w.from)) * int64(w.parts) / int64(w.to.Sub(w.from)))
}

// partStart is when part i begins.
func (w window) partStart(i int) time.Time {
	return w.from.Add(w.to.Sub(w.from) * time.Duration(i) / time.Duration(w.parts))
}

// probe is a session dedicated to measuring delivery delay: it sends a
// burst of D_O ticks' worth of its share, then polls STATS until Served
// covers every bit sent to it.
type probe struct {
	id     uint32
	busy   bool      // a burst is in flight
	sentAt time.Time // when the in-flight burst was sent
	next   time.Time // when the next burst or poll is due
	target int64     // bits sent so far; delivered once Served reaches it
}

// worker runs one connection's share of a workload.
type worker struct {
	c       *client
	wl      *workload
	rnd     *rand.Rand
	regular []uint32
	probes  []probe
	polls   []uint32 // reused buffer: probes polled this round
	grid    grid
	win     window
	reqs    uint64
	reqBase uint64

	msgs    []int64   // logical messages sent in each part of the window
	rtt     [][]int64 // STATS round trips in each part, ns
	late    lateness
	deliv   []int64
	reopens int64
	leaked  int64
}

func (w *worker) nextReq() uint64 { w.reqs++; return w.reqBase | w.reqs }

// count adds n logical messages sent at t.
func (w *worker) count(t time.Time, n int64) {
	if w.win.in(t) {
		w.msgs[w.win.part(t)] += n
	}
}

// rttSample records a STATS round trip timed from t.
func (w *worker) rttSample(t time.Time, d time.Duration) {
	if w.win.in(t) {
		i := w.win.part(t)
		w.rtt[i] = append(w.rtt[i], int64(d))
	}
}

// checkServed verifies a no-churn session never reports more bits
// served and queued than were sent to it.
func (w *worker) checkServed(id uint32, st gateway.SessionStats) {
	if w.wl.exact && int64(st.Served+st.Queued) > w.c.sent[id] {
		w.c.chk.breach("session %d: served %d + queued %d exceeds %d sent", id, st.Served, st.Queued, w.c.sent[id])
	}
}

// serviceProbes sends a burst on every idle probe that is due, and polls
// every busy one that is due in a single pipelined STATS round trip.
func (w *worker) serviceProbes(now time.Time) error {
	polls := w.polls[:0]
	for i := range w.probes {
		p := &w.probes[i]
		if now.Before(p.next) {
			continue
		}
		start := time.Now()
		if w.win.in(p.next) {
			w.late.record(p.next, start)
		}
		if p.busy {
			polls = append(polls, p.id)
			continue
		}
		if err := w.c.send(p.id, w.wl.burst(), w.nextReq()); err != nil {
			return err
		}
		w.count(start, 1)
		p.target += w.wl.burst()
		p.busy, p.sentAt, p.next = true, start, w.grid.after(start.Add(1))
	}
	w.polls = polls
	if len(polls) == 0 {
		return nil
	}
	sts, t0, t1, err := w.c.statsBatch(polls, w.nextReq())
	if err != nil {
		return err
	}
	w.count(t0, int64(len(polls)))
	j := 0
	for i := range w.probes {
		p := &w.probes[i]
		if j == len(polls) || p.id != polls[j] {
			continue
		}
		st := sts[j]
		j++
		w.checkServed(p.id, st)
		if int64(st.Served) >= p.target {
			if w.win.in(p.sentAt) {
				w.deliv = append(w.deliv, int64(t1.Sub(p.sentAt)))
			}
			p.busy = false
		}
		p.next = w.grid.after(t1)
	}
	return nil
}

// nextProbe is the earliest due time over the probes.
func (w *worker) nextProbe() time.Time {
	var t time.Time
	for i, p := range w.probes {
		if i == 0 || p.next.Before(t) {
			t = p.next
		}
	}
	return t
}

// sleepUntil parks until t and returns when it woke, or returns the
// zero time at once when t has passed.
func sleepUntil(t time.Time) time.Time {
	d := time.Until(t)
	if d <= 0 {
		return time.Time{}
	}
	time.Sleep(d)
	return time.Now()
}

// timedFrom is when an open-loop request's round trip starts counting:
// its due time, or when the generator's timer actually woke it for that
// due time if the timer overslept. Timer slack is the generator's, not
// the gateway's, and is reported as lateness instead; a request late
// because the generator was still busy with earlier ones — a stall the
// gateway caused — is timed from its due time.
func timedFrom(due, woke time.Time) time.Time {
	if woke.After(due) {
		return woke
	}
	return due
}

// closedLoop is rr-small: DATA to the next session, then STATS on it,
// awaiting each reply before the next request.
func (w *worker) closedLoop() error {
	for i := 0; ; i++ {
		if !time.Now().Before(w.win.to) {
			return nil
		}
		id := w.regular[i%len(w.regular)]
		req := w.nextReq()
		if err := w.c.send(id, 1+w.rnd.Int64N(256), req); err != nil {
			return err
		}
		st, t0, t1, err := w.c.stats(id, req)
		if err != nil {
			return err
		}
		w.checkServed(id, st)
		w.count(t0, 2)
		w.rttSample(t0, t1.Sub(t0))
		if err := w.serviceProbes(t1); err != nil {
			return err
		}
	}
}

// batchLoop is batch-fleet: at a fixed frame rate, one 64-item BATCH of
// DATA over seeded sessions and sizes, then a STATS timed from the
// frame's due time.
func (w *worker) batchLoop() error {
	frames := newPacer(w.grid, w.wl.frameRate)
	items := make([]gateway.BatchItem, batchItems)
	var woke time.Time
	for {
		now := time.Now()
		if !now.Before(w.win.to) {
			return nil
		}
		for {
			due, ok := frames.take(now)
			if !ok {
				break
			}
			if w.win.in(due) {
				w.late.record(due, now)
			}
			for j := range items {
				items[j] = gateway.BatchItem{
					Session: w.regular[w.rnd.IntN(len(w.regular))],
					Bits:    bw.Bits(1 + w.rnd.Int64N(512)),
				}
			}
			req := w.nextReq()
			if err := w.c.sendBatch(items, req); err != nil {
				return err
			}
			id := items[0].Session
			st, _, t1, err := w.c.stats(id, req)
			if err != nil {
				return err
			}
			w.checkServed(id, st)
			w.count(due, batchItems+1)
			from := timedFrom(due, woke)
			w.rttSample(from, t1.Sub(from))
			now = t1
		}
		if err := w.serviceProbes(now); err != nil {
			return err
		}
		next := frames.due()
		if p := w.nextProbe(); p.Before(next) {
			next = p
		}
		woke = sleepUntil(next)
	}
}

// churnLoop is wide-churn: three open-loop streams — STATS polls timed
// from their due times, sparse DATA, and CLOSE+OPEN churn (each new
// session's first STATS checked for a previous occupant's state). The
// timed STATS go first at each boundary, so they wait on the gateway,
// not on this boundary's churn.
func (w *worker) churnLoop() error {
	churn := newPacer(w.grid, w.wl.churnRate)
	data := newPacer(w.grid, w.wl.dataRate)
	polls := newPacer(w.grid, w.wl.statsRate)
	var woke time.Time
	for {
		now := time.Now()
		if !now.Before(w.win.to) {
			return nil
		}
		for due, ok := polls.take(now); ok; due, ok = polls.take(now) {
			t := time.Now()
			if w.win.in(due) {
				w.late.record(due, t)
			}
			id := w.regular[w.rnd.IntN(len(w.regular))]
			_, _, t1, err := w.c.stats(id, w.nextReq())
			if err != nil {
				return err
			}
			w.count(t, 1)
			from := timedFrom(due, woke)
			w.rttSample(from, t1.Sub(from))
		}
		for due, ok := data.take(now); ok; due, ok = data.take(now) {
			t := time.Now()
			if w.win.in(due) {
				w.late.record(due, t)
			}
			id := w.regular[w.rnd.IntN(len(w.regular))]
			if err := w.c.send(id, 1+w.rnd.Int64N(256), w.nextReq()); err != nil {
				return err
			}
			w.count(t, 1)
		}
		for due, ok := churn.take(now); ok; due, ok = churn.take(now) {
			if err := w.churnOne(due); err != nil {
				return err
			}
		}
		if err := w.serviceProbes(time.Now()); err != nil {
			return err
		}
		next := churn.due()
		for _, t := range []time.Time{data.due(), polls.due(), w.nextProbe()} {
			if t.Before(next) {
				next = t
			}
		}
		woke = sleepUntil(next)
	}
}

// churnOne closes a random session and opens a replacement, then checks
// the replacement's first STATS for a previous occupant's state.
func (w *worker) churnOne(due time.Time) error {
	t := time.Now()
	if w.win.in(due) {
		w.late.record(due, t)
	}
	j := w.rnd.IntN(len(w.regular))
	req := w.nextReq()
	if err := w.c.closeSession(w.regular[j], req); err != nil {
		return err
	}
	nOpens := len(w.c.opens)
	id, err := w.c.open(req)
	if err != nil {
		return err
	}
	if !w.win.in(t) {
		w.c.opens = w.c.opens[:nOpens] // warm-up churn is not measured
	}
	w.regular[j] = id
	if err := w.reopenCheck(id, req); err != nil {
		return err
	}
	w.count(t, 3)
	return nil
}

// reopenCheck issues a re-opened session's first STATS and counts it as
// leaked when it shows a previous occupant's served, queued or changes.
func (w *worker) reopenCheck(id uint32, req uint64) error {
	st, _, _, err := w.c.stats(id, req)
	if err != nil {
		return err
	}
	w.reopens++
	if st.Served != 0 || st.Queued != 0 || st.Changes != 0 {
		w.leaked++
	}
	return nil
}
