package gateway

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dynbw/internal/bw"
)

// Mux is the gateway's wire client: any number of sessions multiplexed
// over one TCP connection. One connection per session would exhaust
// file descriptors around a few thousand sessions; a Mux holds hundreds
// on a single descriptor, which is what lets a 100k-session soak fit
// inside an ordinary fd limit. It is safe for concurrent use: a mutex
// serializes every request/reply exchange on the shared connection, so
// goroutines driving different sessions (or one session's sender and
// its stats poller) can share one Mux.
type Mux struct {
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration
	open    map[uint32]struct{} // guarded by mu; sessions this conn holds
	closed  bool                // guarded by mu

	traceEvery uint64 // guarded by mu; 0 disables client-side tracing
	exchanges  uint64 // guarded by mu; requests sent since TraceEvery was set
	nextTrace  uint64 // guarded by mu; client-minted trace IDs
	// scratch assembles envelope+request writes and receives replies;
	// living in the Mux keeps both off the heap. Guarded by mu.
	scratch [statsReplyLen]byte
	batch   []byte // guarded by mu; BATCH frame assembly buffer, reused
}

// BatchItem is one DATA submission inside a Mux.SendBatch call.
type BatchItem struct {
	Session uint32
	Bits    bw.Bits
}

// SessionStats is the per-session accounting returned by Mux.Stats and
// Mux.StatsBatch.
type SessionStats struct {
	Served   bw.Bits
	Queued   bw.Bits
	MaxDelay bw.Tick
	// Changes counts this session's bandwidth renegotiations so far —
	// the paper's cost measure, observable live.
	Changes int64
}

// DialMux connects to a gateway without opening any session. The
// timeout bounds the dial and, when positive, every subsequent
// request/reply exchange, so a dead gateway cannot hang callers.
func DialMux(addr string, timeout time.Duration) (*Mux, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("gateway: dial: %w", err)
	}
	return &Mux{conn: conn, timeout: timeout, open: make(map[uint32]struct{})}, nil
}

func (m *Mux) armDeadline() {
	if m.timeout > 0 {
		m.conn.SetDeadline(time.Now().Add(m.timeout))
	}
}

func (m *Mux) disarmDeadline() {
	if m.timeout > 0 {
		m.conn.SetDeadline(time.Time{})
	}
}

// TraceEvery asks the gateway to trace every n-th request sent through
// this mux: the request is prefixed with a TRACE envelope carrying a
// client-minted trace ID (top bit set, distinguishing it from the
// gateway's own sampled IDs), and the gateway records a full wire-path
// span for it regardless of its local sampling rate. Every message
// inside a BATCH frame counts as a request. n <= 0 disables.
func (m *Mux) TraceEvery(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		m.traceEvery = 0
		return
	}
	m.traceEvery = uint64(n)
	m.exchanges = 0
}

// envelope counts one request and, when it is the traceEvery-th,
// appends its TRACE envelope to buf. Callers hold m.mu.
func (m *Mux) envelope(buf []byte) []byte {
	if m.traceEvery == 0 {
		return buf
	}
	if m.exchanges++; m.exchanges%m.traceEvery != 0 {
		return buf
	}
	m.nextTrace++
	buf = append(buf, typeTrace)
	return binary.BigEndian.AppendUint64(buf, 1<<63|m.nextTrace)
}

// writeMsg sends one request behind its TRACE envelope, if one is due,
// in a single Write. Callers hold m.mu.
func (m *Mux) writeMsg(msg []byte) error {
	buf := append(m.envelope(m.scratch[:0]), msg...)
	_, err := m.conn.Write(buf)
	return err
}

// writeBatch sends n messages as BATCH frames of up to MaxBatch each —
// one conn write per frame. put appends message i (its TRACE envelope,
// when due, is already in place). replies, when non-nil, consumes the
// replies to messages [lo, hi) before the next frame goes out, so the
// gateway's reply buffer never backs up. Callers hold m.mu.
func (m *Mux) writeBatch(n int, put func(buf []byte, i int) []byte, replies func(lo, hi int) error) error {
	for lo := 0; lo < n; lo += MaxBatch {
		hi := min(n, lo+MaxBatch)
		buf := append(m.batch[:0], typeBatch)
		buf = binary.BigEndian.AppendUint16(buf, uint16(hi-lo))
		for i := lo; i < hi; i++ {
			buf = put(m.envelope(buf), i)
		}
		m.batch = buf // keep the grown capacity for the next call
		if _, err := m.conn.Write(buf); err != nil {
			return err
		}
		if replies != nil {
			if err := replies(lo, hi); err != nil {
				return err
			}
		}
	}
	return nil
}

// read fills the first n bytes of the scratch buffer from the
// connection. Callers hold m.mu.
func (m *Mux) read(n int) ([]byte, error) {
	_, err := io.ReadFull(m.conn, m.scratch[:n])
	return m.scratch[:n], err
}

// readStats decodes one STATSR reply. Callers hold m.mu.
func (m *Mux) readStats() (SessionStats, error) {
	reply, err := m.read(statsReplyLen)
	if err != nil {
		return SessionStats{}, err
	}
	if reply[0] != typeStatsR {
		return SessionStats{}, fmt.Errorf("gateway: unexpected stats reply type %d", reply[0])
	}
	return SessionStats{
		Served:   bw.Bits(binary.BigEndian.Uint64(reply[1:])),
		Queued:   bw.Bits(binary.BigEndian.Uint64(reply[9:])),
		MaxDelay: bw.Tick(binary.BigEndian.Uint64(reply[17:])),
		Changes:  int64(binary.BigEndian.Uint64(reply[25:])),
	}, nil
}

// owns reports an error unless every session is held by this mux.
// Callers hold m.mu.
func (m *Mux) owns(op string, sessions ...uint32) error {
	for _, s := range sessions {
		if _, ok := m.open[s]; !ok {
			return fmt.Errorf("gateway: %s on unowned session %d", op, s)
		}
	}
	return nil
}

// Open performs an OPEN/OPENED exchange and returns the new session ID.
// ErrSessionLimit means every slot is taken; the Mux stays usable, so
// the caller can retry over the same connection.
func (m *Mux) Open() (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, fmt.Errorf("gateway: open on closed mux")
	}
	m.armDeadline()
	defer m.disarmDeadline()
	if err := m.writeMsg([]byte{typeOpen}); err != nil {
		return 0, fmt.Errorf("gateway: open: %w", err)
	}
	typ, err := m.read(1)
	if err != nil {
		return 0, fmt.Errorf("gateway: open reply: %w", err)
	}
	switch typ[0] {
	case typeOpened:
		body, err := m.read(4)
		if err != nil {
			return 0, fmt.Errorf("gateway: open reply: %w", err)
		}
		id := binary.BigEndian.Uint32(body)
		m.open[id] = struct{}{}
		return id, nil
	case typeOpenFail:
		return 0, ErrSessionLimit
	default:
		return 0, fmt.Errorf("gateway: unexpected open reply type %d", typ[0])
	}
}

// Send submits bits to one of the mux's sessions (no reply).
func (m *Mux) Send(session uint32, bits bw.Bits) error {
	if bits < 0 {
		return fmt.Errorf("gateway: negative send %d", bits)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.owns("send", session); err != nil {
		return err
	}
	var msg [13]byte
	msg[0] = typeData
	binary.BigEndian.PutUint32(msg[1:], session)
	binary.BigEndian.PutUint64(msg[5:], uint64(bits))
	m.armDeadline()
	defer m.disarmDeadline()
	if err := m.writeMsg(msg[:]); err != nil {
		return fmt.Errorf("gateway: send: %w", err)
	}
	return nil
}

// SendBatch submits DATA to many of the mux's sessions as BATCH frames
// — one conn write per up-to-MaxBatch items instead of one per item, so
// a fleet keeping thousands of sessions warm pays a small fraction of
// the per-message syscall cost. Items are validated up front; the
// assembly buffer is retained across calls.
func (m *Mux) SendBatch(items []BatchItem) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, it := range items {
		if it.Bits < 0 {
			return fmt.Errorf("gateway: negative send %d", it.Bits)
		}
		if err := m.owns("send", it.Session); err != nil {
			return err
		}
	}
	m.armDeadline()
	defer m.disarmDeadline()
	err := m.writeBatch(len(items), func(buf []byte, i int) []byte {
		buf = append(buf, typeData)
		buf = binary.BigEndian.AppendUint32(buf, items[i].Session)
		return binary.BigEndian.AppendUint64(buf, uint64(items[i].Bits))
	}, nil)
	if err != nil {
		return fmt.Errorf("gateway: send batch: %w", err)
	}
	return nil
}

// Stats fetches one session's accounting from the gateway.
func (m *Mux) Stats(session uint32) (SessionStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.owns("stats", session); err != nil {
		return SessionStats{}, err
	}
	var req [5]byte
	req[0] = typeStats
	binary.BigEndian.PutUint32(req[1:], session)
	m.armDeadline()
	defer m.disarmDeadline()
	if err := m.writeMsg(req[:]); err != nil {
		return SessionStats{}, fmt.Errorf("gateway: stats: %w", err)
	}
	st, err := m.readStats()
	if err != nil {
		return SessionStats{}, fmt.Errorf("gateway: stats reply: %w", err)
	}
	return st, nil
}

// StatsBatch fetches several sessions' accounting in one pipelined
// round trip per up-to-MaxBatch sessions: one BATCH frame of STATS
// requests goes out in a single write, the gateway coalesces the
// replies, and they are read back in request order. The result is
// indexed like sessions.
func (m *Mux) StatsBatch(sessions []uint32) ([]SessionStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.owns("stats", sessions...); err != nil {
		return nil, err
	}
	out := make([]SessionStats, len(sessions))
	m.armDeadline()
	defer m.disarmDeadline()
	err := m.writeBatch(len(sessions), func(buf []byte, i int) []byte {
		buf = append(buf, typeStats)
		return binary.BigEndian.AppendUint32(buf, sessions[i])
	}, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			st, err := m.readStats()
			if err != nil {
				return fmt.Errorf("reply %d: %w", i, err)
			}
			out[i] = st
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("gateway: stats batch: %w", err)
	}
	return out, nil
}

// CloseSession returns one session's slot to the gateway with an
// explicit CLOSE/CLOSED exchange; the slot is guaranteed free when it
// returns nil — the property that lets thousands of short-lived
// sessions recycle a small slot pool. Closing a session the mux no
// longer holds is a no-op, so CloseSession is idempotent.
func (m *Mux) CloseSession(session uint32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.open[session]; !ok {
		return nil
	}
	var req [5]byte
	req[0] = typeClose
	binary.BigEndian.PutUint32(req[1:], session)
	m.armDeadline()
	defer m.disarmDeadline()
	if err := m.writeMsg(req[:]); err != nil {
		return fmt.Errorf("gateway: close: %w", err)
	}
	reply, err := m.read(1)
	if err != nil {
		return fmt.Errorf("gateway: close reply: %w", err)
	}
	if reply[0] != typeClosed {
		return fmt.Errorf("gateway: unexpected close reply type %d", reply[0])
	}
	delete(m.open, session)
	return nil
}

// Sessions reports how many sessions the mux currently holds.
func (m *Mux) Sessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.open)
}

// Close tears down the connection. Sessions still open are released by
// the gateway's handler when it observes the disconnect, so an explicit
// per-session CLOSE sweep is not required for slot recycling — only for
// the stronger "free before Close returns" guarantee of CloseSession.
func (m *Mux) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return m.conn.Close()
}
