package gateway

import (
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/sim"
)

// manualTicks drives the gateway deterministically. Sending on the
// channel blocks until the tick loop consumes it, and the tick loop holds
// the gateway mutex for the whole tick, so after `ch <- x` returns the
// previous tick is either done or in progress; a second tick guarantees
// the first completed.
type manualTicks struct {
	ch chan time.Time
}

func newManualTicks() *manualTicks { return &manualTicks{ch: make(chan time.Time)} }

func (m *manualTicks) tick() { m.ch <- time.Time{} }

// step runs one allocation round and waits until it has completed, so
// whatever the test does next cannot interleave with it.
func (m *manualTicks) step(t *testing.T, g *Gateway) {
	t.Helper()
	want := g.now.Load() + 1
	m.tick()
	deadline := time.Now().Add(5 * time.Second)
	for g.now.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("gateway stuck at tick %d, want %d", g.now.Load(), want)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func startGateway(t *testing.T, k int) (*Gateway, *manualTicks) {
	t.Helper()
	p := core.MultiParams{K: k, BO: bw.Rate(16 * k), DO: 4}
	alloc := core.MustNewPhased(p)
	ticks := newManualTicks()
	g, err := New("127.0.0.1:0", k, alloc, ticks.ch)
	if err != nil {
		t.Fatal(err)
	}
	return g, ticks
}

func TestNewValidation(t *testing.T) {
	ch := make(chan time.Time)
	if _, err := New("127.0.0.1:0", 0, nil, ch); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New("127.0.0.1:0", 2, nil, ch); err == nil {
		t.Error("nil allocator accepted")
	}
	p := core.MultiParams{K: 2, BO: 32, DO: 4}
	if _, err := New("127.0.0.1:0", 2, core.MustNewPhased(p), nil); err == nil {
		t.Error("nil ticks accepted")
	}
}

// openMux dials the gateway and opens n sessions on one Mux, which is
// closed when the test ends.
func openMux(t *testing.T, addr string, n int) (*Mux, []uint32) {
	t.Helper()
	m, err := DialMux(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	ids := make([]uint32, n)
	for i := range ids {
		if ids[i], err = m.Open(); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	return m, ids
}

func TestSessionLifecycle(t *testing.T) {
	g, ticks := startGateway(t, 2)
	m, ids := openMux(t, g.Addr(), 1)
	id := ids[0]
	if err := m.Send(id, 64); err != nil {
		t.Fatal(err)
	}
	// Stats round-trips through the same connection, so the DATA message
	// is guaranteed processed before the STATS request.
	if _, err := m.Stats(id); err != nil {
		t.Fatal(err)
	}
	// Run enough ticks for the phased algorithm to serve 64 bits.
	for i := 0; i < 40; i++ {
		ticks.tick()
	}
	st, err := m.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Served+st.Queued != 64 {
		t.Errorf("served %d + queued %d != 64", st.Served, st.Queued)
	}
	m.Close()
	stats := g.Close()
	if stats.Served+stats.Queued != 64 {
		t.Errorf("gateway accounting: %+v", stats)
	}
	if stats.Ticks != 40 {
		t.Errorf("Ticks = %d, want 40", stats.Ticks)
	}
}

// TestSessionSlotsExhaustAndRecycle: a connection that hangs up without
// CLOSE gives its slots back once the gateway notices the disconnect.
func TestSessionSlotsExhaustAndRecycle(t *testing.T) {
	g, _ := startGateway(t, 1)
	defer g.Close()

	first, _ := openMux(t, g.Addr(), 1)
	second, _ := openMux(t, g.Addr(), 0)
	if _, err := second.Open(); err == nil {
		t.Fatal("second session on a 1-slot gateway accepted")
	}
	first.Close()
	// The slot frees asynchronously when the handler notices the close;
	// retry briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := second.Open(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never recycled after close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayServesMultipleSessionsWithDelayBound(t *testing.T) {
	const k = 3
	p := core.MultiParams{K: k, BO: 48, DO: 4}
	alloc := core.MustNewPhased(p)
	ticks := newManualTicks()
	g, err := New("127.0.0.1:0", k, alloc, ticks.ch)
	if err != nil {
		t.Fatal(err)
	}

	m, ids := openMux(t, g.Addr(), k)
	// Bursty rounds: each session sends a small burst, then ticks pass.
	for round := 0; round < 20; round++ {
		for i, id := range ids {
			if err := m.Send(id, bw.Bits(4+2*i)); err != nil {
				t.Fatal(err)
			}
		}
		// Synchronize: a stats round-trip on the shared connection
		// guarantees the DATA messages are queued before the next tick.
		if _, err := m.Stats(ids[0]); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			ticks.tick()
		}
	}
	for i := 0; i < 60; i++ {
		ticks.tick()
	}
	stats := g.Close()
	// Close drops what the still-open sessions hold, so a drained
	// gateway has neither queued nor dropped anything.
	if stats.Queued != 0 || stats.Dropped != 0 {
		t.Fatalf("gateway did not drain: %+v", stats)
	}
	// The phased algorithm's delay bound (plus one tick because a DATA
	// message lands between ticks and waits for the next one).
	if stats.MaxDelay > p.DA()+1 {
		t.Errorf("max delay %d exceeds %d", stats.MaxDelay, p.DA()+1)
	}
	if limit := 4*p.BO + bw.Rate(k); stats.MaxTotalRate > limit {
		t.Errorf("total bandwidth %d exceeds %d", stats.MaxTotalRate, limit)
	}
}

// TestClientSendValidation: both send paths refuse negative bits and
// sessions the mux does not hold (never opened, or already closed)
// client-side, without putting anything on the wire.
func TestClientSendValidation(t *testing.T) {
	g, _ := startGateway(t, 2)
	defer g.Close()
	m, ids := openMux(t, g.Addr(), 2)
	owned, closed := ids[0], ids[1]
	if err := m.CloseSession(closed); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		session uint32
		bits    bw.Bits
	}{
		{"negative", owned, -1},
		{"never opened", 99, 8},
		{"closed", closed, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := m.Send(tc.session, tc.bits); err == nil {
				t.Error("Send accepted")
			}
			batch := []BatchItem{{Session: owned, Bits: 1}, {Session: tc.session, Bits: tc.bits}}
			if err := m.SendBatch(batch); err == nil {
				t.Error("SendBatch accepted")
			}
		})
	}
	// Nothing reached the gateway: the connection still serves the owned
	// session (a stray DATA would have been a protocol violation) and its
	// pending counter is untouched.
	if _, err := m.Stats(owned); err != nil {
		t.Fatal(err)
	}
	sh := g.shards[0]
	sh.mu.Lock()
	pending := sh.slots.Pending()[sh.slot(int(owned))]
	sh.mu.Unlock()
	if pending != 0 {
		t.Errorf("rejected sends leaked %d pending bits", pending)
	}
}

var _ sim.MultiAllocator = (*core.Phased)(nil)
