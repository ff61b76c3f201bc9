package gateway

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
)

func startGatewayWithConfig(t *testing.T, k int, idle time.Duration) (*Gateway, *manualTicks) {
	t.Helper()
	p := core.MultiParams{K: k, BO: bw.Rate(16 * k), DO: 4}
	ticks := newManualTicks()
	g, err := NewWithConfig(Config{
		Addr:        "127.0.0.1:0",
		Slots:       k,
		Alloc:       core.MustNewPhased(p),
		Ticks:       ticks.ch,
		IdleTimeout: idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, ticks
}

// TestClientConcurrentUse hammers one session of one Mux from many
// goroutines — a sender and a stats poller sharing a session, as every
// swarm session does. The mutex must serialize request/reply pairs on
// the shared connection. Run with -race.
func TestClientConcurrentUse(t *testing.T) {
	g, ticks := startGateway(t, 1)
	m, ids := openMux(t, g.Addr(), 1)
	id := ids[0]

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				ticks.tick()
				// Throttle: an unthrottled tick pump would hold the
				// gateway mutex almost continuously and starve the
				// handlers this test is exercising.
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	const workers, ops = 8, 50
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if w%2 == 0 {
					if err := m.Send(id, 3); err != nil {
						errs <- err
						return
					}
				} else if _, err := m.Stats(id); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Sync: a Stats round-trip on the shared conn guarantees every prior
	// DATA message has been parsed into pending; two ticks then push
	// pending into the queues so served+queued accounts for everything.
	if _, err := m.Stats(id); err != nil {
		t.Fatal(err)
	}
	ticks.tick()
	ticks.tick()
	st, err := m.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := bw.Bits(3 * ops * workers / 2); st.Served+st.Queued != want {
		t.Errorf("accounted %d bits, want %d", st.Served+st.Queued, want)
	}
	m.Close()
	g.Close()
}

// TestReleaseRecyclesSynchronously verifies the CLOSE/CLOSED exchange:
// once CloseSession returns, the slot is free — no retry loop needed —
// and closing the same session again is a no-op.
func TestReleaseRecyclesSynchronously(t *testing.T) {
	g, _ := startGateway(t, 1)
	defer g.Close()
	m, _ := openMux(t, g.Addr(), 0)
	for i := 0; i < 5; i++ {
		id, err := m.Open()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if err := m.CloseSession(id); err != nil {
			t.Fatalf("round %d close: %v", i, err)
		}
		if err := m.CloseSession(id); err != nil {
			t.Fatalf("round %d second close not idempotent: %v", i, err)
		}
	}
}

// TestOpenFailReportsSessionLimit: slot exhaustion is a typed error and
// the refused connection survives for a later retry.
func TestOpenFailReportsSessionLimit(t *testing.T) {
	g, _ := startGateway(t, 1)
	defer g.Close()
	first, ids := openMux(t, g.Addr(), 1)
	second, _ := openMux(t, g.Addr(), 0)
	if _, err := second.Open(); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("second open: %v, want ErrSessionLimit", err)
	}
	if err := first.CloseSession(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Open(); err != nil {
		t.Fatalf("open after release on the refused connection: %v", err)
	}
}

// TestIdleTimeoutRecyclesWedgedClient: a client that stops talking is
// disconnected and its slot freed.
func TestIdleTimeoutRecyclesWedgedClient(t *testing.T) {
	g, _ := startGatewayWithConfig(t, 1, 50*time.Millisecond)
	defer g.Close()
	openMux(t, g.Addr(), 1) // wedged: says nothing after its OPEN
	// Retry over a second connection until the gateway cuts the wedged
	// one off and frees the slot; the retries keep this one alive.
	m, _ := openMux(t, g.Addr(), 0)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := m.Open(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session's slot never recycled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatsReportsLiveChanges: the STATSR changes field tracks the
// session's schedule renegotiations while the session is running.
func TestStatsReportsLiveChanges(t *testing.T) {
	g, ticks := startGateway(t, 1)
	defer g.Close()
	m, ids := openMux(t, g.Addr(), 1)
	id := ids[0]
	if err := m.Send(id, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stats(id); err != nil { // sync the DATA message
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ticks.tick()
	}
	st, err := m.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Changes == 0 {
		t.Error("no renegotiations reported after serving a burst")
	}
}

// TestProtocolViolationDropsConnection: DATA naming a session the
// connection does not own must sever it.
func TestProtocolViolationDropsConnection(t *testing.T) {
	g, _ := startGateway(t, 2)
	defer g.Close()
	conn, err := net.Dial("tcp", g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var msg [13]byte
	msg[0] = typeData
	binary.BigEndian.PutUint32(msg[1:], 1) // not ours: we never opened
	binary.BigEndian.PutUint64(msg[5:], 64)
	if _, err := conn.Write(msg[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err == nil {
		t.Fatal("connection survived a protocol violation")
	}
}

// TestStatsDeadlineOnDeadGateway: a gateway that accepts but never
// replies cannot hang Stats past the client timeout.
func TestStatsDeadlineOnDeadGateway(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Answer the OPEN so Open succeeds, then go mute.
			go func(conn net.Conn) {
				var typ [1]byte
				if _, err := conn.Read(typ[:]); err != nil {
					return
				}
				var reply [5]byte
				reply[0] = typeOpened
				conn.Write(reply[:])
			}(conn)
		}
	}()
	m, err := DialMux(ln.Addr().String(), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := m.Stats(id); err == nil {
		t.Fatal("Stats succeeded against a mute gateway")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Stats hung %v despite 200ms deadline", elapsed)
	}
}

// TestDeadlineStale pins the amortization contract: the SetDeadline
// syscall is skipped while the armed deadline is fresh and refreshed
// once a quarter of the idle timeout has elapsed — so an idle client is
// cut off after at least 3/4 and at most one full idleTimeout.
func TestDeadlineStale(t *testing.T) {
	const idle = 100 * time.Millisecond
	base := time.Now()
	if deadlineStale(base, base, idle) {
		t.Error("freshly armed deadline reported stale")
	}
	if deadlineStale(base, base.Add(idle/4-time.Nanosecond), idle) {
		t.Error("deadline stale just under a quarter timeout")
	}
	if !deadlineStale(base, base.Add(idle/4), idle) {
		t.Error("deadline fresh at a quarter timeout")
	}
	if !deadlineStale(time.Time{}, base, idle) {
		t.Error("never-armed deadline reported fresh")
	}
}

// TestActiveClientOutlivesIdleTimeout: a client whose sends are spaced
// well under the idle timeout stays connected for many timeouts' worth
// of wall clock — the amortized deadline re-arming must keep pushing
// the cutoff out even when most messages skip the SetDeadline call.
func TestActiveClientOutlivesIdleTimeout(t *testing.T) {
	const idle = 120 * time.Millisecond
	g, _ := startGatewayWithConfig(t, 1, idle)
	defer g.Close()
	m, ids := openMux(t, g.Addr(), 1)
	id := ids[0]
	// 4+ idle timeouts of traffic at ~idle/6 spacing.
	deadline := time.Now().Add(5 * idle)
	for time.Now().Before(deadline) {
		if err := m.Send(id, 1); err != nil {
			t.Fatalf("active client dropped: %v", err)
		}
		if _, err := m.Stats(id); err != nil {
			t.Fatalf("active client dropped: %v", err)
		}
		time.Sleep(idle / 6)
	}
}
