package gateway

import (
	"bufio"
	"bytes"
	"log/slog"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/obs"
	"dynbw/internal/route"
	"dynbw/internal/sim"
)

// TestReopenedSlotStartsClean reproduces the exact probe that exposed
// the slot leak: open, send 1 Mib, run 5 ticks, CLOSE, re-OPEN the same
// slot. A slot used to hand its queue, served bits, max delay and change
// count to the next occupant; the new session's first STATS must read
// all zero.
func TestReopenedSlotStartsClean(t *testing.T) {
	g, ticks := startGateway(t, 1) // one slot: the re-OPEN must reuse it
	defer g.Close()
	m, ids := openMux(t, g.Addr(), 1)
	if err := m.Send(ids[0], 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stats(ids[0]); err != nil { // barrier: DATA applied
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ticks.step(t, g)
	}
	old, err := m.Stats(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if old.Served == 0 || old.Queued == 0 || old.Changes == 0 {
		t.Fatalf("probe too weak: first occupant %+v should have served, queued and changed", old)
	}
	if err := m.CloseSession(ids[0]); err != nil {
		t.Fatal(err)
	}
	id, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[0] {
		t.Fatalf("re-OPEN got slot %d, want %d", id, ids[0])
	}
	st, err := m.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if st != (SessionStats{}) {
		t.Errorf("re-opened session's first STATS = %+v, want all zero (previous occupant: %+v)", st, old)
	}
}

// conservedTotals asserts arrived = served + queued + dropped on every
// shard's kernel and over their sum, and returns the sum.
func conservedTotals(t *testing.T, g *Gateway) sim.Totals {
	t.Helper()
	var all sim.Totals
	for _, sh := range g.shards {
		sh.mu.Lock()
		tot := sh.slots.Totals()
		sh.mu.Unlock()
		if tot.Arrived != tot.Served+tot.Queued+tot.Dropped {
			t.Errorf("shard %d: arrived %d != served %d + queued %d + dropped %d",
				sh.idx, tot.Arrived, tot.Served, tot.Queued, tot.Dropped)
		}
		all.Arrived += tot.Arrived
		all.Served += tot.Served
		all.Queued += tot.Queued
		all.Dropped += tot.Dropped
	}
	if all.Arrived != all.Served+all.Queued+all.Dropped {
		t.Errorf("total: arrived %d != served %d + queued %d + dropped %d",
			all.Arrived, all.Served, all.Queued, all.Dropped)
	}
	return all
}

// promCounter reads one unlabelled series from the registry's
// Prometheus text.
func promCounter(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("series %s missing", name)
	return 0
}

// TestSessionReleaseMatrix runs every way a session can end against a
// live gateway. Each row ends a session that still holds bits, and
// reports how many it held. Then it checks the new occupant's first
// STATS, and that the bits were dropped and counted. It also checks
// that bits are conserved on every shard and in total, both live and
// in the shutdown Stats.
func TestSessionReleaseMatrix(t *testing.T) {
	tests := []struct {
		name string
		// cfg completes a gateway config over 8 slots.
		cfg func(cfg *Config)
		// run ends one session and returns the bits it held then and a
		// Mux holding the next occupant of that session's slot.
		run func(t *testing.T, g *Gateway, ticks *manualTicks) (held bw.Bits, m *Mux, next uint32)
	}{
		{
			name: "close with queued bits",
			cfg:  phasedCfg(2),
			run: func(t *testing.T, g *Gateway, ticks *manualTicks) (bw.Bits, *Mux, uint32) {
				m, ids := openMux(t, g.Addr(), 1)
				st := sendAndTick(t, g, ticks, m, ids[0], 4096, 2)
				if st.Queued == 0 {
					t.Fatalf("nothing queued at CLOSE: %+v", st)
				}
				if err := m.CloseSession(ids[0]); err != nil {
					t.Fatal(err)
				}
				return st.Queued, m, reopen(t, m, int(ids[0]))
			},
		},
		{
			name: "close with pending only",
			cfg:  phasedCfg(4),
			run: func(t *testing.T, g *Gateway, ticks *manualTicks) (bw.Bits, *Mux, uint32) {
				m, ids := openMux(t, g.Addr(), 1)
				st := sendAndTick(t, g, ticks, m, ids[0], 64, 0)
				if st != (SessionStats{}) {
					t.Fatalf("bits left pending: %+v", st)
				}
				if err := m.CloseSession(ids[0]); err != nil {
					t.Fatal(err)
				}
				return 64, m, reopen(t, m, int(ids[0]))
			},
		},
		{
			name: "disconnect instead of close",
			cfg:  phasedCfg(1),
			run: func(t *testing.T, g *Gateway, ticks *manualTicks) (bw.Bits, *Mux, uint32) {
				m, ids := openMux(t, g.Addr(), 1)
				st := sendAndTick(t, g, ticks, m, ids[0], 4096, 2)
				m.Close() // the handler releases what the connection held
				deadline := time.Now().Add(2 * time.Second)
				for g.shards[0].openCount() != 0 {
					if time.Now().After(deadline) {
						t.Fatal("slot never freed after disconnect")
					}
					time.Sleep(time.Millisecond)
				}
				next, _ := openMux(t, g.Addr(), 0)
				return st.Queued, next, reopen(t, next, int(ids[0]))
			},
		},
		{
			name: "multi-link reopen after rebalance",
			cfg: func(cfg *Config) {
				cfg.Links = 2
				cfg.Router = route.NewGreedy(route.Uniform(2, 4))
				cfg.LinkAllocs = linkAllocs(t, 2, 4)
				cfg.RebalanceEvery = 1
				cfg.RebalanceLimit = 4
			},
			run: func(t *testing.T, g *Gateway, ticks *manualTicks) (bw.Bits, *Mux, uint32) {
				// Greedy alternates links; closing three link-1 sessions
				// leaves 4 against 1, so the t=1 pass moves session 0.
				m, ids := openMux(t, g.Addr(), 8)
				for _, i := range []int{1, 3, 5} {
					if err := m.CloseSession(ids[i]); err != nil {
						t.Fatal(err)
					}
				}
				st := sendAndTick(t, g, ticks, m, ids[0], 4096, 2)
				if l := g.router.(*route.Policy).Where(int(ids[0])); l != 1 {
					t.Fatalf("session 0 on link %d after rebalance, want 1", l)
				}
				if err := m.CloseSession(ids[0]); err != nil {
					t.Fatal(err)
				}
				return st.Queued, m, reopen(t, m, -1) // a fresh external ID
			},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ticks := newManualTicks()
			reg := obs.NewRegistry()
			cfg := Config{Addr: "127.0.0.1:0", Slots: 8, Ticks: ticks.ch, Metrics: reg}
			tc.cfg(&cfg)
			g, err := NewWithConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()

			held, m, next := tc.run(t, g, ticks)
			if held == 0 {
				t.Fatal("the released session held no bits")
			}
			if st, err := m.Stats(next); err != nil || st != (SessionStats{}) {
				t.Errorf("next occupant's first STATS = %+v (err %v), want all zero", st, err)
			}
			live := conservedTotals(t, g)
			if live.Dropped != held {
				t.Errorf("dropped %d, want the %d bits the session held", live.Dropped, held)
			}
			if got := promCounter(t, reg, "dynbw_gateway_dropped_bits_total"); got != int64(held) {
				t.Errorf("dynbw_gateway_dropped_bits_total = %d, want %d", got, held)
			}
			if got := promCounter(t, reg, "dynbw_gateway_arrived_bits_total"); got != int64(live.Arrived) {
				t.Errorf("dynbw_gateway_arrived_bits_total = %d, want %d", got, live.Arrived)
			}
			ticks.step(t, g)
			st := g.Close()
			if st.Arrived != st.Served+st.Queued+st.Dropped || st.Arrived != live.Arrived {
				t.Errorf("shutdown stats not conserved: %+v (arrived live: %d)", st, live.Arrived)
			}
		})
	}
}

// phasedCfg completes a config with one phased allocator per shard,
// each over its B_O/n share.
func phasedCfg(nshards int) func(cfg *Config) {
	return func(cfg *Config) {
		m := cfg.Slots / nshards
		allocs := make([]sim.MultiAllocator, nshards)
		for i := range allocs {
			allocs[i] = core.MustNewPhased(core.MultiParams{K: m, BO: bw.Rate(16 * m), DO: 4})
		}
		if nshards == 1 {
			cfg.Alloc = allocs[0]
			return
		}
		cfg.Shards, cfg.ShardAllocs = nshards, allocs
	}
}

// sendAndTick sends bits to a session, runs n rounds, and returns the
// session's STATS afterwards.
func sendAndTick(t *testing.T, g *Gateway, ticks *manualTicks, m *Mux, id uint32, bits bw.Bits, n int) SessionStats {
	t.Helper()
	if err := m.Send(id, bits); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stats(id); err != nil { // barrier: DATA applied
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ticks.step(t, g)
	}
	st, err := m.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// reopen opens one more session on m, which must get the wire ID want
// unless want is negative.
func reopen(t *testing.T, m *Mux, want int) uint32 {
	t.Helper()
	id, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	if want >= 0 && int(id) != want {
		t.Fatalf("re-OPEN got session %d, want the released slot %d", id, want)
	}
	return id
}

// badAlloc answers its first round with a malformed rate slice and
// every later round with rate 8 for each of its k slots.
type badAlloc struct {
	k   int
	bad []bw.Rate
}

func (a *badAlloc) Rates(t bw.Tick, _, _ []bw.Bits) []bw.Rate {
	if t == 0 {
		return a.bad
	}
	out := make([]bw.Rate, a.k)
	for i := range out {
		out[i] = 8
	}
	return out
}

// TestGatewayRejectsBadRates: the kernel's allocator contract, as the
// gateway sees it. A round with a malformed rate slice is logged and
// serves nothing, and the next valid round proceeds.
func TestGatewayRejectsBadRates(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  []bw.Rate
	}{
		{"negative entry", []bw.Rate{8, -1}},
		{"short slice", []bw.Rate{8}},
		{"long slice", []bw.Rate{8, 8, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logged bytes.Buffer
			ticks := newManualTicks()
			g, err := NewWithConfig(Config{
				Addr: "127.0.0.1:0", Slots: 2, Ticks: ticks.ch,
				Alloc: &badAlloc{k: 2, bad: tc.bad},
				Log:   slog.New(slog.NewTextHandler(&logged, nil)),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			m, ids := openMux(t, g.Addr(), 2)
			for _, id := range ids {
				if st := sendAndTick(t, g, ticks, m, id, 8, 0); st != (SessionStats{}) {
					t.Fatalf("session %d before any round: %+v", id, st)
				}
			}
			ticks.step(t, g)
			for _, id := range ids {
				st, err := m.Stats(id)
				if err != nil {
					t.Fatal(err)
				}
				if st != (SessionStats{Queued: 8}) {
					t.Errorf("session %d after the rejected round: %+v, want only 8 queued", id, st)
				}
			}
			if !strings.Contains(logged.String(), "allocator round rejected") {
				t.Errorf("rejected round not logged; log:\n%s", logged.String())
			}
			ticks.step(t, g)
			for _, id := range ids {
				st, err := m.Stats(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.Served != 8 || st.Queued != 0 || st.Changes != 1 {
					t.Errorf("session %d after the next round: %+v, want 8 served, 1 change", id, st)
				}
			}
		})
	}
}

// flipRates changes every slot's rate on every tick, returning one
// reused slice.
type flipRates struct{ rates []bw.Rate }

func (a *flipRates) Rates(t bw.Tick, _, _ []bw.Bits) []bw.Rate {
	for i := range a.rates {
		a.rates[i] = bw.Rate(1 + t%2)
	}
	return a.rates
}

// TestShardTickZeroAllocs: a gateway round allocates nothing even when
// every slot's rate changes every tick. The gateway keeps no per-slot
// rate history, only the kernel's last rate and change counter.
func TestShardTickZeroAllocs(t *testing.T) {
	const k = 64
	g := newGateway(k, 1)
	sh := g.shards[0]
	sh.allocs = []sim.MultiAllocator{&flipRates{rates: make([]bw.Rate, k)}}
	tick := bw.Tick(0)
	round := func() {
		for i := range sh.slots.Pending() {
			sh.slots.Pending()[i] = 1
		}
		if _, _, changes, _ := sh.tick(tick); changes != k {
			t.Fatalf("tick %d: %d changes, want %d", tick, changes, k)
		}
		tick++
	}
	for i := 0; i < 256; i++ { // warm the FIFO chunk and histogram storage
		round()
	}
	if n := mallocs(200, round); n != 0 {
		t.Errorf("200 shard.tick rounds allocated %d objects, want 0", n)
	}
}

// mallocs counts the heap allocations of runs calls to f at GOMAXPROCS
// 1. Unlike testing.AllocsPerRun it does not round the per-run average
// down, so amortized growth (an append that reallocates once in a
// while) still counts.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
