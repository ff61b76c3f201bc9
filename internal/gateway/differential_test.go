package gateway

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/sim"
	"dynbw/internal/trace"
)

// TestGatewayMatchesMultiRunner is the differential proof that the live
// gateway runs exactly the paper's algorithm. Seeded DATA goes through
// a Mux to a gateway whose ticks the test owns, and the test records
// each tick's arrivals per slot. Ticking goes on until every queue is
// empty. Each shard's recorded trace then runs through MultiRunner with
// a fresh allocator of the same parameters (the shard's B_O/n share
// over its slot range). Every slot's rate at every tick, and its final
// served bits, changes and max delay from STATS, must equal the
// simulator's.
func TestGatewayMatchesMultiRunner(t *testing.T) {
	const (
		k     = 16
		n     = 64 // ticks that carry DATA
		do    = bw.Tick(4)
		share = 16 // B_O per slot per tick
	)
	for _, policy := range []string{"phased", "continuous", "combined"} {
		for _, nshards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, nshards), func(t *testing.T) {
				spp := k / nshards
				newAlloc := func() sim.MultiAllocator {
					a, err := core.NewPolicy(policy, spp, bw.Rate(share*spp), do)
					if err != nil {
						t.Fatal(err)
					}
					return a
				}
				ticks := newManualTicks()
				cfg := Config{Addr: "127.0.0.1:0", Slots: k, Ticks: ticks.ch}
				if nshards == 1 {
					cfg.Alloc = newAlloc()
				} else {
					cfg.Shards = nshards
					for i := 0; i < nshards; i++ {
						cfg.ShardAllocs = append(cfg.ShardAllocs, newAlloc())
					}
				}
				g, err := NewWithConfig(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer g.Close()
				m, ids := openMux(t, g.Addr(), k)

				// Drive the gateway. Session IDs are global slot indices.
				rnd := rand.New(rand.NewPCG(uint64(len(policy)), uint64(nshards)))
				arrivals := make([][]bw.Bits, k) // slot -> bits per tick
				var rates [][]bw.Rate            // tick -> rate per slot
				for tick := 0; ; tick++ {
					for _, id := range ids {
						var bits bw.Bits
						if tick < n && rnd.IntN(3) == 0 {
							bits = bw.Bits(1 + rnd.IntN(8*share))
							if err := m.Send(id, bits); err != nil {
								t.Fatal(err)
							}
						}
						arrivals[id] = append(arrivals[id], bits)
					}
					// A STATS round trip orders every DATA before it.
					sts, err := m.StatsBatch(ids)
					if err != nil {
						t.Fatal(err)
					}
					if tick >= n && drained(sts) {
						for id := range arrivals { // this tick is not run
							arrivals[id] = arrivals[id][:tick]
						}
						break
					}
					if tick > 100*n {
						t.Fatalf("gateway never drained")
					}
					ticks.step(t, g)
					row := make([]bw.Rate, k)
					for _, s := range g.Sessions() {
						row[s.Slot] = s.Rate
					}
					rates = append(rates, row)
				}
				final, err := m.StatsBatch(ids)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]SessionStats, k)
				var changes, delays int64
				for i, id := range ids {
					got[id] = final[i]
					changes += final[i].Changes
					delays += int64(final[i].MaxDelay)
				}
				if changes == 0 || delays == 0 {
					t.Fatalf("vacuous run: %d changes, %d summed max delay", changes, delays)
				}

				// Replay each shard's slots through the simulator.
				for sh := 0; sh < nshards; sh++ {
					sessions := make([]*trace.Trace, spp)
					for i := range sessions {
						sessions[i] = trace.MustNew(arrivals[sh*spp+i])
					}
					res, err := sim.NewMultiRunner().Run(trace.MustNewMulti(sessions), newAlloc(), sim.Options{})
					if err != nil {
						t.Fatal(err)
					}
					for i, tr := range sessions {
						slot := sh*spp + i
						sched := res.Sessions[i]
						if sched.Len() != bw.Tick(len(rates)) {
							t.Fatalf("slot %d: simulator ran %d ticks, gateway %d", slot, sched.Len(), len(rates))
						}
						for tick, row := range rates {
							if want := sched.At(bw.Tick(tick)); row[slot] != want {
								t.Fatalf("slot %d tick %d: gateway rate %d, simulator %d", slot, tick, row[slot], want)
							}
						}
						want := SessionStats{Served: tr.Total(), MaxDelay: res.SessionDelays[i], Changes: int64(sched.Changes())}
						if got[slot] != want {
							t.Errorf("slot %d: gateway STATS %+v, simulator %+v", slot, got[slot], want)
						}
					}
				}
			})
		}
	}
}

// drained reports whether no session has bits queued.
func drained(sts []SessionStats) bool {
	for _, st := range sts {
		if st.Queued != 0 {
			return false
		}
	}
	return true
}
