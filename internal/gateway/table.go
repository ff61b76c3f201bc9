package gateway

import (
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/sim"
)

// Stats is the gateway-wide accounting snapshot returned by Close: the
// kernels' run totals over every occupant of every slot, merged across
// shards, so a sharded and an unsharded gateway fed the same
// deterministic trace report the same totals. Bits are conserved:
// Arrived = Served + Queued + Dropped, where Dropped counts the bits a
// session still held when it closed. Changes is the paper's cost
// measure summed over sessions; MaxTotalRate is the peak over ticks of
// the total rate granted.
type Stats struct {
	Ticks bw.Tick
	sim.Totals
	MaxTotalRate bw.Rate
}

// Close stops serving immediately — Shutdown with no grace period.
func (g *Gateway) Close() Stats { return g.Shutdown(0) }

// Shutdown stops accepting new connections, keeps allocating and
// serving live sessions for up to grace (so in-flight exchanges finish
// and well-behaved clients CLOSE cleanly), then deadline-closes
// whatever remains, waits for the loops and handlers, and returns the
// final accounting. It is idempotent; repeated calls return the same
// snapshot.
func (g *Gateway) Shutdown(grace time.Duration) Stats {
	g.closeOnce.Do(func() {
		close(g.acceptStop)
		g.ln.Close()
		if grace > 0 {
			// The tick loop keeps serving during the grace window; wait
			// for handlers to drain on their own before forcing.
			handlersDone := make(chan struct{})
			go func() {
				g.wg.Wait()
				close(handlersDone)
			}()
			select {
			case <-handlersDone:
			case <-time.After(grace):
			}
		}
		close(g.closing)
		// Unblock handlers parked in reads on live client connections.
		for _, sh := range g.shards {
			sh.mu.Lock()
			for c := range sh.conns {
				c.Close()
			}
			sh.mu.Unlock()
		}
		g.wg.Wait()
		<-g.done
	})

	st := Stats{Ticks: bw.Tick(g.now.Load()), MaxTotalRate: g.maxTotalRate}
	for _, sh := range g.shards {
		sh.mu.Lock()
		tot := sh.slots.Totals()
		sh.mu.Unlock()
		st.Arrived += tot.Arrived
		st.Served += tot.Served
		st.Queued += tot.Queued
		st.Dropped += tot.Dropped
		st.Changes += tot.Changes
		st.MaxDelay = max(st.MaxDelay, tot.MaxDelay)
	}
	return st
}

// SessionInfo is one slot's live state, served as JSON by the admin
// /sessions endpoint. Rate is the slot's last applied rate; Queued,
// Served, Changes and MaxDelay are charged to the slot's current
// occupant and restart from zero when the slot is released.
type SessionInfo struct {
	Slot int `json:"slot"`
	// Shard is the gateway shard owning this slot (always 0 unsharded).
	Shard int `json:"shard"`
	// Link is the backend link owning this slot (always 0 single-link).
	Link int  `json:"link"`
	Open bool `json:"open"`
	// Ext is the wire session ID bound to the slot, -1 when free (equal
	// to Slot in single-link mode).
	Ext int `json:"ext"`
	sim.SlotStats
}

// Sessions returns a point-in-time snapshot of every slot, in global
// slot order. Shards are snapshotted one at a time, so each shard's
// rows are internally consistent; cross-shard skew is bounded by the
// walk itself (no tick can interleave mid-shard).
func (g *Gateway) Sessions() []SessionInfo {
	out := make([]SessionInfo, 0, g.k)
	for _, sh := range g.shards {
		sh.mu.Lock()
		for i := 0; i < sh.n; i++ {
			slot := sh.base + i
			ext := slot
			if g.router != nil {
				ext = sh.slotExt[i]
			} else if !sh.used[i] {
				ext = -1
			}
			out = append(out, SessionInfo{
				Slot:      slot,
				Shard:     sh.idx,
				Link:      slot / g.lm,
				Open:      sh.used[i],
				Ext:       ext,
				SlotStats: sh.slots.Slot(i),
			})
		}
		sh.mu.Unlock()
	}
	return out
}
