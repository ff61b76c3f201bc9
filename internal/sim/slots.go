package sim

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/queue"
)

// Slots is the per-tick kernel of the multi-session algorithms (§3–4):
// enqueue arrivals, read queue lengths, compute rates, serve, and count
// changes. MultiRunner steps it over a trace and every gateway shard
// steps it from a wall clock, so simulator and live service run one
// loop. A round is Arrive, which pushes every slot's pending bits into
// its FIFO, then Allocate over one or more slot ranges; a caller may
// stop between the two (MultiRunner's drain break).
//
// Per-slot state is charged to the slot's current occupant, as
// Even–Medina charge a circuit of unknown duration: Release drops the
// occupant's bits and zeroes its counters, while the run totals keep
// everything. The last applied rate belongs to the slot, so the next
// occupant is charged only for real changes.
//
// The zero value holds no slots; Reset sizes it. Not safe for concurrent
// use.
type Slots struct {
	queues  []queue.FIFO
	pending []bw.Bits // arrivals since the last round: Rates' arrived
	queued  []bw.Bits // queue lengths after the push: Rates' queued
	last    []bw.Rate // last applied rate per slot
	changes []int     // rate changes charged to the current occupant
	tot     Totals    // run totals; Totals fills in Queued
}

// Totals are a run's counts over every occupant of every slot. Bits are
// conserved: Arrived = Served + Queued + Dropped.
type Totals struct {
	Arrived, Served, Queued, Dropped bw.Bits
	Changes                          int
	MaxDelay                         bw.Tick
}

// Round is what one Allocate call did over its slot range. Rates is the
// allocator's slice, valid until its next call.
type Round struct {
	Rates   []bw.Rate
	Served  bw.Bits
	Changes int
	Rate    bw.Rate // total rate granted
}

// SlotStats is one slot's state. Rate is the slot's last applied rate;
// the rest is charged to its current occupant. The JSON names are the
// gateway's /sessions fields.
type SlotStats struct {
	Rate     bw.Rate `json:"rate"`
	Queued   bw.Bits `json:"queued"`
	Served   bw.Bits `json:"served"`
	Changes  int     `json:"changes"`
	MaxDelay bw.Tick `json:"max_delay_ticks"`
}

// Reset readies the kernel for k slots with every slot and total at
// zero. Storage grows to the largest k seen and is otherwise reused.
func (s *Slots) Reset(k int) {
	if cap(s.queues) < k {
		s.queues = make([]queue.FIFO, k) // bwlint:allocok once per k growth, reused across runs
		s.pending = make([]bw.Bits, k)   // bwlint:allocok once per k growth, reused across runs
		s.queued = make([]bw.Bits, k)    // bwlint:allocok once per k growth, reused across runs
		s.last = make([]bw.Rate, k)      // bwlint:allocok once per k growth, reused across runs
		s.changes = make([]int, k)       // bwlint:allocok once per k growth, reused across runs
	}
	s.queues = s.queues[:k]
	s.pending = s.pending[:k]
	s.queued = s.queued[:k]
	s.last = s.last[:k]
	s.changes = s.changes[:k]
	for i := range s.queues {
		s.queues[i].Reset()
	}
	clear(s.pending)
	clear(s.last)
	clear(s.changes)
	s.tot = Totals{}
}

// Pending is the per-slot buffer of arrivals since the last round.
// Callers add to it; the next round pushes and zeroes it.
func (s *Slots) Pending() []bw.Bits { return s.pending }

// Arrive pushes every slot's pending bits into its queue at tick t and
// returns the bits pushed and the bits queued afterwards.
//
// bwlint:hotpath
func (s *Slots) Arrive(t bw.Tick) (arrived, queued bw.Bits) {
	for i, p := range s.pending {
		s.queues[i].Push(t, p)
		s.queued[i] = s.queues[i].Bits()
		arrived += p
		queued += s.queued[i]
	}
	s.tot.Arrived += arrived
	return arrived, queued
}

// Allocate asks alloc for the rates of slots [lo, hi) at tick t, after
// Arrive. A slice of the wrong length or with a negative entry is
// rejected before any slot is served. Otherwise every slot in the range
// is served at its rate and each rate that differs from the slot's last
// counts as one change. The range's pending bits are zeroed either way.
//
// bwlint:hotpath
func (s *Slots) Allocate(t bw.Tick, alloc MultiAllocator, lo, hi int) (Round, error) {
	rates := alloc.Rates(t, s.pending[lo:hi], s.queued[lo:hi])
	clear(s.pending[lo:hi])
	if len(rates) != hi-lo {
		// bwlint:allocok cold: allocator contract violation rejects the round
		return Round{}, fmt.Errorf("sim: allocator returned %d rates, want %d", len(rates), hi-lo)
	}
	for i, r := range rates {
		if r < 0 {
			// bwlint:allocok cold: allocator contract violation rejects the round
			return Round{}, fmt.Errorf("sim: session %d negative rate %d at tick %d", i, r, t)
		}
	}
	rd := Round{Rates: rates}
	for i, r := range rates {
		j := lo + i
		rd.Served += s.queues[j].Serve(t, r)
		rd.Rate += r
		if r != s.last[j] {
			s.last[j] = r
			s.changes[j]++
			rd.Changes++
		}
	}
	s.tot.Served += rd.Served
	s.tot.Changes += rd.Changes
	return rd, nil
}

// Release ends slot i's occupancy. Its pending bits count as arrived,
// and they plus its queued bits count as dropped; both are returned for
// the caller's counters. The occupant's queue, served bits, max delay
// and change counter restart from zero (the run totals keep them). The
// slot's last rate stays, so releasing is not itself a change.
func (s *Slots) Release(i int) (arrived, dropped bw.Bits) {
	arrived = s.pending[i]
	dropped = arrived + s.queues[i].Bits()
	s.tot.Arrived += arrived
	s.tot.Dropped += dropped
	s.tot.MaxDelay = max(s.tot.MaxDelay, s.queues[i].MaxDelay())
	s.queues[i].Reset()
	s.pending[i], s.changes[i] = 0, 0
	return arrived, dropped
}

// Move migrates the occupant of slot src to slot dst, which must be free
// (never used, or released): its queue, pending bits and change counter.
// Each slot keeps its last rate. src is left free.
func (s *Slots) Move(src, dst int) {
	s.queues[src], s.queues[dst] = s.queues[dst], s.queues[src]
	s.pending[src], s.pending[dst] = s.pending[dst], s.pending[src]
	s.changes[src], s.changes[dst] = s.changes[dst], s.changes[src]
}

// Slot returns slot i's state.
func (s *Slots) Slot(i int) SlotStats {
	q := &s.queues[i]
	return SlotStats{Rate: s.last[i], Queued: q.Bits(), Served: q.Served(),
		Changes: s.changes[i], MaxDelay: q.MaxDelay()}
}

// Totals returns the run totals, with Queued and MaxDelay covering the
// current occupants.
func (s *Slots) Totals() Totals {
	tot := s.tot
	for i := range s.queues {
		tot.Queued += s.queues[i].Bits()
		tot.MaxDelay = max(tot.MaxDelay, s.queues[i].MaxDelay())
	}
	return tot
}
