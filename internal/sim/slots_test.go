package sim

import (
	"runtime"
	"strings"
	"testing"

	"dynbw/internal/bw"
	"dynbw/internal/trace"
)

// flipAlloc changes every slot's rate on every tick (1 and 2 in turn),
// returning one reused slice: the worst case for change counting and
// the best case for allocation, since the policy itself allocates
// nothing.
type flipAlloc struct{ rates []bw.Rate }

func (a *flipAlloc) Rates(t bw.Tick, _, _ []bw.Bits) []bw.Rate {
	for i := range a.rates {
		a.rates[i] = bw.Rate(1 + t%2)
	}
	return a.rates
}

// TestSlotsRoundZeroAllocs: a kernel round (Arrive plus Allocate) does
// not allocate, even when every slot's rate changes every tick.
func TestSlotsRoundZeroAllocs(t *testing.T) {
	const k = 64
	var s Slots
	s.Reset(k)
	alloc := &flipAlloc{rates: make([]bw.Rate, k)}
	tick := bw.Tick(0)
	round := func() {
		for i := range s.Pending() {
			s.Pending()[i] = 1
		}
		s.Arrive(tick)
		rd, err := s.Allocate(tick, alloc, 0, k)
		if err != nil || rd.Changes != k {
			t.Fatalf("tick %d: %d changes, err %v; want %d changes", tick, rd.Changes, err, k)
		}
		tick++
	}
	for i := 0; i < 256; i++ { // warm the FIFO chunk and histogram storage
		round()
	}
	// Count every allocation over the runs: a per-run average rounded
	// down would hide amortized growth.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("200 kernel rounds allocated %d objects, want 0", n)
	}
}

// fixedAlloc returns the same slice every tick.
type fixedAlloc []bw.Rate

func (a fixedAlloc) Rates(bw.Tick, []bw.Bits, []bw.Bits) []bw.Rate { return a }

// TestMultiRunnerRejectsBadRates: the kernel's allocator contract, as
// MultiRunner sees it. A malformed rate slice aborts the run with an
// error naming the violation.
func TestMultiRunnerRejectsBadRates(t *testing.T) {
	m := trace.MustNewMulti([]*trace.Trace{trace.MustNew([]bw.Bits{4, 4}), trace.MustNew([]bw.Bits{4, 4})})
	for _, tc := range []struct {
		name  string
		rates fixedAlloc
		want  string
	}{
		{"negative entry", fixedAlloc{4, -1}, "session 1 negative rate -1"},
		{"short slice", fixedAlloc{4}, "returned 1 rates, want 2"},
		{"long slice", fixedAlloc{4, 4, 4}, "returned 3 rates, want 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunMulti(m, tc.rates, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestSlotsRejectedRoundServesNothing: a rejected round serves no slot
// and changes no rate, but still consumes the pending bits it pushed.
func TestSlotsRejectedRoundServesNothing(t *testing.T) {
	var s Slots
	s.Reset(2)
	s.Pending()[0], s.Pending()[1] = 8, 8
	s.Arrive(0)
	if _, err := s.Allocate(0, fixedAlloc{8, -1}, 0, 2); err == nil {
		t.Fatal("negative rate accepted")
	}
	for i := 0; i < 2; i++ {
		if st := s.Slot(i); st != (SlotStats{Queued: 8}) {
			t.Errorf("slot %d after rejected round: %+v, want only 8 queued", i, st)
		}
	}
	if p := s.Pending(); p[0] != 0 || p[1] != 0 {
		t.Errorf("pending = %v after the round, want zeros", p)
	}
	s.Arrive(1)
	if _, err := s.Allocate(1, fixedAlloc{8, 8}, 0, 2); err != nil {
		t.Fatal(err)
	}
	if tot := s.Totals(); tot.Served != 16 || tot.Queued != 0 || tot.Changes != 2 {
		t.Errorf("next valid round: %+v, want 16 served, 2 changes", tot)
	}
}

// TestSlotsReleaseAndMove pins the occupant accounting: Release drops
// and zeroes the occupant but keeps the slot's rate and the run totals;
// Move carries an occupant to a free slot; bits are conserved
// throughout.
func TestSlotsReleaseAndMove(t *testing.T) {
	var s Slots
	s.Reset(3)
	conserved := func(when string) {
		t.Helper()
		tot := s.Totals()
		if tot.Arrived != tot.Served+tot.Queued+tot.Dropped {
			t.Errorf("%s: arrived %d != served %d + queued %d + dropped %d",
				when, tot.Arrived, tot.Served, tot.Queued, tot.Dropped)
		}
	}
	s.Pending()[0], s.Pending()[1] = 10, 10
	s.Arrive(0)
	if _, err := s.Allocate(0, fixedAlloc{4, 4, 0}, 0, 3); err != nil {
		t.Fatal(err)
	}
	s.Pending()[0] = 5 // pending only: not yet in the queue
	conserved("after a round")

	if arrived, dropped := s.Release(0); arrived != 5 || dropped != 11 {
		t.Errorf("Release(0) = %d arrived, %d dropped; want 5, 11", arrived, dropped)
	}
	if st := s.Slot(0); st != (SlotStats{Rate: 4}) {
		t.Errorf("released slot: %+v, want only its rate 4", st)
	}
	conserved("after release")

	s.Pending()[1] = 3
	s.Move(1, 2)
	if st := s.Slot(2); st.Queued != 6 || st.Served != 4 || st.Changes != 1 || st.Rate != 0 {
		t.Errorf("moved occupant: %+v, want 6 queued, 4 served, 1 change at the destination's rate 0", st)
	}
	if st := s.Slot(1); st != (SlotStats{Rate: 4}) {
		t.Errorf("vacated slot: %+v, want only its rate 4", st)
	}
	if p := s.Pending(); p[1] != 0 || p[2] != 3 {
		t.Errorf("pending after move = %v, want [_ 0 3]", p)
	}
	conserved("after move")

	// The 3 bits still pending on slot 2 have not arrived yet.
	want := Totals{Arrived: 25, Served: 8, Queued: 6, Dropped: 11, Changes: 2}
	if tot := s.Totals(); tot != want {
		t.Errorf("totals %+v, want %+v", tot, want)
	}
}
