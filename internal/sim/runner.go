package sim

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/metrics"
	"dynbw/internal/queue"
	"dynbw/internal/trace"
)

// Resetter is implemented by allocators that can return to their
// just-constructed state while keeping internal storage (the session
// policies in internal/core all do). A Runner does not reset allocators
// itself — constructing or resetting the policy stays the caller's
// decision — but sweep drivers use this interface to reuse one policy
// across runs.
type Resetter interface {
	Reset()
}

// Runner runs single-session simulations while amortizing the per-run
// allocations across calls: the FIFO chunk storage, the delay histogram,
// and the recorded schedule's segment and prefix-sum slices are all
// reused. A Runner in steady state (storage grown to the working-set
// size) performs zero heap allocations per Run.
//
// The returned Result, and the Schedule it points to, are owned by the
// Runner and remain valid only until the next Run or Reset. Callers that
// need the schedule beyond that must copy it. The zero value is ready to
// use; a Runner must not be used from multiple goroutines at once.
type Runner struct {
	q     queue.FIFO
	sched bw.Schedule
	res   Result
}

// NewRunner returns an empty Runner. The zero value works too; the
// constructor exists for symmetry with the rest of the package.
func NewRunner() *Runner { return &Runner{} }

// Reset clears the run state while keeping all grown storage. Run calls
// it implicitly; it is exported so a Runner holding a large schedule can
// be scrubbed between unrelated experiments.
func (r *Runner) Reset() {
	r.q.Reset()
	r.sched.Reset()
	r.res = Result{}
}

// Run simulates the allocator on the trace, exactly like the package
// function Run but reusing the Runner's storage. See Run for the tick
// semantics and error conditions.
//
// bwlint:hotpath
func (r *Runner) Run(tr *trace.Trace, alloc Allocator, opts Options) (*Result, error) {
	r.Reset()
	var (
		dropped   bw.Bits
		peakQueue bw.Bits
	)
	n := tr.Len()
	limit := n + opts.drainBudget(n)
	t := bw.Tick(0)
	for ; t < limit; t++ {
		arrived := tr.At(t)
		if t >= n && r.q.Empty() {
			break
		}
		if opts.QueueCap > 0 {
			if room := opts.QueueCap - r.q.Bits(); arrived > room {
				dropped += arrived - room
				arrived = room
			}
		}
		r.q.Push(t, arrived)
		if r.q.Bits() > peakQueue {
			peakQueue = r.q.Bits()
		}
		rate := alloc.Rate(t, arrived, r.q.Bits())
		if rate < 0 {
			// bwlint:allocok cold: allocator contract violation aborts the run
			return nil, fmt.Errorf("sim: allocator returned negative rate %d at tick %d", rate, t)
		}
		r.sched.Set(t, rate)
		r.q.Serve(t, rate)
	}
	if !r.q.Empty() {
		// bwlint:allocok cold: drain failure aborts the run
		return nil, fmt.Errorf("%w: %d bits left after %d ticks", ErrQueueNeverDrained, r.q.Bits(), limit)
	}
	delay := metrics.DelayStats{
		Max:    r.q.MaxDelay(),
		P50:    r.q.DelayQuantile(0.50),
		P99:    r.q.DelayQuantile(0.99),
		Served: r.q.Served(),
	}
	r.res = Result{
		Schedule:  &r.sched,
		Delay:     delay,
		Report:    metrics.BuildReport(tr, &r.sched, delay),
		Dropped:   dropped,
		PeakQueue: peakQueue,
	}
	return &r.res, nil
}

// MultiRunner is the k-session counterpart of Runner: it steps the
// Slots kernel over a trace and records every session's schedule. The
// kernel, the schedules and the aggregate schedule are all reused across
// Run calls. The session count may change between runs; storage grows to
// the largest k seen.
//
// The returned MultiResult and every schedule it references are owned by
// the MultiRunner and valid only until the next Run. The zero value is
// ready to use; not safe for concurrent use.
type MultiRunner struct {
	slots      Slots
	schedStore []bw.Schedule
	scheds     []*bw.Schedule
	delays     []bw.Tick
	total      bw.Schedule
	res        MultiResult
}

// NewMultiRunner returns an empty MultiRunner.
func NewMultiRunner() *MultiRunner { return &MultiRunner{} }

// size readies the per-session storage for k sessions, growing if needed
// and resetting whatever is reused.
func (r *MultiRunner) size(k int) {
	r.slots.Reset(k)
	if cap(r.schedStore) < k {
		r.schedStore = make([]bw.Schedule, k) // bwlint:allocok once per k growth, reused across runs
		r.scheds = make([]*bw.Schedule, k)    // bwlint:allocok once per k growth, reused across runs
		r.delays = make([]bw.Tick, k)         // bwlint:allocok once per k growth, reused across runs
	}
	r.schedStore = r.schedStore[:k]
	r.scheds = r.scheds[:k]
	r.delays = r.delays[:k]
	for i := 0; i < k; i++ {
		r.schedStore[i].Reset()
		r.scheds[i] = &r.schedStore[i]
	}
	r.total.Reset()
}

// Run simulates the allocator on k parallel sessions, exactly like the
// package function RunMulti but reusing the MultiRunner's storage. Each
// tick writes the trace's arrivals into the kernel's pending buffer and
// runs one round; once the trace has ended, the run stops at the first
// tick whose queues are all empty, before the allocator is asked.
//
// bwlint:hotpath
func (r *MultiRunner) Run(m *trace.Multi, alloc MultiAllocator, opts Options) (*MultiResult, error) {
	k := m.K()
	n := m.Len()
	limit := n + opts.drainBudget(n)
	r.size(k)

	pending := r.slots.Pending()
	for t := bw.Tick(0); t < limit; t++ {
		for i := range pending {
			pending[i] = m.Session(i).At(t)
		}
		if _, queued := r.slots.Arrive(t); t >= n && queued == 0 {
			break
		}
		rd, err := r.slots.Allocate(t, alloc, 0, k)
		if err != nil {
			return nil, err
		}
		for i, rate := range rd.Rates {
			r.scheds[i].Set(t, rate)
		}
	}
	tot := r.slots.Totals()
	if tot.Queued > 0 {
		// bwlint:allocok cold: drain failure aborts the run
		return nil, fmt.Errorf("%w: %d bits left after %d ticks", ErrQueueNeverDrained, tot.Queued, limit)
	}
	for i := range r.delays {
		r.delays[i] = r.slots.Slot(i).MaxDelay
	}
	bw.SumInto(&r.total, r.scheds...)
	agg := m.Aggregate()
	delay := metrics.DelayStats{Max: tot.MaxDelay, Served: tot.Served}
	r.res = MultiResult{
		Sessions:      r.scheds,
		Total:         &r.total,
		Delay:         delay,
		SessionDelays: r.delays,
		Report:        metrics.BuildReport(agg, &r.total, delay),
	}
	return &r.res, nil
}
