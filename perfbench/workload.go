package main

import (
	"strconv"
	"time"
)

// Gateway parameters shared by every workload: the phased policy with
// D_O = 8 ticks and bwgateway's default B_O = 16 bits per tick per slot.
const (
	policy       = "phased"
	dOTicks      = 8
	sharePerTick = 16 // B_O / k, bits per tick per session
	batchItems   = 64
	warmup       = time.Second // before each measured phase
	// measuredProcs is how many gateway processes an untraced run
	// measures, the last ones started, each for an equal share of the
	// measured time cut into parts of about a second. Where the kernel
	// puts one process's threads sets its wake-up costs for its whole
	// life, so one process alone would make the run a coin toss.
	measuredProcs = 4
)

// workload is one traffic mix against one gateway configuration.
type workload struct {
	name string

	k      int
	shards int
	tick   time.Duration
	// quantum is the pacing grid's spacing: open-loop operations and
	// probe polls fall due on its boundaries.
	quantum time.Duration

	setups  int  // gateway start-ups per run; setup_s is their median
	perConn int  // sessions each of the two connections holds, probes included
	probes  int  // delivery probe sessions per connection
	exact   bool // no churn: served + queued must equal sent, per session

	frameRate float64 // batch-fleet: BATCH frames per second per connection
	churnRate float64 // wide-churn: CLOSE+OPEN pairs per second per connection
	dataRate  float64 // wide-churn: DATA per second per connection
	statsRate float64 // wide-churn: STATS per second per connection

	loop func(*worker) error
}

// conns is the number of Mux connections, the CPU count of the box the
// benchmark was sized on; a run on a larger box uses no more.
const conns = 2

var workloads = []*workload{
	// The smallest frames, no batching: per-message parse and dispatch,
	// the per-message stage clocks and the loopback syscall do the work.
	// Unsharded; no session churns.
	{
		name: "rr-small",
		k:    1024, shards: 1, tick: time.Millisecond, quantum: time.Millisecond,
		setups: 21, perConn: 512, probes: 2, exact: true,
		loop: (*worker).closedLoop,
	},
	// Open loop at a fixed rate of 64-item BATCH frames: batch parsing,
	// per-shard group apply and per-logical-message instruments do the
	// work. The sharded path, where rr-small is the unsharded one.
	{
		name: "batch-fleet",
		k:    4096, shards: 8, tick: time.Millisecond, quantum: 2 * time.Millisecond,
		setups: 21, perConn: 2048, probes: 2, exact: true,
		frameRate: 200,
		loop:      (*worker).batchLoop,
	},
	// 7/8 of 32768 slots open: the O(k) tick round and the slot lifecycle
	// (first-fit OPEN, CLOSE, STATS behind the tick lock) do the work;
	// the wire carries little.
	{
		name: "wide-churn",
		k:    32768, shards: 8, tick: 5 * time.Millisecond, quantum: 5 * time.Millisecond,
		setups: 7, perConn: 32768 * 7 / 8 / conns, probes: 4, exact: false,
		churnRate: 50, dataRate: 500, statsRate: 300,
		loop: (*worker).churnLoop,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// gatewayFlags are the bwgateway flags of this workload.
func (wl *workload) gatewayFlags() []string {
	return []string{
		"-policy", policy, "-do", strconv.Itoa(dOTicks),
		"-k", strconv.Itoa(wl.k), "-shards", strconv.Itoa(wl.shards), "-tick", wl.tick.String(),
	}
}

// burst is a probe's burst: D_O ticks' worth of its share.
func (wl *workload) burst() int64 { return dOTicks * sharePerTick }
