package gateway

import (
	"context"
	"log/slog"
	"runtime/pprof"
	"strconv"
	"time"

	"dynbw/internal/bw"
)

// tickLoop owns the gateway clock. Each received tick runs one
// allocation round: single-shard gateways run it inline, sharded
// gateways fan the round out to the tick workers and join before
// advancing now — so every shard computes rates for the same tick t and
// the cost measure is identical to the single-lock gateway's. The loop
// also profiles each round: whole-round and per-shard durations, the
// join wait (slowest minus fastest shard — straggler cost), a shard
// imbalance EWMA, and overruns of the configured tick budget.
func (g *Gateway) tickLoop() {
	defer close(g.done)
	if g.tickCh != nil {
		defer close(g.tickCh)
	}
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("dynbw", "tick-loop")))
	for {
		select {
		case <-g.closing:
			return
		case <-g.ticks:
			t := bw.Tick(g.now.Load())
			start := time.Now()
			if g.tickCh == nil {
				g.shardRound(g.shards[0], t)
			} else {
				g.tickWG.Add(len(g.shards))
				for i := range g.shards {
					g.tickCh <- i
				}
				g.tickWG.Wait()
			}
			round := time.Since(start)
			var total bw.Rate
			for _, r := range g.roundRate {
				total += r
			}
			g.maxTotalRate = max(g.maxTotalRate, total)
			g.m.tickRound.Observe(int64(round))
			if len(g.shards) > 1 {
				g.observeRoundSpread()
			}
			if g.tickBudget > 0 && round > g.tickBudget {
				g.m.tickOverruns.Inc()
			}
			g.now.Add(1)
			g.m.ticks.Inc()
		}
	}
}

// observeRoundSpread folds the just-joined round's per-shard durations
// (roundDur, ordered by the tickWG join) into the straggler histogram
// and the imbalance gauge. The imbalance is an EWMA (alpha = 1/8) of
// max/mean in permille: 1000 means perfectly balanced shards, 2000 means
// the slowest shard takes twice the mean — resharding or slot-placement
// trouble.
func (g *Gateway) observeRoundSpread() {
	minD, maxD, sum := g.roundDur[0], g.roundDur[0], int64(0)
	for _, d := range g.roundDur {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
		sum += d
	}
	g.m.joinWait.Observe(maxD - minD)
	if mean := sum / int64(len(g.roundDur)); mean > 0 {
		cur := maxD * 1000 / mean
		g.imbalEwma += (cur - g.imbalEwma) / 8
		g.m.imbalance.Set(g.imbalEwma)
	}
}

// tickWorker drains shard indices off tickCh, running one shard's
// allocation round per index. Workers are started once at construction
// (capped at GOMAXPROCS) and exit when the tick loop closes the channel.
// Each index is sent exactly once per round, so no two workers ever
// process the same shard concurrently. Workers carry pprof goroutine
// labels so CPU and goroutine profiles separate allocation work from
// connection handlers.
func (g *Gateway) tickWorker(w int) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("dynbw", "tick-worker", "worker", strconv.Itoa(w))))
	for idx := range g.tickCh {
		g.shardRound(g.shards[idx], bw.Tick(g.now.Load()))
		g.tickWG.Done()
	}
}

// shardRound runs one allocation round on one shard, folds the result
// into the shard's stripe of the gateway counters, and records the
// shard's round duration (its tick histogram stripe, and roundDur for
// the join-spread profile) and total granted rate (roundRate, for the
// running MaxTotalRate). The WaitGroup join orders those writes before
// the tick loop's read.
func (g *Gateway) shardRound(sh *shard, t bw.Tick) {
	start := time.Now()
	arrived, served, changes, rate := sh.tick(t)
	g.m.arrivedBits.Add(sh.idx, int64(arrived))
	g.m.servedBits.Add(sh.idx, int64(served))
	g.m.allocChanges.Add(sh.idx, int64(changes))
	d := int64(time.Since(start))
	g.m.tickShard.Observe(sh.idx, d)
	g.roundDur[sh.idx] = d
	g.roundRate[sh.idx] = rate
}

// tick runs one allocation round over this shard's slots on its
// sim.Slots kernel: push pending arrivals into the queues, ask each
// link's allocator for the rates of its slot range, serve, and count
// allocation changes — the paper's cost measure. A round the kernel
// rejects (a rate slice of the wrong length or with a negative entry)
// is logged and serves nothing on that link. In multi-link mode (one
// shard, several links) every rebalEvery ticks a rebalance pass may
// migrate sessions between links.
//
// bwlint:hotpath
func (sh *shard) tick(t bw.Tick) (arrived, served bw.Bits, changes int, rate bw.Rate) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	arrived, _ = sh.slots.Arrive(t)
	for l := range sh.allocs {
		rd, err := sh.slots.Allocate(t, sh.allocs[l], l*sh.lm, (l+1)*sh.lm)
		if err != nil {
			sh.g.log.Log(slog.LevelError, "alloc", "gateway: allocator round rejected",
				"shard", sh.idx, "link", l, "err", err) // bwlint:allocok cold: allocator contract violation, rate-limited
			continue
		}
		served += rd.Served
		changes += rd.Changes
		rate += rd.Rate
	}
	if sh.g.rebalEvery > 0 && t > 0 && t%sh.g.rebalEvery == 0 && sh.g.router != nil {
		sh.rebalance()
	}
	return arrived, served, changes, rate
}
