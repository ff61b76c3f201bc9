package load

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/gateway"
	"dynbw/internal/metrics"
	"dynbw/internal/obs"
)

// SoakConfig parameterizes a session-scale soak: open a very large
// number of sessions, hold them all live through a plateau, and keep
// the wire warm with sparse traffic. Unlike the per-session swarm of
// Run (one single-session Mux connection per session, capped by file
// descriptors around a few thousand), the soak multiplexes many sessions
// onto each gateway.Mux connection, so 100k+ open sessions fit inside an
// ordinary fd limit.
type SoakConfig struct {
	// Addr is the gateway to soak.
	Addr string
	// Sessions is the number of sessions to open and hold.
	Sessions int
	// PerConn is how many sessions ride each multiplexed connection
	// (default 256; the conn count is ceil(Sessions/PerConn)).
	PerConn int
	// Hold is the plateau duration once every session is open
	// (default 10s).
	Hold time.Duration
	// SendBits is the payload each sampled session submits during the
	// plateau (default 64; 0 disables plateau traffic).
	SendBits bw.Bits
	// SampleEvery polls STATS on one in every SampleEvery sessions per
	// plateau pass (default 128) — enough to exercise every shard's
	// read path without turning the soak into a throughput test.
	SampleEvery int
	// DialTimeout bounds each dial and exchange (default 10s).
	DialTimeout time.Duration
	// Registry, when non-nil, is snapshotted into Result.MidScrape at
	// the middle of the plateau — the live /metrics view with every
	// session open.
	Registry *obs.Registry
	// TraceEvery, when positive, wraps every TraceEvery-th request on
	// each multiplexed connection in a TRACE envelope, forcing the
	// gateway to record a client-tagged span for it (0: no envelopes).
	TraceEvery int
	// Batch, when > 1, coalesces plateau traffic into BATCH wire frames
	// of up to Batch messages: sends go out via Mux.SendBatch and stats
	// polls via Mux.StatsBatch, so each plateau pass costs a handful of
	// writes per connection instead of one per sampled session. StatsPoll
	// then records one observation per batched poll round trip rather
	// than one per session.
	Batch int
}

// SoakResult is the accounting of one soak run.
type SoakResult struct {
	// Sessions is how many sessions were actually opened and held.
	Sessions int
	// Conns is how many multiplexed connections carried them.
	Conns int
	// OpenFails counts OPENFAIL responses during ramp-up.
	OpenFails int
	// Open is the OPEN round-trip latency distribution across the ramp.
	Open metrics.LatencySummary
	// StatsPoll is the STATS round-trip latency distribution during the
	// plateau — every poll crosses a shard lock, so this is the live
	// contention measure.
	StatsPoll metrics.LatencySummary
	// Sent is the total payload submitted during the plateau.
	Sent bw.Bits
	// MidScrape is the Prometheus exposition captured mid-plateau
	// (empty without a Registry).
	MidScrape string
	// Ramp and Plateau are the wall-clock durations of the two phases.
	Ramp    time.Duration
	Plateau time.Duration
}

// Soak opens cfg.Sessions sessions over multiplexed connections, holds
// them through the plateau with sparse sends and stats polls, captures
// a mid-plateau metrics scrape, then closes everything.
func Soak(cfg SoakConfig) (SoakResult, error) {
	if cfg.Sessions < 1 {
		return SoakResult{}, fmt.Errorf("load: soak sessions = %d", cfg.Sessions)
	}
	if cfg.PerConn < 1 {
		cfg.PerConn = 256
	}
	if cfg.Hold <= 0 {
		cfg.Hold = 10 * time.Second
	}
	if cfg.SendBits == 0 {
		cfg.SendBits = 64
	}
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 128
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	nconns := (cfg.Sessions + cfg.PerConn - 1) / cfg.PerConn

	var res SoakResult
	res.Conns = nconns
	muxes := make([]*gateway.Mux, 0, nconns)
	defer func() {
		for _, m := range muxes {
			m.Close()
		}
	}()
	sessions := make([][]uint32, nconns)

	var openHist metrics.Histogram
	rampStart := time.Now()
	remaining := cfg.Sessions
	for c := 0; c < nconns; c++ {
		m, err := gateway.DialMux(cfg.Addr, cfg.DialTimeout)
		if err != nil {
			return res, fmt.Errorf("load: soak dial conn %d: %w", c, err)
		}
		m.TraceEvery(cfg.TraceEvery)
		muxes = append(muxes, m)
		want := cfg.PerConn
		if want > remaining {
			want = remaining
		}
		for i := 0; i < want; i++ {
			t0 := time.Now()
			id, err := m.Open()
			if err == gateway.ErrSessionLimit {
				res.OpenFails++
				continue
			}
			if err != nil {
				return res, fmt.Errorf("load: soak open (conn %d, session %d): %w", c, i, err)
			}
			openHist.Observe(int64(time.Since(t0)))
			sessions[c] = append(sessions[c], id)
			res.Sessions++
		}
		remaining -= want
	}
	res.Ramp = time.Since(rampStart)
	res.Open = openHist.Latency()

	// Plateau: every conn keeps its sessions warm with sparse sends and
	// an occasional stats poll until the hold expires. One goroutine per
	// conn; the Mux serializes its own wire exchanges.
	var pollMu sync.Mutex
	var pollHist metrics.Histogram
	var sentTotal int64
	plateauStart := time.Now()
	deadline := plateauStart.Add(cfg.Hold)
	half := plateauStart.Add(cfg.Hold / 2)
	scraped := make(chan struct{}, 1)
	var wg sync.WaitGroup
	for c := range muxes {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			m, ids := muxes[c], sessions[c]
			var localSent int64
			var localPolls metrics.Histogram
			var items []gateway.BatchItem // reused batched-send scratch
			var polls []uint32            // reused batched-poll scratch
			for pass := 0; time.Now().Before(deadline); pass++ {
				if cfg.Batch > 1 {
					// Batched plateau: gather this pass's sampled sessions,
					// then send and poll them in BATCH frames of up to
					// cfg.Batch messages each.
					items, polls = items[:0], polls[:0]
					for i, id := range ids {
						if (i+pass)%cfg.SampleEvery == 0 {
							items = append(items, gateway.BatchItem{Session: id, Bits: cfg.SendBits})
							polls = append(polls, id)
						}
					}
					for off := 0; off < len(items); off += cfg.Batch {
						end := off + cfg.Batch
						if end > len(items) {
							end = len(items)
						}
						if err := m.SendBatch(items[off:end]); err == nil {
							localSent += int64(cfg.SendBits) * int64(end-off)
						}
						t0 := time.Now()
						if _, err := m.StatsBatch(polls[off:end]); err == nil {
							localPolls.Observe(int64(time.Since(t0)))
						}
					}
				} else {
					for i, id := range ids {
						if (i+pass)%cfg.SampleEvery == 0 {
							if err := m.Send(id, cfg.SendBits); err == nil {
								localSent += int64(cfg.SendBits)
							}
							t0 := time.Now()
							if _, err := m.Stats(id); err == nil {
								localPolls.Observe(int64(time.Since(t0)))
							}
						}
					}
				}
				if c == 0 && time.Now().After(half) {
					select {
					case scraped <- struct{}{}:
					default:
					}
				}
				time.Sleep(50 * time.Millisecond)
			}
			pollMu.Lock()
			sentTotal += localSent
			pollHist.Merge(&localPolls)
			pollMu.Unlock()
		}(c)
	}
	if cfg.Registry != nil {
		// Scrape once mid-plateau, signalled by conn 0's pass loop (or at
		// the halfway wall clock, whichever the select sees first).
		select {
		case <-scraped:
		case <-time.After(cfg.Hold / 2):
		}
		var b strings.Builder
		if err := cfg.Registry.WritePrometheus(&b); err == nil {
			res.MidScrape = b.String()
		}
	}
	wg.Wait()
	res.Plateau = time.Since(plateauStart)
	res.StatsPoll = pollHist.Latency()
	res.Sent = bw.Bits(sentTotal)

	// Orderly teardown: CLOSE every session so the slots are verifiably
	// recycled before the muxes drop.
	for c, ids := range sessions {
		for _, id := range ids {
			if err := muxes[c].CloseSession(id); err != nil {
				return res, fmt.Errorf("load: soak close session %d: %w", id, err)
			}
		}
	}
	return res, nil
}
