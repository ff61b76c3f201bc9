package load

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/gateway"
	"dynbw/internal/obs"
	"dynbw/internal/sim"
)

// HostConfig parameterizes a self-hosted gateway for a swarm run.
type HostConfig struct {
	// Policy is phased|continuous|combined.
	Policy string
	// Slots is the session slot count k.
	Slots int
	// Shards, when > 1, shards the hosted gateway's slot table: Slots
	// must divide evenly and each shard gets its own Policy allocator
	// over Slots/Shards slots with BO/Shards bandwidth.
	Shards int
	// BO is the offline bandwidth pool (default 16*Slots); DO the
	// offline delay bound in ticks (default 8).
	BO bw.Rate
	DO bw.Tick
	// Tick is the gateway's allocation interval (default 1ms).
	Tick time.Duration
	// IdleTimeout disconnects wedged clients (default 30s; <0 disables).
	IdleTimeout time.Duration
	// Registry, when non-nil, receives the gateway's live metrics
	// (labeled with Policy); Observer receives allocation events from
	// both the policy and the gateway.
	Registry *obs.Registry
	Observer obs.Observer
	// Spans, when non-nil, receives the gateway's sampled wire-path
	// spans (1 in SpanSampleEvery messages, plus every client TRACE
	// envelope).
	Spans           *obs.SpanRing
	SpanSampleEvery int
	// Log receives the gateway's rate-limited error diagnostics.
	Log *slog.Logger
}

// Host is a self-hosted gateway plus its tick source — the "no external
// gateway" mode of cmd/bwload and experiment E21.
type Host struct {
	GW     *gateway.Gateway
	ticker *time.Ticker

	closeOnce sync.Once
	stats     gateway.Stats
}

// StartHost listens on 127.0.0.1:0 with a real wall-clock ticker.
func StartHost(cfg HostConfig) (*Host, error) {
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("load: host slots = %d", cfg.Slots)
	}
	if cfg.Policy == "" {
		cfg.Policy = "phased"
	}
	if cfg.BO <= 0 {
		cfg.BO = bw.Rate(16 * cfg.Slots)
	}
	if cfg.DO <= 0 {
		cfg.DO = 8
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Millisecond
	}
	switch {
	case cfg.IdleTimeout == 0:
		cfg.IdleTimeout = 30 * time.Second
	case cfg.IdleTimeout < 0:
		cfg.IdleTimeout = 0
	}
	gwCfg := gateway.Config{
		Addr:            "127.0.0.1:0",
		Slots:           cfg.Slots,
		IdleTimeout:     cfg.IdleTimeout,
		Observer:        cfg.Observer,
		Metrics:         cfg.Registry,
		Policy:          cfg.Policy,
		Spans:           cfg.Spans,
		SpanSampleEvery: cfg.SpanSampleEvery,
		TickBudget:      cfg.Tick,
		Log:             cfg.Log,
	}
	if cfg.Shards > 1 {
		if cfg.Slots%cfg.Shards != 0 {
			return nil, fmt.Errorf("load: %d slots do not divide across %d shards", cfg.Slots, cfg.Shards)
		}
		gwCfg.Shards = cfg.Shards
		gwCfg.ShardAllocs = make([]sim.MultiAllocator, cfg.Shards)
		sr, _ := cfg.Observer.(*obs.ShardedRing)
		for i := range gwCfg.ShardAllocs {
			alloc, err := core.NewPolicy(cfg.Policy, cfg.Slots/cfg.Shards, cfg.BO/bw.Rate(cfg.Shards), cfg.DO)
			if err != nil {
				return nil, err
			}
			if o, ok := alloc.(obs.Observable); ok && cfg.Observer != nil {
				// Each shard's allocator runs on that shard's tick worker;
				// give it the shard's ring stripe so emission never crosses
				// lock domains.
				if sr != nil {
					o.SetObserver(sr.Stripe(i))
				} else {
					o.SetObserver(cfg.Observer)
				}
			}
			gwCfg.ShardAllocs[i] = alloc
		}
	} else {
		alloc, err := core.NewPolicy(cfg.Policy, cfg.Slots, cfg.BO, cfg.DO)
		if err != nil {
			return nil, err
		}
		if o, ok := alloc.(obs.Observable); ok && cfg.Observer != nil {
			o.SetObserver(cfg.Observer)
		}
		gwCfg.Alloc = alloc
	}
	ticker := time.NewTicker(cfg.Tick)
	gwCfg.Ticks = ticker.C
	gw, err := gateway.NewWithConfig(gwCfg)
	if err != nil {
		ticker.Stop()
		return nil, err
	}
	return &Host{GW: gw, ticker: ticker}, nil
}

// Addr returns the hosted gateway's address.
func (h *Host) Addr() string { return h.GW.Addr() }

// Close stops the ticker and the gateway, returning its final stats. It
// is idempotent; repeated calls return the first call's snapshot.
func (h *Host) Close() gateway.Stats {
	h.closeOnce.Do(func() {
		h.stats = h.GW.Close()
		h.ticker.Stop()
	})
	return h.stats
}
