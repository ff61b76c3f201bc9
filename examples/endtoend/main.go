// Endtoend: the full system in miniature. A live gateway divides a
// shared bandwidth pool among bursty sessions with the paper's phased
// multi-session algorithm, ticking on the wall clock, while the sessions
// stream traffic at it over one multiplexed TCP connection. The paper
// prices each bandwidth change as software that runs on every switch
// along the session's path, so the example reads each session's live
// change count back over the wire (STATS) and prices it at hops ×
// per-switch delay — against a policy that changes every tick.
package main

import (
	"fmt"
	"log"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/gateway"
	"dynbw/internal/rng"
)

const (
	sessions         = 4
	hops             = 3
	perSwitchDelay   = 2 * time.Millisecond
	tickInterval     = time.Millisecond
	sendTicks        = 400
	drainTicks       = 50
	peakSubmitBits   = 96
	burstProbability = 0.3
	offlineDelay     = 8 // D_O in ticks
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The gateway: phased allocation, ticking in real time, over a pool
	// of B_O = 16 bits/tick per session — just above the mean demand of
	// burstProbability × peakSubmitBits/2 ≈ 14.4.
	bo := bw.Rate(sessions * 16)
	alloc, err := core.NewPolicy("phased", sessions, bo, offlineDelay)
	if err != nil {
		return err
	}
	ticker := time.NewTicker(tickInterval)
	defer ticker.Stop()
	gw, err := gateway.NewWithConfig(gateway.Config{
		Addr:   "127.0.0.1:0",
		Slots:  sessions,
		Alloc:  alloc,
		Ticks:  ticker.C,
		Policy: "phased",
	})
	if err != nil {
		return err
	}
	defer gw.Close()

	// The clients: every session on one multiplexed connection.
	m, err := gateway.DialMux(gw.Addr(), time.Second)
	if err != nil {
		return err
	}
	defer m.Close()
	ids := make([]uint32, sessions)
	for i := range ids {
		if ids[i], err = m.Open(); err != nil {
			return err
		}
	}

	// Submit bursty traffic in real time: each tick's bursts leave in
	// one BATCH frame.
	src := rng.New(7)
	var items []gateway.BatchItem
	for t := 0; t < sendTicks; t++ {
		items = items[:0]
		for _, id := range ids {
			if src.Bool(burstProbability) {
				items = append(items, gateway.BatchItem{Session: id, Bits: bw.Bits(src.Intn(peakSubmitBits))})
			}
		}
		if err := m.SendBatch(items); err != nil {
			return err
		}
		time.Sleep(tickInterval)
	}
	time.Sleep(drainTicks * tickInterval)

	// Read every session's live accounting back over the wire.
	per, err := m.StatsBatch(ids)
	if err != nil {
		return err
	}
	m.Close()
	stats := gw.Close()

	perChange := time.Duration(hops) * perSwitchDelay
	fmt.Printf("%d sessions over a %d-switch path (%v software delay per switch), phased policy:\n\n",
		sessions, hops, perSwitchDelay)
	fmt.Printf("%-8s %12s %8s %10s %14s\n", "session", "bits served", "changes", "max delay", "renegotiation")
	var changes int64
	for i, st := range per {
		changes += st.Changes
		fmt.Printf("%-8d %12d %8d %10d %14v\n",
			ids[i], st.Served, st.Changes, st.MaxDelay, time.Duration(st.Changes)*perChange)
	}
	fmt.Printf("\nticks:                 %d (delay guarantee 2*D_O = %d ticks)\n", stats.Ticks, 2*offlineDelay)
	fmt.Printf("bandwidth changes:     %d\n", changes)
	fmt.Printf("renegotiation time:    %v (%d changes x %d hops x %v)\n",
		time.Duration(changes)*perChange, changes, hops, perSwitchDelay)
	perTick := time.Duration(sessions) * time.Duration(stats.Ticks) * perChange
	fmt.Printf("per-tick policy cost:  ~%v (every session changes every tick)\n", perTick)
	return nil
}
