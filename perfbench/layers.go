package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"time"

	"dynbw/internal/bw"
	"dynbw/internal/core"
	"dynbw/internal/gateway"
	"dynbw/internal/obs"
	"dynbw/internal/queue"
)

// teardownCalls is how many SendBatch calls and CLOSE+OPEN pairs each
// connection makes after a traced run's checks, so every Mux call has a
// reportable p99 on every workload, whichever calls the workload makes.
const teardownCalls = 500

// residualFlag is the share of the end-to-end figure above which the
// layer ladder flags its unexplained residual.
const residualFlag = 0.15

// teardown is the traced run's client probe: SendBatch calls, then
// CLOSE, re-OPEN and a first STATS on some of the connection's sessions.
func (w *worker) teardown() error {
	items := make([]gateway.BatchItem, batchItems)
	for i := 0; i < teardownCalls; i++ {
		for j := range items {
			items[j] = gateway.BatchItem{Session: w.regular[(i*batchItems+j)%len(w.regular)], Bits: 1}
		}
		if err := w.c.sendBatch(items, w.nextReq()); err != nil {
			return err
		}
	}
	for i := 0; i < teardownCalls && i < len(w.regular); i++ {
		req := w.nextReq()
		if err := w.c.closeSession(w.regular[i], req); err != nil {
			return err
		}
		id, err := w.c.open(req)
		if err != nil {
			return err
		}
		w.regular[i] = id
		if err := w.reopenCheck(id, req); err != nil {
			return err
		}
	}
	return nil
}

// teardown runs the traced run's client probe on every connection of a
// measured phase, while its gateway still serves.
func (r *runner) teardown(ph *phase) {
	errs := make([]error, len(ph.workers))
	var wg sync.WaitGroup
	for i, w := range ph.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.teardown()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		r.chk.breach("teardown probe: %v", err)
	}
}

// traced finishes a traced run once its gateway process is gone: the
// in-process layer probes, then the per-layer metrics, the layer ladder
// and the tick table. all holds the phase's samples, in two parts: the
// untraced half, then the traced half.
func (r *runner) traced(ph *phase, all *worker, res *result) (*result, error) {
	var leaked, reopens int64
	for _, w := range ph.workers {
		leaked += w.leaked
		reopens += w.reopens
	}
	res.note("# shard: %d of %d re-OPENs showed a previous occupant's state in their first STATS", leaked, reopens)

	for _, name := range callNames {
		d, err := summarize("mux."+name, r.tr.durations(name))
		if err != nil {
			return nil, err
		}
		res.add("mux."+name+"_call_us_p50", us(d.p50), "us")
		res.add("mux."+name+"_call_us_p99", us(d.p99), "us")
	}
	late, err := summarize("generator lateness", all.late.ns)
	if err != nil {
		return nil, err
	}
	res.add("gen.late_p50_us", us(late.p50), "us")
	res.add("gen.late_p99_us", us(late.p99), "us")
	res.add("gen.ops_attempted", float64(res.attempted), "count")
	res.add("gen.ops_failed", float64(res.failed), "count")

	lp := &layerProbe{spans: r.spans, rnd: rand.New(rand.NewPCG(r.seed, 99))}
	root, rootStart := r.spans.reserve(), time.Now()
	lp.parent = root
	loop, err1 := lp.loopback()
	shard, err2 := lp.shardOpens()
	tax, err3 := lp.obsTax()
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, err
	}
	ticks, err := lp.tickTable()
	if err != nil {
		return nil, err
	}
	rates, err := lp.coreRates()
	if err != nil {
		return nil, err
	}
	pushServe := lp.queuePushServe()
	schedBytes := lp.scheduleBytes()
	r.spans.addID(root, "layers", 0, 0, rootStart, time.Now())

	for _, s := range loopShapes {
		res.add("loopback.rtt_us_p50."+s.name, us(loop[s.name]), "us")
	}
	rttA, rttB := median(all.rtt[0]), median(all.rtt[1])
	// The wire residual is the bare in-process Mux exchange minus the raw
	// loopback exchange of the same bytes: the shape the workload's
	// end-to-end STATS is made of.
	floor, bare := loop["stats5_33"], tax.permsg[0].p50
	if r.wl.name == "batch-fleet" {
		floor, bare = loop["batch64"], tax.batched[0].p50
	}
	resid := bare - floor
	res.add("wire.residual_us_p50", us(resid), "us")
	res.add("wire.residual_share", float64(resid)/float64(rttA), "ratio")
	for _, o := range shard.opens {
		res.add("shard.open_us_p50."+o.name, us(o.d.p50), "us")
		res.add("shard.open_us_p99."+o.name, us(o.d.p99), "us")
	}
	res.add("shard.close_us_p50", us(shard.closeP50), "us")
	res.add("shard.leaked_state_opens", float64(leaked), "count")
	for _, t := range ticks {
		key := fmt.Sprintf("k%d.s%d.p%d", t.k, t.shards, t.procs)
		res.add("tick.round_us_p50."+key, us(t.d.p50), "us")
		res.add("tick.round_us_p99."+key, us(t.d.p99), "us")
	}
	for _, t := range ticks {
		if t.k == 65536 && t.shards == 1 && t.procs == 1 {
			res.add("tick.ns_per_slot", float64(t.d.p50)/float64(t.k), "ns/slot")
		}
	}
	for _, c := range rates {
		res.add(fmt.Sprintf("core.rates_ns_per_slot.%s.k%d", c.policy, c.k), c.nsPerSlot, "ns/slot")
	}
	res.add("queue.push_serve_ns", pushServe, "ns/op")
	res.add("bw.schedule_bytes_per_change", schedBytes, "B/change")
	permTax := tax.permsg[1].nsPerMsg - tax.permsg[0].nsPerMsg
	res.add("obs.tax_ns_per_msg.permsg", permTax, "ns/msg")
	res.add("obs.tax_ns_per_msg.batched", tax.batched[1].nsPerMsg-tax.batched[0].nsPerMsg, "ns/msg")
	obsRTT := tax.permsg[1].p50 - tax.permsg[0].p50
	res.add("obs.tax_rtt_us", us(obsRTT), "us")
	res.add("trace.overhead_pct", 100*float64(rttB-rttA)/float64(rttA), "%")

	// The ladder splits the untraced half's rtt_p50_us into layers.
	if r.wl.name == "rr-small" || r.wl.name == "batch-fleet" {
		rows := []ladderRow{{"loopback floor", floor}, {"wire (bare Mux - floor)", resid}, {"obs instruments", obsRTT}}
		res.report = append(res.report, ladder(r.wl.name, rttA, rows)...)
	}
	res.report = append(res.report, tickReport(ticks)...)
	return res, nil
}

type ladderRow struct {
	layer string
	ns    int64
}

// ladder renders each layer's p50 as a share of the end-to-end p50, and
// flags the unexplained residual when it exceeds residualFlag.
func ladder(wl string, e2e int64, rows []ladderRow) []string {
	out := []string{fmt.Sprintf("# layer ladder %s: rtt_p50_us %.1f (untraced half of this run)", wl, us(e2e))}
	rest := e2e
	for _, r := range rows {
		out = append(out, fmt.Sprintf("#   %-28s %9.1f us %6.1f%%", r.layer, us(r.ns), 100*float64(r.ns)/float64(e2e)))
		rest -= r.ns
	}
	flag := ""
	if float64(rest) > residualFlag*float64(e2e) {
		flag = fmt.Sprintf("  FLAG: residual over %.0f%%", 100*residualFlag)
	}
	return append(out, fmt.Sprintf("#   %-28s %9.1f us %6.1f%%%s", "residual (cross-process, load)", us(rest), 100*float64(rest)/float64(e2e), flag))
}

// tickReport renders the tick table: round p50/p99 over k x shards x
// GOMAXPROCS, showing whether sharding pays on this box.
func tickReport(rows []tickRow) []string {
	out := []string{"# tick round p50/p99 us (in-process, no sessions open, owned Ticks channel)"}
	for _, t := range rows {
		out = append(out, fmt.Sprintf("#   k=%-6d shards=%d GOMAXPROCS=%d  %9.1f %9.1f", t.k, t.shards, t.procs, us(t.d.p50), us(t.d.p99)))
	}
	return out
}

// layerProbe runs the in-process layer probes, each under one span.
type layerProbe struct {
	spans  *spanBuf
	parent uint64
	rnd    *rand.Rand
}

func (lp *layerProbe) span(name string, start time.Time) {
	lp.spans.add("layer:"+name, lp.parent, 0, start, time.Now())
}

// startInproc starts a gateway in this process on loopback, driven by a
// Ticks channel the caller owns (nothing ticks until the caller sends).
// instrumented attaches a metrics registry and span ring as bwgateway
// does.
func startInproc(k, shards int, instrumented bool) (*gateway.Gateway, chan time.Time, error) {
	ticks := make(chan time.Time)
	cfg := gateway.Config{Addr: "127.0.0.1:0", Slots: k, Ticks: ticks, Policy: policy}
	if shards > 1 {
		cfg.Shards = shards
		for i := 0; i < shards; i++ {
			a, err := newAlloc(policy, k/shards)
			if err != nil {
				return nil, nil, err
			}
			cfg.ShardAllocs = append(cfg.ShardAllocs, a)
		}
	} else {
		a, err := newAlloc(policy, k)
		if err != nil {
			return nil, nil, err
		}
		cfg.Alloc = a
	}
	if instrumented {
		cfg.Metrics = obs.NewRegistry()
		obs.RegisterGoRuntime(cfg.Metrics)
		cfg.Spans = obs.NewSpanRing(obs.DefaultSpanRingSize, gateway.StageNames())
	}
	g, err := gateway.NewWithConfig(cfg)
	if err != nil {
		return nil, nil, err
	}
	return g, ticks, nil
}

// allocator is the slice of sim.MultiAllocator the probes call.
type allocator interface {
	Rates(t bw.Tick, arrived, queued []bw.Bits) []bw.Rate
}

// newAlloc builds a policy over k slots with bwgateway's parameters.
func newAlloc(name string, k int) (allocator, error) {
	bo := int64(sharePerTick * k)
	switch name {
	case "phased":
		return core.NewPhased(core.MultiParams{K: k, BO: bw.Rate(bo), DO: dOTicks})
	case "continuous":
		return core.NewContinuous(core.MultiParams{K: k, BO: bw.Rate(bo), DO: dOTicks})
	case "combined":
		return core.NewCombined(core.CombinedParams{K: k, BA: bw.Rate(bw.NextPow2(8 * bo)), DO: dOTicks, UO: 0.5, W: 2 * dOTicks})
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// loopShape is a raw loopback exchange: in bytes written, out bytes read
// back. They mirror the Mux exchanges: a DATA echoed, a STATS and its
// STATSR, and batch-fleet's 64-item BATCH plus STATS and its STATSR.
type loopShape struct {
	name    string
	in, out int
}

var loopShapes = []loopShape{
	{"data13", 13, 13},
	{"stats5_33", 5, 33},
	{"batch64", 3 + batchItems*13 + 5, 33},
}

// loopback times each shape against an echo server in this process: the
// kernel's floor under every wire exchange. Returns p50 ns by shape.
func (lp *layerProbe) loopback() (map[string]int64, error) {
	start := time.Now()
	defer lp.span("loopback", start)
	out := make(map[string]int64)
	for _, s := range loopShapes {
		p50, err := echoRTT(s.in, s.out, 3000)
		if err != nil {
			return nil, fmt.Errorf("loopback %s: %w", s.name, err)
		}
		out[s.name] = p50
	}
	return out, nil
}

func echoRTT(in, out, n int) (int64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		req, rep := make([]byte, in), make([]byte, out)
		for {
			if _, err := io.ReadFull(c, req); err != nil {
				served <- nil // the client hung up
				return
			}
			if _, err := c.Write(rep); err != nil {
				served <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	req, rep := make([]byte, in), make([]byte, out)
	var xs []int64
	for i := 0; i < n+n/10; i++ {
		t0 := time.Now()
		if _, err := c.Write(req); err != nil {
			c.Close()
			return 0, err
		}
		if _, err := io.ReadFull(c, rep); err != nil {
			c.Close()
			return 0, err
		}
		if i >= n/10 {
			xs = append(xs, int64(time.Since(t0)))
		}
	}
	c.Close()
	if err := <-served; err != nil {
		return 0, err
	}
	return median(xs), nil
}

// occupancy is the shard open latency at one slot-table fill level.
type occupancy struct {
	name string
	d    dist
}

type shardResult struct {
	opens    []occupancy
	closeP50 int64
}

// shardOpens times OPEN at 0%, 50% and 87.5% occupancy of an in-process
// gateway shaped like wide-churn's, with the ticks parked, then CLOSE.
func (lp *layerProbe) shardOpens() (shardResult, error) {
	start := time.Now()
	defer lp.span("shard", start)
	const k, timed = 32768, 1000
	g, _, err := startInproc(k, 8, false)
	if err != nil {
		return shardResult{}, err
	}
	defer g.Close()
	m, err := gateway.DialMux(g.Addr(), muxTimeout)
	if err != nil {
		return shardResult{}, err
	}
	defer m.Close()
	var res shardResult
	var last []uint32
	open := 0
	for _, lv := range []struct {
		name string
		frac float64
	}{{"occ0", 0}, {"occ50", 0.5}, {"occ87", 0.875}} {
		for ; open < int(lv.frac*k); open++ {
			if _, err := m.Open(); err != nil {
				return shardResult{}, err
			}
		}
		xs := make([]int64, 0, timed)
		last = last[:0]
		for i := 0; i < timed; i++ {
			t0 := time.Now()
			id, err := m.Open()
			if err != nil {
				return shardResult{}, err
			}
			xs = append(xs, int64(time.Since(t0)))
			last = append(last, id)
		}
		open += timed
		d, err := summarize("shard open "+lv.name, xs)
		if err != nil {
			return shardResult{}, err
		}
		res.opens = append(res.opens, occupancy{lv.name, d})
	}
	xs := make([]int64, 0, len(last))
	for _, id := range last {
		t0 := time.Now()
		if err := m.CloseSession(id); err != nil {
			return shardResult{}, err
		}
		xs = append(xs, int64(time.Since(t0)))
	}
	res.closeP50 = median(xs)
	return res, nil
}

type tickRow struct {
	k, shards, procs int
	d                dist
}

// tickTable times allocation rounds of an in-process gateway, as shipped
// (registry attached), over k x shards x GOMAXPROCS, as the gap between
// back-to-back sends on the owned Ticks channel: a send completes only
// when the tick loop is back at its receive, so consecutive sends are one
// round apart. The yield after each send lets the round run at once even
// at GOMAXPROCS=1, where the sender would otherwise keep the only P.
func (lp *layerProbe) tickTable() ([]tickRow, error) {
	start := time.Now()
	defer lp.span("tick", start)
	const rounds, warm = 1000, 50
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var rows []tickRow
	for _, k := range []int{1024, 4096, 65536} {
		for _, shards := range []int{1, 8} {
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				g, ticks, err := startInproc(k, shards, true)
				if err != nil {
					return nil, err
				}
				gaps := make([]int64, 0, rounds)
				last := time.Now()
				for i := 0; i < warm+rounds; i++ {
					ticks <- last
					now := time.Now()
					if i >= warm {
						gaps = append(gaps, int64(now.Sub(last)))
					}
					last = now
					runtime.Gosched()
				}
				g.Close()
				d, err := summarize("tick round", gaps)
				if err != nil {
					return nil, err
				}
				rows = append(rows, tickRow{k, shards, procs, d})
			}
		}
	}
	return rows, nil
}

type ratesRow struct {
	policy    string
	k         int
	nsPerSlot float64
}

// coreRates times each policy's Rates call per slot at k = 1024 and
// 65536, fed seeded sparse arrivals and the queues they build.
func (lp *layerProbe) coreRates() ([]ratesRow, error) {
	start := time.Now()
	defer lp.span("core", start)
	var rows []ratesRow
	for _, name := range []string{"phased", "continuous", "combined"} {
		for _, k := range []int{1024, 65536} {
			a, err := newAlloc(name, k)
			if err != nil {
				return nil, err
			}
			arrived, queued := make([]bw.Bits, k), make([]bw.Bits, k)
			rounds := max(30, 2_000_000/k)
			xs := make([]int64, 0, rounds)
			for t := 0; t < rounds; t++ {
				for i := range arrived {
					arrived[i] = 0
					if lp.rnd.IntN(16) == 0 {
						arrived[i] = bw.Bits(1 + lp.rnd.Int64N(8*sharePerTick))
					}
					queued[i] += arrived[i]
				}
				t0 := time.Now()
				rates := a.Rates(bw.Tick(t), arrived, queued)
				xs = append(xs, int64(time.Since(t0)))
				for i := range queued {
					queued[i] -= min(queued[i], bw.Volume(rates[i], 1))
				}
			}
			rows = append(rows, ratesRow{name, k, float64(median(xs)) / float64(k)})
		}
	}
	return rows, nil
}

// queuePushServe times one FIFO Push plus Serve, median of five passes.
func (lp *layerProbe) queuePushServe() float64 {
	start := time.Now()
	defer lp.span("queue", start)
	const n = 200_000
	var q queue.FIFO
	var passes []int64
	t := 0
	for p := 0; p < 5; p++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			q.Push(bw.Tick(t), bw.Bits(32+i%64))
			q.Serve(bw.Tick(t), 64)
			t++
		}
		passes = append(passes, int64(time.Since(t0))/n)
	}
	return float64(median(passes))
}

// scheduleBytes is the heap a bw.Schedule allocates per rate change,
// the per-slot history the gateway keeps for the life of the process.
func (lp *layerProbe) scheduleBytes() float64 {
	start := time.Now()
	defer lp.span("bw", start)
	const n = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := &bw.Schedule{}
	for i := 0; i < n; i++ {
		s.Set(bw.Tick(i), bw.Rate(1+i%2))
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	return float64(after.TotalAlloc-before.TotalAlloc) / n
}

// taxRun is one load against an in-process gateway: ns per logical
// message over the whole load, and the p50 of the timed exchange.
type taxRun struct {
	nsPerMsg float64
	p50      int64
}

// taxResult holds [bare, instrumented] runs of each load.
type taxResult struct {
	permsg, batched [2]taxRun
}

// obsTax runs the same load against a bare in-process gateway and one
// with the registry and span ring attached, alternating three times; the
// difference is the instruments' price. permsg is rr-small's DATA+STATS
// on 1024 slots, 1 shard; batched is batch-fleet's 64-item BATCH+STATS
// on 4096 slots, 8 shards.
func (lp *layerProbe) obsTax() (taxResult, error) {
	start := time.Now()
	defer lp.span("obs", start)
	var runs [2][2][]taxRun // [batched][instrumented]
	for rep := 0; rep < 3; rep++ {
		for b := 0; b < 2; b++ {
			for inst := 0; inst < 2; inst++ {
				tr, err := taxLoad(b == 1, inst == 1)
				if err != nil {
					return taxResult{}, err
				}
				runs[b][inst] = append(runs[b][inst], tr)
			}
		}
	}
	mid := func(rs []taxRun) taxRun {
		ns, p := make([]int64, len(rs)), make([]int64, len(rs))
		for i, r := range rs {
			ns[i], p[i] = int64(r.nsPerMsg), r.p50
		}
		return taxRun{float64(median(ns)), median(p)}
	}
	var res taxResult
	for inst := 0; inst < 2; inst++ {
		res.permsg[inst] = mid(runs[0][inst])
		res.batched[inst] = mid(runs[1][inst])
	}
	return res, nil
}

func taxLoad(batched, instrumented bool) (taxRun, error) {
	k, shards, n, perIter := 1024, 1, 10000, 2
	if batched {
		k, shards, n, perIter = 4096, 8, 1500, batchItems+1
	}
	g, _, err := startInproc(k, shards, instrumented)
	if err != nil {
		return taxRun{}, err
	}
	defer g.Close()
	m, err := gateway.DialMux(g.Addr(), muxTimeout)
	if err != nil {
		return taxRun{}, err
	}
	defer m.Close()
	ids := make([]uint32, batchItems)
	for i := range ids {
		if ids[i], err = m.Open(); err != nil {
			return taxRun{}, err
		}
	}
	items := make([]gateway.BatchItem, batchItems)
	for i := range items {
		items[i] = gateway.BatchItem{Session: ids[i], Bits: 64}
	}
	xs := make([]int64, 0, n)
	warm := n / 10
	var t0 time.Time
	for i := 0; i < warm+n; i++ {
		if i == warm {
			t0 = time.Now()
		}
		id := ids[i%len(ids)]
		start := time.Now()
		if batched {
			err = m.SendBatch(items)
		} else {
			err = m.Send(id, 64)
			start = time.Now()
		}
		if err != nil {
			return taxRun{}, err
		}
		if _, err := m.Stats(id); err != nil {
			return taxRun{}, err
		}
		if i >= warm {
			xs = append(xs, int64(time.Since(start)))
		}
	}
	return taxRun{float64(time.Since(t0)) / float64(n*perIter), median(xs)}, nil
}
