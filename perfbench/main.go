// Command perfbench is the repository's benchmark. It starts
// cmd/bwgateway as a separate process, exactly as it ships (metrics
// registry, span ring and flight recorder on), drives one workload at it
// through gateway.Mux from this process over at most two connections,
// checks that the gateway's answers add up, and prints the end-to-end
// metrics. With -trace 1 it instead records a span around every call and
// prints the per-layer metrics, timed from these files around calls into
// each layer's public functions.
//
//	bash perfbench/run.sh --workload rr-small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The exit code is non-zero on any correctness breach or failed operation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: rr-small | batch-fleet | wide-churn")
		seed    = fs.Uint64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", 12, "measured time, seconds, shared by the measured gateway processes")
		trace   = fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
		bin     = fs.String("gateway", "", "path to a built bwgateway binary")
		out     = fs.String("out", ".", "directory for the span dump")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := findWorkload(*name)
	switch {
	case wl == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *seconds < measuredProcs:
		fmt.Fprintf(stderr, "perfbench: -seconds must be at least %d\n", measuredProcs)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	case *bin == "":
		fmt.Fprintln(stderr, "perfbench: -gateway is required")
		return 2
	}
	procs := min(runtime.NumCPU(), conns)
	runtime.GOMAXPROCS(procs)
	// Samples and spans are the load process's only garbage; collecting
	// it less often keeps the generator's own pauses out of the timings.
	debug.SetGCPercent(400)
	r := &runner{
		wl: wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		bin: *bin, procs: procs, live: liveSet{ids: make(map[uint32]struct{})},
	}
	if *trace == 1 {
		r.tr = newTracer()
		r.tr.on.Store(true)
	}
	r.spans = r.tr.buf()

	stamp := r.stamp()
	b, _ := json.Marshal(stamp)
	fmt.Fprintf(stdout, "# stamp %s\n", b)
	cpu0, _ := hostCPU()
	res, err := r.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cpu1, err := hostCPU(); err == nil && cpu0.total > 0 {
		fmt.Fprintf(stdout, "# host CPU stolen by the hypervisor during the run: %.1f%%\n",
			100*float64(cpu1.steal-cpu0.steal)/float64(cpu1.total-cpu0.total))
	}
	if r.tr != nil {
		path := filepath.Join(*out, "spans-"+wl.name+".jsonl")
		kept, dropped, err := r.tr.write(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: span dump:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %d kept, %d dropped, written to %s\n", kept, dropped, path)
	}
	for _, l := range res.report {
		fmt.Fprintln(stdout, l)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "%-44s %16.4f %s\n", m.name, m.value, m.unit)
	}
	for _, s := range r.chk.report() {
		fmt.Fprintln(stdout, "# BREACH:", s)
	}
	correct := r.chk.count() == 0 && res.failed == 0
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]metricOutput `json:"metrics"`
	}{correct, max(res.attempted, 1), res.failed, map[string]metricOutput{}}
	for _, m := range res.metrics {
		if m.inJSON {
			line.Metrics[m.name] = metricOutput{m.value, m.unit}
		}
	}
	b, err = json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !correct {
		return 1
	}
	return 0
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one printed figure. inJSON marks the ones on the result
// line; the rest are printed for people only.
type metric struct {
	name   string
	value  float64
	unit   string
	inJSON bool
}

type result struct {
	metrics   []metric
	report    []string // human-readable lines printed before the metrics
	attempted int64
	failed    int64
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit, true})
}

// show adds a metric printed for people but kept off the result line.
func (r *result) show(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit, false})
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// runner runs one workload once.
type runner struct {
	wl      *workload
	seed    uint64
	seconds time.Duration
	bin     string
	procs   int
	tr      *tracer // nil when untraced
	spans   *spanBuf
	chk     checker
	live    liveSet
}

// stamp describes where and how the numbers were taken.
func (r *runner) stamp() map[string]any {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return map[string]any{
		"workload":           r.wl.name,
		"seed":               r.seed,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs_load":    runtime.GOMAXPROCS(0),
		"gomaxprocs_gateway": r.procs,
		"go":                 runtime.Version(),
		"clocksource":        read("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
		"kernel":             read("/proc/sys/kernel/osrelease"),
		"gateway_flags":      strings.Join(r.wl.gatewayFlags(), " "),
		"connections":        conns,
		"link":               "loopback, not a real link",
	}
}

// fleet is one gateway process with the benchmark's connections to it
// and the sessions each connection opened.
type fleet struct {
	gw      *gwProc
	clients []*client
	ids     [][]uint32
}

func (f *fleet) close() {
	for _, c := range f.clients {
		c.m.Close()
	}
	f.gw.stop()
}

// setup starts a gateway and opens every session of the workload.
func (r *runner) setup() (*fleet, error) {
	gw, err := startGateway(r.bin, r.wl.gatewayFlags(), r.procs)
	if err != nil {
		return nil, err
	}
	f := &fleet{gw: gw, ids: make([][]uint32, conns)}
	for i := 0; i < conns; i++ {
		c, err := dialClient(gw.addr, r.wl.k, &r.live, &r.chk, r.tr.buf())
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i, c := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.ids[i], errs[i] = c.ramp(r.wl.perConn)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		f.close()
		return nil, fmt.Errorf("ramp: %w", err)
	}
	return f, nil
}

// sample is the gateway state at a phase boundary.
type sample struct {
	at    time.Time
	ticks float64
	cpu   time.Duration
}

func (r *runner) sampleGateway(gw *gwProc) (sample, error) {
	start := time.Now()
	ticks, err := gw.counter("dynbw_gateway_ticks_total")
	if err != nil {
		return sample{}, err
	}
	cpu, err := cpuTime(gw.cmd.Process.Pid)
	if err != nil {
		return sample{}, err
	}
	end := time.Now()
	r.spans.add("scrape", 0, 0, start, end)
	return sample{at: end, ticks: ticks, cpu: cpu}, nil
}

// phase is what one measured phase on one gateway process yielded.
type phase struct {
	workers []*worker
	a, b    sample // gateway state at the window's two ends
	rss     int64  // gateway peak RSS, bytes
}

func (r *runner) run() (*result, error) {
	res := &result{}
	procs, nparts := measuredProcs, int(r.seconds/measuredProcs/time.Second)
	if r.tr != nil {
		procs, nparts = 1, 2
	}
	var setupS []int64
	var opens [][]int64 // OPEN round trips of each ramp, then of the churn
	var phases []*phase
	for i := 0; i < r.wl.setups; i++ {
		start := time.Now()
		f, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, int64(time.Since(start)))
		var ramp []int64
		for _, c := range f.clients {
			ramp = append(ramp, c.opens...)
			c.opens = c.opens[:0]
		}
		opens = append(opens, ramp)
		var ph *phase
		if i >= r.wl.setups-procs {
			ph, err = r.measure(f, len(phases), r.seconds/time.Duration(procs), nparts)
			if err == nil && r.tr != nil && r.chk.count() == 0 {
				r.teardown(ph)
			}
		}
		for _, c := range f.clients {
			res.attempted += c.attempted
			res.failed += c.failed
		}
		f.close()
		r.live = liveSet{ids: make(map[uint32]struct{})}
		if err != nil {
			return nil, err
		}
		if ph != nil {
			phases = append(phases, ph)
		}
	}
	if r.chk.count() > 0 {
		return res, nil
	}

	all := &worker{}
	var churn []int64 // OPEN round trips of the churn, one part over all phases
	var msgs int64
	var cpu time.Duration
	var ticks, secs float64
	var rss []int64
	for _, ph := range phases {
		// Each phase's parts are parts of the run in their own right.
		parts := make([]int64, nparts)
		rtt := make([][]int64, nparts)
		for _, w := range ph.workers {
			for i := range w.msgs {
				parts[i] += w.msgs[i]
				rtt[i] = append(rtt[i], w.rtt[i]...)
				msgs += w.msgs[i]
			}
			all.late.ns = append(all.late.ns, w.late.ns...)
			all.deliv = append(all.deliv, w.deliv...)
			churn = append(churn, w.c.opens...)
		}
		all.msgs = append(all.msgs, parts...)
		all.rtt = append(all.rtt, rtt...)
		cpu += ph.b.cpu - ph.a.cpu
		ticks += ph.b.ticks - ph.a.ticks
		secs += ph.b.at.Sub(ph.a.at).Seconds()
		rss = append(rss, ph.rss)
	}
	if len(churn) > 0 {
		opens = append(opens, churn)
	}
	if r.tr != nil {
		return r.traced(phases[0], all, res)
	}
	dl, err := summarize("delivery", all.deliv)
	if err != nil {
		return nil, err
	}
	// Each ramp is a separate gateway process, so the OPEN figures are
	// medians over the ramps (and the churn) like the parts of the window.
	// A part may hold too few round trips for a p99 of its own, so the
	// rtt p99 is taken over all parts together.
	op, err1 := medianDist("open", opens)
	rtt, err2 := summarize("rtt", slices.Concat(all.rtt...))
	var p50s []int64
	for _, xs := range all.rtt {
		v, ok := quantile(xs, 0.5)
		if !ok {
			err2 = errors.Join(err2, fmt.Errorf("rtt: a part with %d samples", len(xs)))
		}
		p50s = append(p50s, v)
	}
	if err := errors.Join(err1, err2); err != nil {
		return nil, err
	}
	rtt.p50 = median(p50s)
	partS := r.seconds.Seconds() / float64(len(all.msgs))
	// The result line carries the metrics that hold still from run to run
	// on a shared 2-vCPU VM whose CPU steal swings between 0% and 30%;
	// the rest move by more than any bound it could carry, and are
	// printed for people only.
	res.add("setup_s", float64(median(setupS))/1e9, "s")
	res.show("msg_per_s", float64(median(all.msgs))/partS, "msg/s")
	res.show("rtt_p50_us", us(rtt.p50), "us")
	res.show("rtt_p99_us", us(rtt.p99), "us")
	res.show("open_p50_us", us(op.p50), "us")
	res.show("open_p99_us", us(op.p99), "us")
	res.add("delivery_p50_ms", float64(dl.p50)/1e6, "ms")
	res.show("delivery_p99_ms", float64(dl.p99)/1e6, "ms")
	res.add("ticks_per_s", ticks/secs, "1/s")
	res.add("server_cpu_ns_per_msg", float64(cpu)/float64(msgs), "ns")
	res.add("server_rss_mb", float64(median(rss))/(1<<20), "MiB")
	res.show("failed_ratio", float64(res.failed)/float64(max(res.attempted, 1)), "ratio")
	res.note("# samples: rtt %d in %d parts over %d gateway processes, open %d in %d parts, delivery %d; generator lateness p50 %.1fus",
		rtt.n, len(all.rtt), len(phases), op.n, len(opens), dl.n, us(median(all.late.ns)))
	return res, nil
}

// measure runs one measured phase on a fleet: a warm-up, then the window
// cut into nparts parts, then the correctness gate. proc numbers the
// phase within the run, so each phase draws its own seeded streams.
func (r *runner) measure(f *fleet, proc int, seconds time.Duration, nparts int) (*phase, error) {
	start := time.Now()
	win := window{from: start.Add(warmup), parts: nparts}
	win.to = win.from.Add(seconds)
	ph := &phase{workers: make([]*worker, conns)}
	for i, c := range f.clients {
		stream := uint64(proc*conns + i)
		w := &worker{
			c: c, wl: r.wl, win: win,
			grid:    grid{start: start, quantum: r.wl.quantum, seed: r.seed ^ (stream+1)<<32},
			rnd:     rand.New(rand.NewPCG(r.seed, stream)),
			regular: f.ids[i][r.wl.probes:],
			reqBase: (stream + 1) << 56,
			msgs:    make([]int64, win.parts),
			rtt:     make([][]int64, win.parts),
		}
		for _, id := range f.ids[i][:r.wl.probes] {
			w.probes = append(w.probes, probe{id: id, next: start})
		}
		ph.workers[i] = w
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i, w := range ph.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.wl.loop(w)
		}()
	}
	sleepUntil(win.from)
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	var errA, errB error
	ph.a, errA = r.sampleGateway(f.gw)
	if r.tr != nil {
		sleepUntil(win.partStart(1))
		r.tr.on.Store(true)
	}
	sleepUntil(win.to)
	ph.b, errB = r.sampleGateway(f.gw)
	wg.Wait()
	if err := errors.Join(append(errs, errA, errB)...); err != nil {
		r.chk.breach("measured phase: %v", err)
		return ph, nil
	}
	r.drainCheck(f)
	var err error
	ph.rss, err = peakRSS(f.gw.cmd.Process.Pid)
	return ph, err
}

// drainCheck is the correctness gate run after the measured phase: every
// bit sent must have arrived, and the sessions' served + queued must
// account for it.
func (r *runner) drainCheck(f *fleet) {
	var sent int64
	for i, c := range f.clients {
		// A STATS reply proves the gateway has handled every earlier DATA
		// on the connection.
		if _, _, _, err := c.stats(f.ids[i][0], 0); err != nil {
			r.chk.breach("drain barrier: %v", err)
			return
		}
		sent += c.totalSent
	}
	t0, err := f.gw.counter("dynbw_gateway_ticks_total")
	if err != nil {
		r.chk.breach("drain: %v", err)
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		time.Sleep(r.wl.tick)
		t, err := f.gw.counter("dynbw_gateway_ticks_total")
		if err != nil {
			r.chk.breach("drain: %v", err)
			return
		}
		if t >= t0+3 {
			break
		}
		if time.Now().After(deadline) {
			r.chk.breach("drain: ticks stalled at %v", t)
			return
		}
	}
	arrived, err := f.gw.counter("dynbw_gateway_arrived_bits_total")
	if err != nil {
		r.chk.breach("drain: %v", err)
		return
	}
	if int64(arrived) != sent {
		r.chk.breach("arrived_bits_total %d != %d bits sent", int64(arrived), sent)
	}
	var held int64 // served + queued over the live sessions
	for _, c := range f.clients {
		ids := make([]uint32, 0, len(c.sent))
		for id := range c.sent {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		sts, _, _, err := c.statsBatch(ids, 0)
		if err != nil {
			r.chk.breach("drain: %v", err)
			return
		}
		for i, st := range sts {
			got := int64(st.Served + st.Queued)
			held += got
			if r.wl.exact && got != c.sent[ids[i]] {
				r.chk.breach("session %d: served+queued %d != %d sent", ids[i], got, c.sent[ids[i]])
			}
		}
	}
	switch {
	case r.wl.exact && held != int64(arrived):
		r.chk.breach("served+queued %d != arrived %d", held, int64(arrived))
	case held > int64(arrived):
		r.chk.breach("served+queued %d > arrived %d", held, int64(arrived))
	}
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
