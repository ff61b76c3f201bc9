package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseBanner(t *testing.T) {
	lines := []string{
		"gateway 127.0.0.1:40001: 4096 slots over 8 shards, policy phased, tick 1ms",
		"admin http://127.0.0.1:40002: /metrics /healthz /sessions /events /spans /snapshots /debug/pprof",
		"serving until SIGINT/SIGTERM",
	}
	addr, admin, err := parseBanner(lines)
	if err != nil || addr != "127.0.0.1:40001" || admin != "127.0.0.1:40002" {
		t.Fatalf("parseBanner = %q, %q, %v", addr, admin, err)
	}
	for _, bad := range [][]string{lines[:1], lines[1:], nil} {
		if _, _, err := parseBanner(bad); err == nil {
			t.Errorf("parseBanner(%q): want error", bad)
		}
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP dynbw_gateway_ticks_total Allocation rounds run.
# TYPE dynbw_gateway_ticks_total counter
dynbw_gateway_ticks_total 1234
dynbw_gateway_messages_total{type="data"} 5e+06
dynbw_gateway_exchange_latency_ns_bucket{le="+Inf"} 17

`
	m, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"dynbw_gateway_ticks_total":                           1234,
		`dynbw_gateway_messages_total{type="data"}`:           5e6,
		`dynbw_gateway_exchange_latency_ns_bucket{le="+Inf"}`: 17,
	}
	if len(m) != len(want) {
		t.Fatalf("got %d series, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	for _, bad := range []string{"novalue", "x notanumber"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q): want error", bad)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses; utime=250 and
	// stime=50 ticks are fields 14 and 15.
	stat := "4242 (bw gate) (x)) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 50 0 0 20 0 9 0 100 0"
	got, err := parseStatCPU(stat)
	if err != nil || got != 3*time.Second {
		t.Fatalf("parseStatCPU = %v, %v; want 3s", got, err)
	}
	for _, bad := range []string{"4242 comm S 1", "4242 (c) S 1 2 3"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q): want error", bad)
		}
	}
}

func TestParseHostCPU(t *testing.T) {
	got, err := parseHostCPU("cpu  100 0 50 800 5 0 10 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if err != nil || got != (cpuTicks{total: 1000, steal: 35}) {
		t.Fatalf("parseHostCPU = %+v, %v", got, err)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x 9"} {
		if _, err := parseHostCPU(bad); err == nil {
			t.Errorf("parseHostCPU(%q): want error", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbwgateway\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 20480<<10 {
		t.Fatalf("parseVmHWM = %d, %v; want %d", got, err, 20480<<10)
	}
	for _, bad := range []string{"VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q): want error", bad)
		}
	}
}

func seq(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(n - i) // descending: quantile must sort a copy
	}
	return xs
}

func TestQuantileBeyondRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{1000, 0.99, 990, true},  // exactly ten samples beyond
		{999, 0.99, 990, false},  // nine beyond: refused
		{100, 0.50, 50, true},    // fifty beyond
		{15, 0.50, 8, false},     // seven beyond
		{1, 0.50, 1, false},      // a single sample
		{2000, 0.99, 1980, true}, // twenty beyond
	}
	for _, c := range cases {
		xs := seq(c.n)
		got, ok := quantile(xs, c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("quantile(n=%d, %v) = %d, %v; want %d, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
		if xs[0] != int64(c.n) {
			t.Errorf("quantile modified its input")
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of no samples reported ok")
	}
	if _, err := summarize("x", seq(999)); err == nil {
		t.Error("summarize accepted a p99 with nine samples beyond")
	}
	d, err := medianDist("x", [][]int64{seq(1000), seq(3000), seq(2000)})
	if err != nil || d.p50 != 1000 || d.p99 != 1980 || d.n != 6000 {
		t.Errorf("medianDist = %+v, %v", d, err)
	}
}

func TestGridPacerLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := time.Millisecond
	g := grid{start: t0, quantum: 5 * ms, seed: 7}
	prev := t0.Add(-time.Hour)
	for k := int64(0); k < 1000; k++ {
		b := g.boundary(k)
		off := b.Sub(t0) - time.Duration(k)*g.quantum
		if off < 0 || off >= g.quantum {
			t.Fatalf("boundary %d offset %v outside [0, quantum)", k, off)
		}
		if !b.After(prev) {
			t.Fatalf("boundary %d not after boundary %d", k, k-1)
		}
		if got := g.after(b); !got.Equal(b) {
			t.Fatalf("after(boundary %d) = %v, want the boundary", k, got.Sub(t0))
		}
		if k > 0 {
			if got := g.after(prev.Add(1)); !got.Equal(b) {
				t.Fatalf("after(just past boundary %d) = %v, want boundary %d", k-1, got.Sub(t0), k)
			}
		}
		prev = b
	}
	if g.boundary(3) != (grid{start: t0, quantum: 5 * ms, seed: 7}).boundary(3) {
		t.Error("grid is not deterministic for a seed")
	}

	// 400 operations a second: operation i falls due at the first
	// boundary at or after i*2.5ms; each is late by now - due.
	p := newPacer(g, 400)
	now := g.boundary(4)
	var late lateness
	n := 0
	for due, ok := p.take(now); ok; due, ok = p.take(now) {
		if want := g.after(t0.Add(time.Duration(n) * 2500 * time.Microsecond)); !due.Equal(want) {
			t.Errorf("op %d due %v, want %v", n, due.Sub(t0), want.Sub(t0))
		}
		late.record(due, now)
		if late.ns[n] != int64(now.Sub(due)) {
			t.Errorf("op %d late %dns, want %v", n, late.ns[n], now.Sub(due))
		}
		n++
	}
	if n < 9 || n > 11 {
		t.Errorf("took %d operations by boundary 4, want 9 to 11", n)
	}
	if !p.due().After(now) {
		t.Errorf("next due %v is not after now", p.due().Sub(t0))
	}
	// An operation started before its due time is not late.
	late.record(t0.Add(time.Second), t0)
	if late.ns[len(late.ns)-1] != 0 {
		t.Errorf("early start recorded %dns late", late.ns[len(late.ns)-1])
	}
}

func TestWindowParts(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := window{from: t0, to: t0.Add(10 * time.Second), parts: 5}
	for _, c := range []struct {
		at   time.Duration
		in   bool
		part int
	}{{-time.Nanosecond, false, 0}, {0, true, 0}, {1999 * time.Millisecond, true, 0}, {2 * time.Second, true, 1}, {9999 * time.Millisecond, true, 4}, {10 * time.Second, false, 0}} {
		at := t0.Add(c.at)
		if w.in(at) != c.in {
			t.Errorf("in(%v) = %v", c.at, !c.in)
		}
		if c.in && w.part(at) != c.part {
			t.Errorf("part(%v) = %d, want %d", c.at, w.part(at), c.part)
		}
	}
	if got := w.partStart(3); !got.Equal(t0.Add(6 * time.Second)) {
		t.Errorf("partStart(3) = %v", got.Sub(t0))
	}
}

func TestLadderFlagsResidual(t *testing.T) {
	rows := []ladderRow{{"floor", 50}, {"wire", 40}}
	if out := strings.Join(ladder("w", 100, rows), "\n"); strings.Contains(out, "FLAG") {
		t.Errorf("residual 10%% flagged:\n%s", out)
	}
	out := strings.Join(ladder("w", 100, rows[:1]), "\n")
	if !strings.Contains(out, "FLAG") {
		t.Errorf("residual 50%% not flagged:\n%s", out)
	}
}
