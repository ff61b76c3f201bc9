package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is noise, so it is refused.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie beyond it. xs is not modified.
func quantile(xs []int64, q float64) (int64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := int(math.Ceil(q * float64(n)))
	r = min(max(r, 1), n)
	return s[r-1], n-r >= minBeyond
}

// dist is the median and 99th percentile of a set of samples.
type dist struct {
	p50, p99 int64
	n        int
}

// summarize computes p50 and p99 of xs, failing when the p99 has fewer
// than minBeyond samples beyond it.
func summarize(name string, xs []int64) (dist, error) {
	p50, _ := quantile(xs, 0.50)
	p99, ok := quantile(xs, 0.99)
	if !ok {
		return dist{}, fmt.Errorf("%s: %d samples, too few for a p99", name, len(xs))
	}
	return dist{p50: p50, p99: p99, n: len(xs)}, nil
}

// medianDist summarizes each part on its own and returns the median over
// the parts of their p50s and of their p99s; n is the total sample count.
func medianDist(name string, parts [][]int64) (dist, error) {
	var p50s, p99s []int64
	n := 0
	for i, xs := range parts {
		d, err := summarize(fmt.Sprintf("%s part %d", name, i), xs)
		if err != nil {
			return dist{}, err
		}
		p50s, p99s = append(p50s, d.p50), append(p99s, d.p99)
		n += d.n
	}
	return dist{p50: median(p50s), p99: median(p99s), n: n}, nil
}

// median is the nearest-rank median of xs (0 when empty).
func median(xs []int64) int64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// grid is the generator's pacing grid. Go's timers wake about a
// millisecond late for sleeps shorter than that, so the generator sleeps
// only from boundary to boundary and, at each one, issues every
// operation that has fallen due. Boundary k lies at start + k*quantum
// plus a seeded offset below quantum: the offsets spread the boundaries
// over every phase of the gateway's own tick, instead of holding one
// phase for a whole run, which would make every request of that run
// wait (or not) behind the tick's lock.
type grid struct {
	start   time.Time
	quantum time.Duration
	seed    uint64
}

// boundary returns boundary k.
func (g grid) boundary(k int64) time.Time {
	h := g.seed ^ uint64(k)*0x9e3779b97f4a7c15 // splitmix64
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	return g.start.Add(time.Duration(k)*g.quantum + time.Duration(h%uint64(g.quantum)))
}

// after returns the first boundary at or after t.
func (g grid) after(t time.Time) time.Time {
	k := max(int64(t.Sub(g.start)/g.quantum)-1, 0)
	b := g.boundary(k)
	for b.Before(t) {
		k++
		b = g.boundary(k)
	}
	return b
}

// pacer schedules one open-loop stream, whether or not earlier
// operations have finished: operation i falls due at the first grid
// boundary at or after start + i*period. How far an operation starts
// after its due time is the generator's lateness.
type pacer struct {
	g      grid
	period time.Duration
	next   int64 // index of the next operation to hand out
}

func newPacer(g grid, perSecond float64) *pacer {
	return &pacer{g: g, period: time.Duration(float64(time.Second) / perSecond)}
}

// due returns the next operation's due time.
func (p *pacer) due() time.Time {
	return p.g.after(p.g.start.Add(time.Duration(p.next) * p.period))
}

// take hands out the next operation if it is due at now, returning its
// due time.
func (p *pacer) take(now time.Time) (time.Time, bool) {
	d := p.due()
	if d.After(now) {
		return time.Time{}, false
	}
	p.next++
	return d, true
}

// lateness records how late each operation started against its due time.
type lateness struct{ ns []int64 }

func (l *lateness) record(due, started time.Time) {
	l.ns = append(l.ns, int64(max(started.Sub(due), 0)))
}
