package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between order statistics. It returns NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the candidates tail() chooses among, highest first.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// beyond counts the samples of an n-sample set that lie past percentile p.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)-1e-9))
}

// supported reports whether an n-sample set has at least minBeyond samples
// beyond percentile p.
func supported(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// tail picks the highest candidate percentile with at least minBeyond
// samples beyond it and returns it with its value. With fewer than
// minBeyond samples in all it falls back to the median (ok=false).
func tail(sorted []float64) (p, v float64, ok bool) {
	for _, c := range tailPercentiles {
		if supported(len(sorted), c) {
			return c, quantile(sorted, c/100), true
		}
	}
	return 50, quantile(sorted, 0.5), false
}

// grows reports whether a series recorded in send order drifts upward
// through a phase: the 90th percentile of its last third exceeds that of
// its first third by more than slack. A generator that falls further
// behind its schedule (or a server whose backlog builds) shows this shape;
// a steady offset or isolated spikes do not.
func grows(series []float64, slack float64) bool {
	n := len(series) / 3
	if n < 10 {
		return false
	}
	first := quantile(sortedCopy(series[:n]), 0.9)
	last := quantile(sortedCopy(series[len(series)-n:]), 0.9)
	return last > first+slack
}

// rung is one step of a rate ladder: the offered rate, the tail latency
// measured at it, and whether the rung met the latency limit with no
// failed requests and no growing backlog.
type rung struct {
	Rate    float64 `json:"rate"`
	P50Ms   float64 `json:"p50_ms"`
	TailMs  float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_pct"`
	N       int     `json:"n"`
	Failed  int     `json:"failed"`
	Backlog bool    `json:"backlog_grows"`
	Pass    bool    `json:"pass"`
}

// ladder runs a rate ladder: coarse geometric rungs from `from`, each
// step times the last, until one rung passes and one fails (stepping down
// when the first rung fails), then geometric bisections of that bracket, so
// the interpolated crossing does not jump by a whole coarse step. measure
// runs one rung. The rungs come back sorted by rate.
func ladder(from, step float64, measure func(rate float64) rung) []rung {
	var rungs []rung
	lo, hi := 0.0, 0.0 // highest passing and lowest failing rate seen
	at := func(rate float64) {
		r := measure(rate)
		rungs = append(rungs, r)
		if r.Pass {
			lo = r.Rate
		} else {
			hi = r.Rate
		}
	}
	at(from)
	if !rungs[0].Pass {
		step = 1 / step
	}
	for rate, k := from, 0; k < coarseRungs && (lo == 0 || hi == 0); k++ {
		rate *= step
		at(rate)
	}
	for k := 0; k < bisections && lo > 0 && hi > 0; k++ {
		at(math.Sqrt(lo * hi))
	}
	sort.Slice(rungs, func(i, j int) bool { return rungs[i].Rate < rungs[j].Rate })
	return rungs
}

// crossing interpolates the highest rate that meets limitMs between the
// last passing rung and the first failing one, so the estimate moves
// smoothly instead of jumping between rungs. A failing rung whose tail
// still reads under the limit (it failed on errors or backlog) counts as
// sitting exactly at the limit. ok=false means the ladder never crossed:
// either the first rung failed (the value is 0) or every rung passed (the
// value is the top rate, a lower bound).
func crossing(rungs []rung, limitMs float64) (rate float64, ok bool) {
	for k, r := range rungs {
		if r.Pass {
			continue
		}
		if k == 0 {
			return 0, false
		}
		lo := rungs[k-1]
		hiMs := math.Max(r.TailMs, limitMs)
		if r.Failed > 0 || math.IsNaN(hiMs) || math.IsInf(hiMs, 0) {
			return lo.Rate, true
		}
		if hiMs <= lo.TailMs {
			return lo.Rate, true
		}
		f := (limitMs - lo.TailMs) / (hiMs - lo.TailMs)
		return lo.Rate + f*(r.Rate-lo.Rate), true
	}
	if len(rungs) == 0 {
		return 0, false
	}
	return rungs[len(rungs)-1].Rate, false
}

// span is one traced interval. Times are nanoseconds from the start of
// the traced run; Parent is 0 for a root.
type span struct {
	Trace  uint64 `json:"trace_id"`
	ID     uint64 `json:"span_id"`
	Parent uint64 `json:"parent_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children are clipped to the parent and
// overlapping children count once, so a span's self time is never
// negative and nested grandchildren are charged to their own parent only.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		iv := make([][2]int64, 0, len(kids[s.ID]))
		for _, c := range kids[s.ID] {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curA, curB int64
		open := false
		for _, x := range iv {
			if open && x[0] <= curB {
				curB = max(curB, x[1])
				continue
			}
			if open {
				covered += curB - curA
			}
			curA, curB, open = x[0], x[1], true
		}
		if open {
			covered += curB - curA
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}
