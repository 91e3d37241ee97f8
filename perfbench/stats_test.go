package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
		wantOK  bool
	}{
		{10000, 99.9, true}, // 10 beyond p99.9
		{9999, 99, true},    // 9 beyond p99.9, 100 beyond p99
		{1000, 99, true},
		{999, 98, true}, // 9 beyond p99
		{100, 90, true},
		{99, 75, true},
		{40, 75, true},
		{20, 50, true},
		{19, 50, false},
	}
	for _, c := range cases {
		p, _, ok := tail(seq(c.n))
		if p != c.wantPct || ok != c.wantOK {
			t.Errorf("n=%d: tail percentile %v ok=%v, want %v ok=%v", c.n, p, ok, c.wantPct, c.wantOK)
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond(c.n, p), p)
		}
	}
	if _, v, _ := tail(seq(1000)); math.Abs(v-quantile(seq(1000), 0.99)) > 1e-9 {
		t.Errorf("tail value %v is not the p99 of the sample", v)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {1.0 / 3, 2}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestCrossingInterpolatesBetweenLastPassAndFirstFail(t *testing.T) {
	rungs := []rung{
		{Rate: 100, TailMs: 2, Pass: true},
		{Rate: 200, TailMs: 6, Pass: true},
		{Rate: 300, TailMs: 16, Pass: false},
		{Rate: 400, TailMs: 90, Pass: false},
	}
	// Limit 10ms sits 40% of the way from 6ms to 16ms.
	got, ok := crossing(rungs, 10)
	if !ok || math.Abs(got-240) > 1e-9 {
		t.Fatalf("crossing = %v ok=%v, want 240", got, ok)
	}
	// A small change in the failing rung's tail moves the estimate a
	// little, not by a whole rung.
	rungs[2].TailMs = 17
	if got2, _ := crossing(rungs, 10); got2 >= got || got2 < 230 {
		t.Errorf("crossing with slower failing rung = %v, want just under %v", got2, got)
	}
}

func TestCrossingEdgeCases(t *testing.T) {
	// Failed on backlog with a tail under the limit: treated as at the
	// limit, so the crossing is the failing rate itself.
	r, ok := crossing([]rung{{Rate: 100, TailMs: 2, Pass: true}, {Rate: 200, TailMs: 5, Backlog: true}}, 10)
	if !ok || r != 200 {
		t.Errorf("backlog-failed rung: %v ok=%v, want 200", r, ok)
	}
	// Failed requests: no interpolation past the last passing rung.
	r, ok = crossing([]rung{{Rate: 100, TailMs: 2, Pass: true}, {Rate: 200, TailMs: 5, Failed: 3}}, 10)
	if !ok || r != 100 {
		t.Errorf("rung with failures: %v ok=%v, want 100", r, ok)
	}
	// Never crossed: the top rate, flagged.
	r, ok = crossing([]rung{{Rate: 100, Pass: true}, {Rate: 200, Pass: true}}, 10)
	if ok || r != 200 {
		t.Errorf("all passing: %v ok=%v, want 200 false", r, ok)
	}
	// First rung fails: nothing to interpolate from.
	if r, ok = crossing([]rung{{Rate: 100, TailMs: 50}}, 10); ok || r != 0 {
		t.Errorf("first rung failing: %v ok=%v, want 0 false", r, ok)
	}
}

func TestGrowsFlagsDriftNotJitter(t *testing.T) {
	steady := make([]float64, 300)
	for i := range steady {
		steady[i] = 0.1
		if i%50 == 0 {
			steady[i] = 20 // isolated spikes
		}
	}
	if grows(steady, 2) {
		t.Error("steady series with isolated spikes flagged as growing")
	}
	offset := make([]float64, 300)
	for i := range offset {
		offset[i] = 5 // constant lateness is not growth
	}
	if grows(offset, 2) {
		t.Error("constant offset flagged as growing")
	}
	drift := make([]float64, 300)
	for i := range drift {
		drift[i] = float64(i) * 0.05 // 0 → 15ms over the phase
	}
	if !grows(drift, 2) {
		t.Error("linear drift not flagged")
	}
	if grows(drift[:20], 0) {
		t.Error("too-short series should never be judged")
	}
}

func TestSelfTimesSubtractNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "handler", Start: 10, End: 50},
		{ID: 3, Parent: 2, Name: "featurize", Start: 15, End: 45},
		{ID: 4, Parent: 3, Name: "forest", Start: 20, End: 40},
		// Overlapping siblings count once; a child poking outside its
		// parent is clipped to it.
		{ID: 5, Parent: 1, Name: "a", Start: 60, End: 80},
		{ID: 6, Parent: 1, Name: "b", Start: 70, End: 110},
	}
	want := map[uint64]int64{
		1: 100 - 40 - 40, // handler [10,50) + union of a,b clipped [60,100)
		2: 40 - 30,
		3: 30 - 20,
		4: 20,
		5: 20,
		6: 40,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
}

func TestParseMetricsSumsLabelledSeries(t *testing.T) {
	text := `# HELP x test
# TYPE trout_snapshot_cache_requests_total counter
trout_snapshot_cache_requests_total{result="hit"} 90
trout_snapshot_cache_requests_total{result="miss"} 10
trout_predict_stage_duration_seconds_sum{stage="featurize"} 0.5
trout_predict_stage_duration_seconds_count{stage="featurize"} 1000
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.sum("trout_snapshot_cache_requests_total"); got != 100 {
		t.Errorf("family sum %v, want 100", got)
	}
	if got := m.sum("trout_snapshot_cache_requests_total", `result="hit"`); got != 90 {
		t.Errorf("hit sum %v, want 90", got)
	}
	if got := m.sum("trout_predict_stage_duration_seconds_count", `stage="featurize"`); got != 1000 {
		t.Errorf("stage count %v, want 1000", got)
	}
}

func TestLadderCountsLastCoarseRung(t *testing.T) {
	// Capacity 3,000/s from 100/s in steps of 2: the sixth rung (3,200/s),
	// the last coarse one, is the first to fail. It must still open the
	// bisections.
	capacity := func(rate float64) rung { return rung{Rate: rate, Pass: rate <= 3000} }
	rungs := ladder(100, 2, capacity)
	if len(rungs) != 1+coarseRungs+bisections {
		t.Fatalf("%d rungs, want %d: %+v", len(rungs), 1+coarseRungs+bisections, rungs)
	}
	lo, hi := 0.0, math.Inf(1)
	for _, r := range rungs {
		if r.Pass {
			lo = math.Max(lo, r.Rate)
		} else {
			hi = math.Min(hi, r.Rate)
		}
	}
	if !(lo <= 3000 && 3000 < hi) || hi/lo > math.Pow(2, 1.0/(1<<bisections))+1e-9 {
		t.Errorf("bracket [%v, %v] does not narrow 3000 to an eighth of a step", lo, hi)
	}
	for k := 1; k < len(rungs); k++ {
		if rungs[k].Rate < rungs[k-1].Rate {
			t.Fatalf("rungs not sorted by rate: %+v", rungs)
		}
	}
}

func TestLadderStepsDownWhenFirstRungFails(t *testing.T) {
	rungs := ladder(1000, 2, func(rate float64) rung { return rung{Rate: rate, Pass: rate <= 300} })
	if rungs[0].Rate != 250 || !rungs[0].Pass || rungs[len(rungs)-1].Rate != 1000 {
		t.Errorf("ladder did not step down to the first passing rate: %+v", rungs)
	}
	if len(rungs) != 3+bisections {
		t.Errorf("%d rungs, want %d", len(rungs), 3+bisections)
	}
}

// lateRung is a rung's report whose /predict samples are sent ever later
// against their schedule when drift is set.
func lateRung(drift bool) phaseReport {
	ss := make([]sample, 300)
	for i := range ss {
		due := int64(i) * 1e6
		sent := due + 50_000
		if drift {
			sent = due + int64(i)*50_000 // 0 → 15ms late over the rung
		}
		ss[i] = sample{due: due, free: due, sent: sent, done: sent + 100_000, status: 200}
	}
	return phaseReport{Name: "rung-3000", Seconds: 0.4, Classes: map[string]classStats{"predict": summarize(ss, 5)}}
}

func TestRungWithGrowingLatenessIsRedoneThenInvalid(t *testing.T) {
	if got := latenessGrowth(lateRung(false)); got != "" {
		t.Fatalf("steady rung flagged for lateness growth in %q", got)
	}
	s := &session{redoBudget: time.Second}
	measure := func(pr *phaseReport) func() error {
		return func() error { *pr = lateRung(true); return nil }
	}
	// Each late rung is discarded and measured again until the redo
	// budget is spent; it never counts as a failing rung.
	redos := 0
	for {
		var pr phaseReport
		err := s.quiet(&pr, measure(&pr))
		if err == nil {
			break
		}
		if err != errNoisy {
			t.Fatal(err)
		}
		if s.invalid != "" {
			t.Fatal("run marked invalid while redos were left")
		}
		redos++
	}
	if redos != 3 || len(s.discarded) != 3 {
		t.Errorf("%d redos, %d discarded; want 3 of each within a 1s budget", redos, len(s.discarded))
	}
	// With no redos left, the run is invalid rather than a result.
	if !strings.Contains(s.invalid, "rung-3000") {
		t.Errorf("run not marked invalid after the budget ran out: %q", s.invalid)
	}
}
