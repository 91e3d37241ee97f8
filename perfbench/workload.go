package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Request shapes shared by every workload.
const (
	batchJobs   = 64 // jobs per POST /predict/batch
	ingestBatch = 2  // events per POST /events in the timed streams
)

// inf stands in for the latency of a failed request: it misses every
// limit and keeps reports JSON-encodable.
const inf = 1e12

// workload is one traffic mix against one served state. Rates are fixed
// per workload and sized for a 2-vCPU box with troutd and the generator
// sharing it (README.md gives the sizing).
type workload struct {
	name string
	// cutLo/cutHi bound where in the event stream the served state is cut.
	cutLo, cutHi float64
	storm        int // storm submissions added on top of the cut state
	pool         int // distinct request targets

	predictRate  float64 // nominal single /predict rate
	predictConns int
	batchRate    float64 // nominal /predict/batch rate (own connection)
	eventRate    float64 // nominal /events rate (own connection)

	limitMs     float64 // predict_max_rps latency limit
	ladderFrom  float64 // first ladder rung (requests/s)
	ladderStep  float64 // rung-to-rung rate factor
	ladderConns int     // connections the ladder's /predict uses

	// Classes the nominal mix lacks are measured in a probe at
	// these rates, so every workload reports every metric.
	probeBatchRate float64
	probeEventRate float64
}

var workloads = []*workload{
	{
		name: "live-shallow", cutLo: 0.3, cutHi: 0.7, pool: 512,
		predictRate: 500, predictConns: 2,
		limitMs: 10, ladderFrom: 2000, ladderStep: 1.5, ladderConns: 2,
		probeBatchRate: 50, probeEventRate: 500,
	},
	{
		name: "storm-deep", cutLo: 0.3, cutHi: 0.7, storm: 2000, pool: 256,
		predictRate: 120, predictConns: 1, batchRate: 2,
		limitMs: 40, ladderFrom: 300, ladderStep: 1.5, ladderConns: 2,
		probeEventRate: 400,
	},
	{
		name: "ingest-mixed", cutLo: 0.1, cutHi: 0.6, pool: 512,
		predictRate: 100, predictConns: 1, eventRate: 125,
		limitMs: 10, ladderFrom: 200, ladderStep: 1.3, ladderConns: 1,
		probeBatchRate: 50,
	},
}

// horizon is how many events a run of total measured time replays after
// the cut: the ingest stream (nominal or probe) at its rate for the run,
// with a margin. Windows measured again may replay past it.
func (w *workload) horizon(total time.Duration) int {
	rate := w.eventRate
	if rate == 0 {
		rate = w.probeEventRate * probeShare
	}
	return int(rate * ingestBatch * total.Seconds() * 1.2)
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// phase lengths as shares of the measured seconds.
const (
	warmShare    = 0.05
	nominalShare = 0.50
	rungShare    = 0.04
	probeShare   = 0.15
	rungGap      = 150 * time.Millisecond
	// The ladder runs at most coarseRungs+1 rungs to bracket the limit
	// and bisections more to narrow it (≈0.4 of the measured seconds).
	coarseRungs = 5
	bisections  = 3
	// Window counts: every latency metric is the median of its per-window
	// quantile, and a rung's tail the median over its parts.
	nominalWindows = 12
	probeWindows   = 6
	rungParts      = 4
	// stealLimit is the host steal share above which a window or rung is
	// measured again, for at most redoShare of the measured seconds per run.
	stealLimit = 0.05
	redoShare  = 1.5
	// setupRepeats is how many times an untraced run sets up; setup_s is
	// the median. The traced run sets up once.
	setupRepeats = 3
)

// session is one measured run against one ready troutd.
type session struct {
	w     *workload
	in    *inputs
	d     *daemon
	o     *oracle
	conns []*conn

	evNext  int          // next ingest batch (one connection sends them, in order)
	lastAck atomic.Int64 // engine clock of the last acked ingest batch
	acked   []int        // ingest batches acked, in send order

	mismatches int
	firstErr   string
	// firstFailed describes the first request that failed outright.
	firstFailed string

	// redone is the measuring time spent again because of interference,
	// at most redoBudget per run; discarded are the measurements replaced.
	redone, redoBudget time.Duration
	discarded          []phaseReport
	// invalid names the first kept measurement through which the
	// generator's own lateness grew; such a run reports no result.
	invalid string
}

func (s *session) fail(err error) {
	s.mismatches++
	if s.firstErr == "" {
		s.firstErr = err.Error()
	}
}

func (s *session) predictStream(rate float64, conns []*conn) *stream {
	if s.w.eventRate > 0 {
		// Moving state: predict at the last acked event time.
		return &stream{class: "predict", path: "/predict", rate: rate, conns: conns,
			pick: func(i int) (int, []byte) {
				k := i % len(s.in.targets)
				return k, predictBody(s.lastAck.Load(), s.in.targets[k])
			}}
	}
	return &stream{class: "predict", path: "/predict", rate: rate, conns: conns,
		pick: func(i int) (int, []byte) { k := i % len(s.in.predict); return k, s.in.predict[k] }}
}

// batchStream sends batches at the cut instant: every workload sends them
// while its state is still the cut state.
func (s *session) batchStream(rate float64, cn *conn) *stream {
	return &stream{class: "batch", path: "/predict/batch", rate: rate, conns: []*conn{cn},
		pick: func(i int) (int, []byte) { k := i % len(s.in.batches); return k, s.in.batches[k] }}
}

func (s *session) eventStream(rate float64, cn *conn) *stream {
	return &stream{class: "events", path: "/events", rate: rate, conns: []*conn{cn},
		pick: func(int) (int, []byte) {
			k := s.evNext
			s.evNext++
			if k >= len(s.in.ingestB) {
				return k, nil // the stream ran dry: the ack check fails it
			}
			return k, s.in.ingestB[k]
		},
		after: func(_ int, body []byte) {
			var a eventsAck
			if json.Unmarshal(body, &a) == nil {
				s.lastAck.Store(a.Now)
			}
		}}
}

// verify runs the oracle over one phase's samples.
func (s *session) verify(st *stream, ss []sample) {
	for i := range ss {
		sm := &ss[i]
		if !sm.ok() {
			if s.firstFailed == "" {
				s.firstFailed = fmt.Sprintf("%s item %d: status %d, error %v, body %.200q", st.class, sm.item, sm.status, sm.err, sm.resp)
			}
			continue // already a failed request
		}
		var err error
		switch st.class {
		case "predict":
			if s.w.eventRate > 0 {
				err = checkLivePredict(sm.resp)
			} else {
				err = checkPredict(sm.resp, s.o.want[sm.item])
			}
		case "batch":
			err = checkBatch(sm.resp, s.in.batchOf[sm.item], s.o.want)
		case "events":
			if sm.item >= len(s.in.ingest) {
				err = fmt.Errorf("ingest stream ran out of events")
				break
			}
			if _, err = checkAck(sm.resp, len(s.in.ingest[sm.item])); err == nil {
				s.acked = append(s.acked, sm.item)
			}
		}
		if err != nil {
			s.fail(fmt.Errorf("%s item %d: %w", st.class, sm.item, err))
		}
		sm.resp = nil
	}
}

// phaseReport is what a phase contributes to the detail line.
type phaseReport struct {
	Name    string                `json:"name"`
	Seconds float64               `json:"seconds"`
	Classes map[string]classStats `json:"classes"`
	// StealShare is the share of the machine's CPU time the host stole
	// during the phase; Discarded marks a phase measured again because of it.
	StealShare float64 `json:"steal_share"`
	Discarded  bool    `json:"discarded,omitempty"`
}

// runStreams runs one phase, verifies it, and summarizes it.
func (s *session) runStreams(name string, dur time.Duration, streams ...*stream) (phaseReport, map[string][]sample) {
	raw := runPhase(streams, dur)
	pr := phaseReport{Name: name, Seconds: dur.Seconds(), Classes: map[string]classStats{}}
	out := map[string][]sample{}
	for i, st := range streams {
		s.verify(st, raw[i])
		pr.Classes[st.class] = summarize(raw[i], s.w.limitMs/2)
		out[st.class] = raw[i]
	}
	return pr, out
}

// run performs the set-ups, the measured phases and (when traced) the
// in-process traced run, and assembles the result.
func run(w *workload, seed int64, total time.Duration, traced bool, env *runEnv) (*runResult, error) {
	setups := setupRepeats
	if traced {
		setups = 1 // setup_s is an end-to-end metric; the traced run skips its repeats
	}
	var (
		in        *inputs
		d         *daemon
		c         *corpus
		setupSecs []float64
	)
	for rep := 0; rep < setups; rep++ {
		if d != nil {
			d.stop()
		}
		var secs float64
		var err error
		d, c, secs, err = setUp(w, env, rep, seed, &in)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setupSecs = append(setupSecs, secs)
	}
	defer d.stop()

	o, err := newOracle(c, in)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, in: in, d: d, o: o, redoBudget: time.Duration(redoShare * float64(total))}
	s.lastAck.Store(in.at)
	for i := 0; i < 2; i++ {
		cn, err := dial(d.addr)
		if err != nil {
			return nil, err
		}
		defer cn.Close()
		s.conns = append(s.conns, cn)
	}
	sec := func(share float64) time.Duration { return time.Duration(share * float64(total)) }

	// The nominal mix: the workload's own traffic at its fixed rates.
	nominal := func() []*stream {
		var ss []*stream
		switch {
		case w.batchRate > 0:
			ss = []*stream{s.predictStream(w.predictRate, s.conns[:1]), s.batchStream(w.batchRate, s.conns[1])}
		case w.eventRate > 0:
			ss = []*stream{s.eventStream(w.eventRate, s.conns[0]), s.predictStream(w.predictRate, s.conns[1:])}
		default:
			ss = []*stream{s.predictStream(w.predictRate, s.conns[:w.predictConns])}
		}
		return ss
	}
	detail := map[string]any{"workload": w.name, "seed": seed, "stamp": machineStamp(env.root)}
	var phases []phaseReport

	// A probe measures one class the workload's own mix lacks, in windows
	// of its own, so that every workload reports every metric.
	probe := func(kind string, mix func() []*stream) ([]phaseReport, error) {
		var out []phaseReport
		for k := 1; k <= probeWindows; k++ {
			pr, _, err := s.window(fmt.Sprintf("probe-%s-%d", kind, k), sec(probeShare)/probeWindows, mix)
			if err != nil {
				return nil, err
			}
			out = append(out, pr)
		}
		phases = append(phases, out...)
		return out, nil
	}
	// Batches are measured at the cut state. The frozen workloads keep it
	// until their events probe, and probe batches after the nominal phase;
	// ingest-mixed probes them first, before ingest moves it.
	batchMix := func() []*stream { return []*stream{s.batchStream(w.probeBatchRate, s.conns[0])} }
	var batches []phaseReport
	if w.eventRate > 0 {
		if batches, err = probe("batch", batchMix); err != nil {
			return nil, err
		}
	}

	warm, _ := s.runStreams("warmup", sec(warmShare), nominal()...)
	phases = append(phases, warm)

	m0, err := d.scrape()
	if err != nil {
		return nil, err
	}
	// Nominal windows.
	var nom []phaseReport
	var cpuUs, cpuReqs float64
	nomDelta := metricsText{} // troutd's counters over the nominal windows alone
	for k := 1; k <= nominalWindows; k++ {
		before, err := d.scrape()
		if err != nil {
			return nil, err
		}
		pr, c, err := s.window(fmt.Sprintf("nominal-%d", k), sec(nominalShare)/nominalWindows, nominal)
		if err != nil {
			return nil, err
		}
		after, err := d.scrape()
		if err != nil {
			return nil, err
		}
		nomDelta.add(after.minus(before))
		nom = append(nom, pr)
		cpuUs += c.us
		cpuReqs += c.reqs
	}
	phases = append(phases, nom...)
	// troutd's peak RSS covers set-up and the workload's own mix: it is
	// read before the probes and the saturating ladder.
	p1, err := sampleProc(d.pid())
	if err != nil {
		return nil, err
	}
	m1, err := d.scrape()
	if err != nil {
		return nil, err
	}
	nomReqs := 0 // requests completed between the m0 and m1 scrapes
	for _, ph := range nom {
		for _, cs := range ph.Classes {
			nomReqs += cs.Succeeded
		}
	}
	if w.batchRate == 0 && w.eventRate == 0 {
		if batches, err = probe("batch", batchMix); err != nil {
			return nil, err
		}
	}

	// Rate ladder: /predict only (on ingest-mixed, beside the ongoing
	// ingest stream).
	rungs := ladder(w.ladderFrom, w.ladderStep, func(rate float64) rung {
		ss := []*stream{s.predictStream(rate, s.conns[len(s.conns)-w.ladderConns:])}
		if w.eventRate > 0 {
			ss = append(ss, s.eventStream(w.eventRate, s.conns[0]))
		}
		var pr phaseReport
		var raw map[string][]sample
		for {
			err := s.quiet(&pr, func() error {
				pr, raw = s.runStreams(fmt.Sprintf("rung-%.0f", rate), sec(rungShare), ss...)
				return nil
			})
			if err == nil {
				break
			}
			time.Sleep(rungGap)
		}
		phases = append(phases, pr)
		cs := pr.Classes["predict"]
		r := rung{Rate: rate, P50Ms: cs.P50Ms, TailPct: 99, TailMs: subTail(raw["predict"], rungParts, 0.99),
			N: cs.Attempted, Failed: cs.Failed, Backlog: cs.BacklogGrows}
		r.Pass = r.Failed == 0 && !r.Backlog && r.TailMs <= w.limitMs
		time.Sleep(rungGap)
		return r
	})
	lowestRungP50 := rungs[0].P50Ms
	maxRPS, crossed := crossing(rungs, w.limitMs)

	// The events probe, for the frozen workloads, runs last: it moves the
	// state.
	var events []phaseReport
	if w.batchRate > 0 {
		batches = nom
	}
	if w.eventRate > 0 {
		events = nom
	} else {
		events, err = probe("events", func() []*stream { return []*stream{s.eventStream(w.probeEventRate, s.conns[0])} })
		if err != nil {
			return nil, err
		}
	}
	p3, err := sampleProc(d.pid())
	if err != nil {
		return nil, err
	}
	m3, err := d.scrape()
	if err != nil {
		return nil, err
	}

	// The final engine state must match an oracle fed the same events.
	for _, k := range s.acked {
		if err := o.apply(s.in.ingest[k]); err != nil {
			s.fail(err)
		}
	}
	if err := o.checkGauges(m3); err != nil {
		s.fail(err)
	}

	attempted, failed := 0, 0
	for _, ph := range append(phases, s.discarded...) {
		for _, cs := range ph.Classes {
			attempted += cs.Attempted
			failed += cs.Failed
		}
	}
	failed += s.mismatches

	e2e := map[string]metric{
		"setup_s":           num(median(setupSecs), "s"),
		"predict_p50_ms":    ms(windowed(nom, "predict", 0.50)),
		"cpu_us_per_req":    us(cpuUs / max(cpuReqs, 1)),
		"rss_peak_mb":       num(float64(p1.hwmKiB)/1024, "MB"),
		"holdout_class_acc": num(c.holdoutAcc, "ratio"),
		"holdout_mape_pct":  num(c.holdoutMAPE, "%"),
	}

	layers := serverLayers(nomDelta, m3.minus(m0), m1.minus(m0), nomReqs)
	nomPredict := pooled(nom, "predict")
	// The end-to-end numbers that vary too much from run to run on a shared
	// 2-vCPU host to carry a regression bound are reported here instead.
	layers["client.predict_p90_ms"] = ms(windowed(nom, "predict", 0.90))
	layers["client.predict_p99_ms"] = ms(windowed(nom, "predict", 0.99))
	layers["client.batch_p50_ms"] = ms(windowed(batches, "batch", 0.50))
	layers["client.batch_p90_ms"] = ms(windowed(batches, "batch", 0.90))
	layers["client.predict_max_rps"] = num(maxRPS, "1/s")
	layers["client.events_p50_ms"] = ms(windowed(events, "events", 0.50))
	layers["client.events_p99_ms"] = ms(windowed(events, "events", 0.99))
	layers["client.lateness_p99_ms"] = ms(nomPredict.LatenessP99Ms)
	invalid := s.invalid
	if !supported(nomPredict.Attempted, 99) {
		invalid = fmt.Sprintf("nominal /predict has %d samples, too few for its p99", nomPredict.Attempted)
	}
	detail["setup_s"] = setupSecs
	detail["rss_end_of_run_mb"] = float64(p3.hwmKiB) / 1024
	detail["discarded"] = s.discarded
	detail["phases"] = phases
	detail["ladder"] = map[string]any{"limit_ms": w.limitMs, "rungs": rungs, "crossed": crossed}
	detail["cut"] = map[string]any{"event": in.cut, "at": in.at, "storm": len(in.storm) / 2}
	// Pooled tails under the ≥10-beyond rule, with their sample counts.
	detail["tails"] = map[string]any{
		"predict": tailReport(nomPredict),
		"batch":   tailReport(pooled(batches, "batch")),
		"events":  tailReport(pooled(events, "events")),
	}
	if s.firstErr != "" {
		detail["first_mismatch"] = s.firstErr
	}
	if s.firstFailed != "" {
		detail["first_failed_request"] = s.firstFailed
	}

	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: e2e}
	if traced {
		tl, err := runTraced(w, s, c, lowestRungP50, env)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for k, v := range tl {
			layers[k] = v
		}
		line.Metrics = layers
		detail["spans_file"] = env.spans
	} else {
		detail["per_layer_from_socket"] = layers
	}
	detail["end_to_end"] = e2e
	return &runResult{line: line, detail: detail, invalid: invalid}, nil
}

// tailReport states a class's tail percentile under the ≥10-beyond rule,
// with its sample count.
func tailReport(cs classStats) map[string]float64 {
	return map[string]float64{"n": float64(cs.Attempted), "pct": cs.TailPct, "ms": cs.TailMs}
}

// cpuUse is troutd's CPU time over a window and the requests it completed.
type cpuUse struct{ us, reqs float64 }

// window runs one window of a mix and returns its report and troutd's CPU
// use over it. A window during which the host stole more than stealLimit
// of this machine's CPU time measured a neighbour, not troutd: it is kept
// in the counts but discarded from the metrics and run again, within the
// run's redo budget.
func (s *session) window(name string, dur time.Duration, mix func() []*stream) (phaseReport, cpuUse, error) {
	for {
		var pr phaseReport
		var cpu cpuUse
		err := s.quiet(&pr, func() error {
			p0, err := sampleProc(s.d.pid())
			if err != nil {
				return err
			}
			pr, _ = s.runStreams(name, dur, mix()...)
			p1, err := sampleProc(s.d.pid())
			if err != nil {
				return err
			}
			cpu.us = float64((p1.cpu - p0.cpu).Microseconds())
			for _, cs := range pr.Classes {
				cpu.reqs += float64(cs.Succeeded)
			}
			return nil
		})
		if err != errNoisy {
			return pr, cpu, err
		}
	}
}

// errNoisy marks a measurement discarded for host interference or
// generator lateness.
var errNoisy = errors.New("host interference")

// quiet runs measure, stamps pr with the host steal share over it, and
// returns errNoisy (after filing pr as discarded) when the share exceeds
// stealLimit or the generator's lateness grew through pr, and the run
// still has redos left. Lateness growth with no redos left marks the run
// invalid: its latencies would time the generator, not troutd.
func (s *session) quiet(pr *phaseReport, measure func() error) error {
	h0, err := readHostCPU()
	if err != nil {
		return err
	}
	if err := measure(); err != nil {
		return err
	}
	h1, err := readHostCPU()
	if err != nil {
		return err
	}
	pr.StealShare = h1.stealShare(h0)
	grew := latenessGrowth(*pr)
	if (pr.StealShare > stealLimit || grew != "") && s.redone < s.redoBudget {
		s.redone += time.Duration(pr.Seconds * float64(time.Second))
		pr.Discarded = true
		s.discarded = append(s.discarded, *pr)
		return errNoisy
	}
	if grew != "" && s.invalid == "" {
		s.invalid = fmt.Sprintf("generator lateness grows through %s (%s)", pr.Name, grew)
	}
	return nil
}

// latenessGrowth names a class of pr whose generator lateness grew
// through it, or returns "".
func latenessGrowth(pr phaseReport) string {
	for cls, cs := range pr.Classes {
		if cs.LatenessGrows {
			return cls
		}
	}
	return ""
}

// windowed is the median over windows of each window's q-quantile of one
// class: interference that lands in a minority of windows cannot move it.
func windowed(ws []phaseReport, cls string, q float64) float64 {
	vals := make([]float64, 0, len(ws))
	for _, w := range ws {
		vals = append(vals, quantile(w.Classes[cls].latSorted, q))
	}
	return median(vals)
}

// pooled merges one class's windows into a single summary.
func pooled(ws []phaseReport, cls string) classStats {
	var cs classStats
	var lat []float64
	for _, w := range ws {
		c := w.Classes[cls]
		cs.Attempted += c.Attempted
		cs.Succeeded += c.Succeeded
		cs.Failed += c.Failed
		cs.LatenessP99Ms = math.Max(cs.LatenessP99Ms, c.LatenessP99Ms)
		lat = append(lat, c.latSorted...)
	}
	cs.latSorted = sortedCopy(lat)
	cs.TailPct, cs.TailMs, _ = tail(cs.latSorted)
	return cs
}

// subTail splits a rung's samples into parts by due time and returns the
// median of the parts' q-quantiles, so one stalled slice of a rung does
// not fail it while real saturation, which builds through the rung, does.
func subTail(ss []sample, parts int, q float64) float64 {
	if len(ss) == 0 {
		return math.NaN()
	}
	vals := make([]float64, 0, parts)
	for p := 0; p < parts; p++ {
		part := ss[p*len(ss)/parts : (p+1)*len(ss)/parts]
		lat := make([]float64, 0, len(part))
		for i := range part {
			if part[i].ok() {
				lat = append(lat, part[i].latencyMs())
			} else {
				lat = append(lat, inf)
			}
		}
		if len(lat) > 0 {
			vals = append(vals, quantile(sortedCopy(lat), q))
		}
	}
	return median(vals)
}

// serverLayers reads troutd's own counters: nom is their change over the
// nominal windows alone, run over the whole measured run, and bracket over
// the stretch from the first to the last nominal window, in which reqs
// requests completed (troutd refreshes its runtime counters about once a
// second, so GC cycles are read over that whole stretch).
func serverLayers(nom, run, bracket metricsText, reqs int) map[string]metric {
	out := map[string]metric{}
	for _, st := range []string{"snapshot", "featurize", "scale", "classify", "regress", "batch_nn", "fallback"} {
		lbl := `stage="` + st + `"`
		n := nom.sum("trout_predict_stage_duration_seconds_count", lbl)
		mean := 0.0
		if n > 0 {
			mean = nom.sum("trout_predict_stage_duration_seconds_sum", lbl) / n * 1e6
		}
		out["server."+st+"_us"] = us(mean)
	}
	hits := nom.sum("trout_snapshot_cache_requests_total", `result="hit"`)
	lookups := nom.sum("trout_snapshot_cache_requests_total")
	out["trout.snapcache_hit_ratio"] = num(ratio(hits, lookups), "ratio")
	preds := run.sum("trout_predictions_total")
	nn := run.sum("trout_predictions_total", `tier="nn"`)
	out["resilience.fallback_ratio"] = num(ratio(preds-nn, preds), "ratio")
	adm := run.sum("trout_admission_total")
	shed := adm - run.sum("trout_admission_total", `decision="accepted"`)
	out["resilience.shed_ratio"] = num(ratio(shed, adm), "ratio")
	gc := bracket.sum("trout_runtime_gc_cycles_total")
	out["troutd.gc_cycles_per_kreq"] = num(gc/float64(max(reqs, 1))*1000, "count")
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// machineStamp identifies where and on what a result was measured, so
// results are compared only on the same machine and source.
func machineStamp(root string) map[string]any {
	return map[string]any{
		"nproc":       nproc(),
		"cpu_model":   cpuModel(),
		"go_version":  goVersion(),
		"source_hash": sourceHash(root),
	}
}
