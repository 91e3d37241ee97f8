package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	trout "repro"
	"repro/internal/features"
	"repro/internal/livestate"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/scaling"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// tracer keeps spans in memory for the whole traced run; they are written
// out as JSONL when it ends.
type tracer struct {
	base  time.Time
	spans []span
	next  uint64
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// start opens a span under parent (0 = a new root, which starts a trace).
func (t *tracer) start(name string, parent *span) *span {
	t.next++
	s := span{ID: t.next, Name: name, Trace: t.next}
	if parent != nil {
		s.Parent, s.Trace = parent.ID, parent.Trace
	}
	s.Start = t.now()
	t.spans = append(t.spans, s)
	return &t.spans[len(t.spans)-1]
}

// end closes the span opened as the id-th; spans are stored by value, so
// it is addressed by ID rather than by a pointer that append may move.
func (t *tracer) end(id uint64) { t.spans[id-1].End = t.now() }

// timed runs fn inside a child span of parent.
func (t *tracer) timed(name string, parent uint64, fn func()) {
	var p *span
	if parent != 0 {
		p = &t.spans[parent-1]
	}
	id := t.start(name, p).ID
	fn()
	t.end(id)
}

func (t *tracer) root(name string) uint64 { return t.start(name, nil).ID }

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations collects, per span name, each span's duration in µs.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
	}
	return out
}

// discardRW is a reusable ResponseWriter that keeps only the status.
type discardRW struct {
	h    http.Header
	code int
}

func (w *discardRW) Header() http.Header { return w.h }
func (w *discardRW) WriteHeader(c int)   { w.code = c }
func (w *discardRW) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}
func (w *discardRW) reset() { clear(w.h); w.code = 0 }

// heapAllocs reads the process's cumulative heap allocation count.
func heapAllocs(ss []metrics.Sample) uint64 {
	metrics.Read(ss)
	return ss[0].Value.Uint64() + ss[1].Value.Uint64()
}

// Traced-run sizes: requests replayed per workload shape.
const (
	tracedPredicts      = 1000
	tracedStormPredicts = 200
	tracedBatches       = 24
	tracedStormBatches  = 6
	tracedIngest        = 200 // ingest batches replayed on the frozen workloads
	middlewareCalls     = 2000
	middlewareRounds    = 15
)

// runTraced rebuilds the served state in-process and replays the
// workload's inputs through the handler and each layer's public function,
// each inside its own span.
func runTraced(w *workload, s *session, c *corpus, lowestRungP50Ms float64, env *runEnv) (map[string]metric, error) {
	in := s.in
	b, err := trout.LoadBundleFile(c.bundlePath)
	if err != nil {
		return nil, err
	}
	// troutd serves from memory; the in-process store keeps a WAL on the
	// checkout's disk so Store.Apply and Store.Sync are measured with
	// their durability work.
	store, err := livestate.OpenStore(livestate.StoreOptions{Dir: filepath.Join(env.dir, "traced-wal")})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	logger, err := obs.NewLogger(io.Discard, "info", "json")
	if err != nil {
		return nil, err
	}
	svc, err := trout.NewServiceWith(b, nil, trout.ServiceConfig{Live: store, FastInference: true, Logger: logger})
	if err != nil {
		return nil, err
	}
	h := svc.Handler()
	eng := store.Engine()
	tr := &tracer{base: time.Now()}

	// State: the same prefix (and storm) troutd was given.
	state := append(append([]livestate.Event(nil), c.events[:in.cut]...), in.storm...)
	for i := 0; i < len(state); i += postChunk {
		for _, ev := range state[i:min(i+postChunk, len(state))] {
			if err := store.Apply(ev); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
		if err := store.Sync(); err != nil {
			return nil, err
		}
	}

	rw := &discardRW{h: http.Header{}}
	// serve times only the handler: the request is built before the span.
	serve := func(name string, root uint64, path string, body []byte) error {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rw.reset()
		tr.timed(name, root, func() { h.ServeHTTP(rw, req) })
		if rw.code != http.StatusOK {
			return fmt.Errorf("in-process %s: status %d", path, rw.code)
		}
		return nil
	}
	evNext := 0
	// ingest applies the next ingest batch and syncs, each call in a span
	// under root (root 0 records nothing).
	ingest := func(root uint64) error {
		if evNext >= len(in.ingest) {
			return fmt.Errorf("traced ingest ran out of events")
		}
		step := func(name string, fn func() error) error {
			if root == 0 {
				return fn()
			}
			var err error
			tr.timed(name, root, func() { err = fn() })
			return err
		}
		for _, ev := range in.ingest[evNext] {
			if err := step("livestate.apply", func() error { return store.Apply(ev) }); err != nil {
				return err
			}
		}
		evNext++
		return step("livestate.wal_sync", store.Sync)
	}
	atNow := func() int64 {
		if w.eventRate > 0 {
			return eng.Now()
		}
		return in.at
	}

	nPredict, nBatch := tracedPredicts, tracedBatches
	if w.storm > 0 {
		nPredict, nBatch = tracedStormPredicts, tracedStormBatches
	}
	var active []float64
	xm := tensor.Get(1, b.Model.NumInputs)
	defer tensor.Put(xm)

	predictOnce := func(i int) error {
		if w.eventRate > 0 {
			// Ingest batches between predicts, so that every predict sees a
			// new engine version, as in the nominal mix.
			for k := 0; k < 2; k++ {
				r := tr.root("ingest")
				if err := ingest(r); err != nil {
					return err
				}
				tr.end(r)
			}
		}
		at := atNow()
		target := in.targets[i%len(in.targets)]
		body := predictBody(at, target)
		root := tr.root("request")
		if err := serve("trout.handler", root, "/predict", body); err != nil {
			return err
		}
		target.Submit, target.Eligible = at, at
		var snap *features.Snapshot
		tr.timed("livestate.snapshot", root, func() { snap = eng.SnapshotAt(target, at) })
		active = append(active, float64(len(snap.Pending)+len(snap.Running)))
		var row []float64
		var err error
		tr.timed("features.featurize", root, func() { row, err = features.SnapshotRow(snap, &b.Cluster, b.Runtime) })
		if err != nil {
			return err
		}
		same := sameQueue(snap)
		tr.timed("features.runtime_forest", root, func() {
			tot := b.Cluster.Totals(target.Partition)
			for k := range same {
				_ = b.Runtime.PredictSeconds(same[k], tot)
			}
			_ = b.Runtime.PredictSeconds(&snap.Target, tot)
		})
		tr.timed("slurmsim.totals", root, func() {
			for range same {
				_ = b.Cluster.Totals(target.Partition)
			}
			_ = b.Cluster.Totals(target.Partition)
		})
		x := xm.Data
		tr.timed("scaling.scale", root, func() { scaling.TransformInto(b.Model.Scaler, x, row) })
		tr.timed("nn.classify", root, func() { _ = b.Model.Classifier.Predict1(x) })
		tr.timed("nn.regress", root, func() { _ = b.Model.Regressor.Predict1(x) })
		tr.end(root)
		return nil
	}
	for i := 0; i < nPredict; i++ {
		if err := predictOnce(i); err != nil {
			return nil, err
		}
	}

	// Untraced pass over the same request shapes: only a clock pair and the
	// heap-allocation counter around each handler call.
	ss := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	var untraced []float64
	var allocs uint64
	for i := 0; i < nPredict; i++ {
		if w.eventRate > 0 {
			for k := 0; k < 2; k++ {
				if err := ingest(0); err != nil {
					return nil, err
				}
			}
		}
		body := predictBody(atNow(), in.targets[i%len(in.targets)])
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
		rw.reset()
		a0 := heapAllocs(ss)
		t0 := time.Now()
		h.ServeHTTP(rw, req)
		untraced = append(untraced, float64(time.Since(t0))/1e3)
		allocs += heapAllocs(ss) - a0
		if rw.code != http.StatusOK {
			return nil, fmt.Errorf("untraced /predict: status %d", rw.code)
		}
	}

	// Batches.
	for i := 0; i < nBatch; i++ {
		k := i % len(in.batches)
		at := atNow()
		jobs := make([]trace.Job, batchJobs)
		for j, t := range in.batchOf[k] {
			jobs[j] = in.targets[t]
		}
		body := batchBody(at, jobs)
		root := tr.root("batch_request")
		if err := serve("trout.batch_handler", root, "/predict/batch", body); err != nil {
			return nil, err
		}
		rows := make([][]float64, 0, len(jobs))
		for _, j := range jobs {
			j.Submit, j.Eligible = at, at
			row, err := features.SnapshotRow(eng.SnapshotAt(j, at), &b.Cluster, b.Runtime)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		tr.timed("core.batch_nn", root, func() { _ = b.Model.PredictBatch(rows) })
		tr.end(root)
	}

	// Frozen workloads replay ingest batches last, as their probe did.
	if w.eventRate == 0 {
		for i := 0; i < tracedIngest; i++ {
			r := tr.root("ingest")
			if err := ingest(r); err != nil {
				return nil, err
			}
			tr.end(r)
		}
	}

	if err := tr.write(env.spans); err != nil {
		return nil, err
	}
	d := tr.durations()
	med := func(name string) float64 { return median(d[name]) }
	self := selfTimes(tr.spans)
	var rootSelf []float64
	for _, sp := range tr.spans {
		if sp.Parent == 0 && sp.Name == "request" {
			rootSelf = append(rootSelf, float64(self[sp.ID])/1e3)
		}
	}
	handler := med("trout.handler")
	out := map[string]metric{
		"trout.handler_us":           us(handler),
		"trout.handler_untraced_us":  us(median(untraced)),
		"trace.overhead_pct":         num((handler/median(untraced)-1)*100, "%"),
		"trace.root_self_us":         us(median(rootSelf)),
		"trout.batch_handler_us":     us(med("trout.batch_handler")),
		"trout.allocs_per_req":       num(float64(allocs)/float64(nPredict), "count"),
		"livestate.snapshot_us":      us(med("livestate.snapshot")),
		"livestate.active_jobs":      num(median(active), "count"),
		"livestate.apply_us":         us(med("livestate.apply")),
		"livestate.wal_sync_us":      us(med("livestate.wal_sync")),
		"features.featurize_us":      us(med("features.featurize")),
		"features.handler_share":     num(med("features.featurize")/handler, "ratio"),
		"features.runtime_forest_us": us(med("features.runtime_forest")),
		"slurmsim.totals_us":         us(med("slurmsim.totals")),
		"scaling.scale_us":           us(med("scaling.scale")),
		"nn.classify_us":             us(med("nn.classify")),
		"nn.regress_us":              us(med("nn.regress")),
		"core.batch_nn_us":           us(med("core.batch_nn")),
		"http.overhead_us":           us(lowestRungP50Ms*1e3 - handler),
	}
	for k, v := range middlewareCosts() {
		out[k] = v
	}
	return out, nil
}

// sameQueue lists the pending and running jobs SnapshotRow walks for the
// target: those in its partition other than itself.
func sameQueue(snap *features.Snapshot) []*trace.Job {
	var out []*trace.Job
	for _, set := range [][]trace.Job{snap.Pending, snap.Running} {
		for i := range set {
			if o := &set[i]; o.Partition == snap.Target.Partition && o.ID != snap.Target.ID {
				out = append(out, o)
			}
		}
	}
	return out
}

// middlewareCosts times each middleware's exported constructor wrapped
// around a fixed trivial handler, net of the bare handler: the median over
// rounds of the mean per-call cost.
func middlewareCosts() map[string]metric {
	trivial := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	reg := obs.NewRegistry()
	logger, _ := obs.NewLogger(io.Discard, "info", "json")
	tracer, _ := obs.NewTracer(obs.TracerConfig{})
	instrument := obs.Instrument(trivial, obs.HTTPOptions{
		Logger:       logger,
		Requests:     reg.CounterVec("bench_requests_total", "", "path", "code"),
		Latency:      reg.Histogram("bench_latency_seconds", "", obs.DefaultLatencyBuckets),
		StageLatency: reg.HistogramVec("bench_stage_seconds", "", obs.DefaultStageBuckets, "stage"),
		Tracer:       tracer,
		SLO:          obs.NewSLOTracker(obs.SLOConfig{}),
	})
	cases := []struct {
		name string
		h    http.Handler
	}{
		{"bare", trivial},
		{"obs.instrument_us", instrument},
		{"resilience.timeout_us", resilience.Timeout(trivial, 10*time.Second, nil)},
		{"resilience.recover_us", resilience.Recover(trivial, nil)},
		{"resilience.maxbytes_us", resilience.MaxBytes(trivial, 8<<20)},
	}
	body := []byte(`{"at":1}`)
	rw := &discardRW{h: http.Header{}}
	per := make(map[string][]float64)
	for round := 0; round < middlewareRounds; round++ {
		for _, c := range cases {
			reqs := make([]*http.Request, middlewareCalls)
			for i := range reqs {
				reqs[i] = httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
			}
			t0 := time.Now()
			for _, r := range reqs {
				rw.reset()
				c.h.ServeHTTP(rw, r)
			}
			per[c.name] = append(per[c.name], float64(time.Since(t0))/1e3/middlewareCalls)
		}
	}
	bare := median(per["bare"])
	out := map[string]metric{}
	for _, c := range cases[1:] {
		out[c.name] = us(median(per[c.name]) - bare)
	}
	return out
}
