package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	trout "repro"
	"repro/internal/core"
	"repro/internal/livestate"
	"repro/internal/trace"
)

// The serving corpus: one tracegen-style trace on AnvilLike(1), used to
// train the bundle and to replay queue state. It is the same for every
// seed on purpose — holdout MAPE over traces of different seeds ranges
// from ~77% to ~160%, far wider than any regression bound, so the seed
// drives what is served (cut instant, request shapes, storm, ingest
// window) and not what is trained.
const (
	corpusJobs = 12000
	corpusSeed = 1
)

// postChunk is the number of events per set-up POST /events.
const postChunk = 4096

// corpus is the outcome of set-up steps 1 and 2.
type corpus struct {
	trace       *trout.Trace
	cluster     *trout.ClusterSpec
	events      []livestate.Event
	bundlePath  string
	holdoutAcc  float64
	holdoutMAPE float64
}

// buildCorpus generates the trace, builds features, trains with an 80/20
// time-ordered holdout, scores the holdout, and saves the bundle.
func buildCorpus(dir string) (*corpus, error) {
	p := trout.DefaultPipeline(corpusJobs, corpusSeed)
	p.Model.Seed = corpusSeed
	tr, cluster, err := p.GenerateTrace()
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	ds, err := p.BuildDataset(tr, cluster)
	if err != nil {
		return nil, fmt.Errorf("build features: %w", err)
	}
	m, fold, err := trout.TrainHoldout(ds, p.Model, 0.2)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	cls := core.EvaluateClassifier(m, ds, fold.Test)
	reg := core.EvaluateRegression(m, ds, fold.Test)
	b, err := trout.NewBundle(m, ds, cluster)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "trout.bundle")
	if err := b.SaveFile(path); err != nil {
		return nil, err
	}
	return &corpus{
		trace: tr, cluster: cluster, events: livestate.EventsFromTrace(tr),
		bundlePath: path, holdoutAcc: cls.Accuracy(), holdoutMAPE: reg.MAPE,
	}, nil
}

// inputs is everything a workload sends, derived from the corpus and the
// seed alone.
type inputs struct {
	cut     int   // events[:cut] form the served state
	at      int64 // prediction instant on the frozen workloads
	storm   []livestate.Event
	targets []trace.Job // distinct hypothetical submissions, cycled

	predict [][]byte // POST /predict bodies, one per target (frozen)
	batches [][]byte // POST /predict/batch bodies
	batchOf [][]int  // target indices of each batch's jobs
	ingest  [][]livestate.Event
	ingestB [][]byte // POST /events bodies, consumed in order
}

// targetActive is the queue depth (pending+running jobs) the served state
// is held near: the calibrated Anvil-like regime. A cut must hold within
// cutSlack of it; candidatePool is how many of the best such cuts the seed
// chooses among.
const (
	targetActive  = 70
	cutSlack      = 8
	candidatePool = 25
)

// activeCounts replays events and returns the pending+running job count
// after each one.
func activeCounts(events []livestate.Event) []int {
	phase := map[int]livestate.EventType{}
	act := make([]int, len(events))
	n := 0
	for i, ev := range events {
		id := ev.ID()
		prev := phase[id]
		switch ev.Type {
		case livestate.EventEligible:
			if prev == livestate.EventSubmit {
				n++
			}
		case livestate.EventEnd, livestate.EventCancel:
			if prev == livestate.EventEligible || prev == livestate.EventStart {
				n--
			}
		}
		phase[id] = ev.Type
		act[i] = n
	}
	return act
}

// chooseCut picks, with rng, an event index in [lo·N, hi·N) at an instant
// boundary where the queue holds targetActive±cutSlack jobs. The trace is
// bursty — over a few thousand events its queue swings between ~20 and
// ~200 jobs — so those cuts are ranked by how far the queue strays from
// targetActive, on average, over the next horizon events a run replays,
// and the seed picks among the candidatePool best. Every seed then serves
// a similar queue depth.
func chooseCut(events []livestate.Event, lo, hi float64, horizon int, rng *rand.Rand) (int, error) {
	act := activeCounts(events)
	type cand struct {
		cut   int
		score float64
	}
	var cands []cand
	from, to := int(lo*float64(len(events))), int(hi*float64(len(events)))
	for cut := max(from, 1); cut < to && cut+horizon <= len(events); cut += 16 {
		if events[cut].Time == events[cut-1].Time {
			continue
		}
		if a := act[cut-1]; a < targetActive-cutSlack || a > targetActive+cutSlack {
			continue
		}
		var dev float64
		for _, a := range act[cut : cut+horizon] {
			dev += math.Abs(float64(a - targetActive))
		}
		cands = append(cands, cand{cut, dev / float64(horizon)})
	}
	if len(cands) < candidatePool {
		return 0, fmt.Errorf("only %d cuts in [%v, %v) hold %d±%d jobs and leave %d events to replay",
			len(cands), lo, hi, targetActive, cutSlack, horizon)
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].score < cands[b].score })
	return cands[rng.Intn(candidatePool)].cut, nil
}

// hypothetical turns a trace record into a would-be submission: shape,
// user and priority are kept, identity and timing are left for the server
// to fill from the request instant.
func hypothetical(j trace.Job) trace.Job {
	return trace.Job{
		User: j.User, Partition: j.Partition,
		ReqCPUs: j.ReqCPUs, ReqMemGB: j.ReqMemGB, ReqNodes: j.ReqNodes, ReqGPUs: j.ReqGPUs,
		TimeLimit: j.TimeLimit, Priority: j.Priority, QOS: j.QOS, Interactive: j.Interactive,
	}
}

// stratified draws n jobs so that each partition gets exactly its share of
// jobs (largest remainder), picking the jobs within a partition with rng.
// Fixing the partition mix keeps the cost of serving the draw — which
// scales with same-partition queue depth — the same for every seed.
func stratified(jobs []trace.Job, n int, rng *rand.Rand) []trace.Job {
	byPart := map[string][]trace.Job{}
	var names []string
	for _, j := range jobs {
		if _, ok := byPart[j.Partition]; !ok {
			names = append(names, j.Partition)
		}
		byPart[j.Partition] = append(byPart[j.Partition], j)
	}
	sort.Strings(names)
	type share struct {
		name string
		n    int
		rem  float64
	}
	shares := make([]share, len(names))
	left := n
	for i, nm := range names {
		exact := float64(n) * float64(len(byPart[nm])) / float64(len(jobs))
		shares[i] = share{nm, int(exact), exact - math.Floor(exact)}
		left -= int(exact)
	}
	sort.SliceStable(shares, func(a, b int) bool { return shares[a].rem > shares[b].rem })
	for i := 0; i < left; i++ {
		shares[i].n++
	}
	sort.Slice(shares, func(a, b int) bool { return shares[a].name < shares[b].name })
	out := make([]trace.Job, 0, n)
	for _, sh := range shares {
		src := byPart[sh.name]
		for k := 0; k < sh.n; k++ {
			out = append(out, src[rng.Intn(len(src))])
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// makeStorm resamples n submissions from the trace — exactly 70% in
// shared, the rest spread like the trace's other partitions — and returns
// their submit+eligible events at instant at, with IDs past every trace ID.
func makeStorm(tr *trout.Trace, n int, at int64, rng *rand.Rand) []livestate.Event {
	var shared, other []trace.Job
	maxID := 0
	for _, j := range tr.Jobs {
		maxID = max(maxID, j.ID)
		if j.Partition == "shared" {
			shared = append(shared, j)
		} else {
			other = append(other, j)
		}
	}
	nShared := n * 7 / 10
	picks := append(stratified(shared, nShared, rng), stratified(other, n-nShared, rng)...)
	evs := make([]livestate.Event, 0, 2*n)
	for i, src := range picks {
		j := hypothetical(src)
		j.ID = maxID + 1 + i
		j.Submit = at
		evs = append(evs,
			livestate.Event{Type: livestate.EventSubmit, Time: at, Job: &j},
			livestate.Event{Type: livestate.EventEligible, Time: at, JobID: j.ID})
	}
	return evs
}

func predictBody(at int64, j trace.Job) []byte {
	b, _ := json.Marshal(struct {
		At  int64     `json:"at"`
		Job trace.Job `json:"job"`
	}{at, j})
	return b
}

func batchBody(at int64, jobs []trace.Job) []byte {
	b, _ := json.Marshal(struct {
		At   int64       `json:"at"`
		Jobs []trace.Job `json:"jobs"`
	}{at, jobs})
	return b
}

func eventsBody(evs []livestate.Event) []byte {
	var buf bytes.Buffer
	_ = livestate.WriteEvents(&buf, evs)
	return buf.Bytes()
}

// makeInputs derives a workload's inputs from the corpus and the seed;
// horizon is how many events after the cut a run may replay.
func makeInputs(w *workload, c *corpus, seed int64, horizon int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	cut, err := chooseCut(c.events, w.cutLo, w.cutHi, horizon, rng)
	if err != nil {
		return nil, err
	}
	in.cut = cut
	in.at = c.events[cut-1].Time
	if w.storm > 0 {
		in.storm = makeStorm(c.trace, w.storm, in.at, rng)
	}
	// Targets are the shapes of jobs the trace submits after the cut —
	// what users are about to ask about.
	var future []trace.Job
	for _, j := range c.trace.Jobs {
		if j.Submit > in.at {
			future = append(future, j)
		}
	}
	if len(future) == 0 {
		return nil, fmt.Errorf("no submissions after the cut")
	}
	in.targets = stratified(future, w.pool, rng)
	in.predict = make([][]byte, w.pool)
	for i := range in.targets {
		in.targets[i] = hypothetical(in.targets[i])
		in.predict[i] = predictBody(in.at, in.targets[i])
	}
	for b := 0; b < 32; b++ {
		idx := make([]int, batchJobs)
		jobs := make([]trace.Job, batchJobs)
		for k := range idx {
			idx[k] = rng.Intn(len(in.targets))
			jobs[k] = in.targets[idx[k]]
		}
		in.batchOf = append(in.batchOf, idx)
		in.batches = append(in.batches, batchBody(in.at, jobs))
	}
	rest := c.events[cut:]
	for i := 0; i+ingestBatch <= len(rest); i += ingestBatch {
		evs := rest[i : i+ingestBatch]
		in.ingest = append(in.ingest, evs)
		in.ingestB = append(in.ingestB, eventsBody(evs))
	}
	return in, nil
}

// postEvents POSTs events in postChunk-sized batches and checks that each
// ack reports every event applied.
func postEvents(addr string, evs []livestate.Event) error {
	for i := 0; i < len(evs); i += postChunk {
		chunk := evs[i:min(i+postChunk, len(evs))]
		resp, err := http.Post("http://"+addr+"/events", "application/x-ndjson", bytes.NewReader(eventsBody(chunk)))
		if err != nil {
			return err
		}
		var ack struct {
			Applied  int `json:"applied"`
			Rejected int `json:"rejected"`
			BadLines int `json:"bad_lines"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /events: status %d: %v", resp.StatusCode, err)
		}
		if ack.Applied != len(chunk) || ack.Rejected != 0 || ack.BadLines != 0 {
			return fmt.Errorf("POST /events: sent %d, ack %+v", len(chunk), ack)
		}
	}
	return nil
}

// setUp runs the four set-up steps once and returns the ready daemon and
// the wall time the steps took. in is derived on the first call (outside
// the timed steps) and reused by later calls.
func setUp(w *workload, env *runEnv, rep int, seed int64, in **inputs) (*daemon, *corpus, float64, error) {
	dir := filepath.Join(env.dir, "setup"+strconv.Itoa(rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	c, err := buildCorpus(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	elapsed := time.Since(t0)
	if *in == nil {
		if *in, err = makeInputs(w, c, seed, w.horizon(env.total)); err != nil {
			return nil, nil, 0, err
		}
	}
	t1 := time.Now()
	d, err := startDaemon(env.troutd, c.bundlePath, os.DevNull)
	if err != nil {
		return nil, nil, 0, err
	}
	state := append(append([]livestate.Event(nil), c.events[:(*in).cut]...), (*in).storm...)
	if err := postEvents(d.addr, state); err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	if err := d.waitReady(10 * time.Second); err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	elapsed += time.Since(t1)
	return d, c, elapsed.Seconds(), nil
}
