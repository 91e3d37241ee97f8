package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	trout "repro"
	"repro/internal/livestate"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// oracle answers every request in-process from the same bundle file (fast
// inference on) and an engine fed the same events troutd was fed, so each
// socket answer can be compared bit for bit.
type oracle struct {
	b   *trout.Bundle
	eng *livestate.Engine
	// want[i] is the expected answer for target i at the frozen instant.
	want []expected
}

type expected struct {
	pred    trout.TieredPrediction
	pending int
	running int
}

func newOracle(c *corpus, in *inputs) (*oracle, error) {
	b, err := trout.LoadBundleFile(c.bundlePath)
	if err != nil {
		return nil, err
	}
	if !b.EnableFastInference() {
		return nil, fmt.Errorf("bundle did not compile onto the fast inference path")
	}
	o := &oracle{b: b, eng: livestate.NewEngine()}
	for _, ev := range c.events[:in.cut] {
		if err := o.eng.ApplyEvent(ev); err != nil {
			return nil, fmt.Errorf("oracle replay: %w", err)
		}
	}
	for _, ev := range in.storm {
		if err := o.eng.ApplyEvent(ev); err != nil {
			return nil, fmt.Errorf("oracle storm: %w", err)
		}
	}
	o.want, err = o.answers(in.targets, in.at)
	return o, err
}

// answers computes the expected answer for every target at instant at
// against the oracle engine's current state.
func (o *oracle) answers(targets []trace.Job, at int64) ([]expected, error) {
	out := make([]expected, len(targets))
	for i, t := range targets {
		t.Submit, t.Eligible = at, at
		snap := o.eng.SnapshotAt(t, at)
		p, err := o.b.PredictWithFallback(snap)
		if err != nil {
			return nil, fmt.Errorf("oracle predict target %d: %w", i, err)
		}
		out[i] = expected{pred: p, pending: len(snap.Pending), running: len(snap.Running)}
	}
	return out, nil
}

// apply feeds the oracle engine events troutd acknowledged.
func (o *oracle) apply(evs []livestate.Event) error {
	for _, ev := range evs {
		if err := o.eng.ApplyEvent(ev); err != nil {
			return fmt.Errorf("oracle apply: %w", err)
		}
	}
	return nil
}

type predictAnswer struct {
	Long    bool    `json:"long"`
	Prob    float64 `json:"prob"`
	Minutes float64 `json:"minutes"`
	Tier    string  `json:"tier"`
	Source  string  `json:"snapshot_source"`
	Pending int     `json:"pending_in_snapshot"`
	Running int     `json:"running_in_snapshot"`
}

type batchAnswer struct {
	Source  string `json:"snapshot_source"`
	Pending int    `json:"pending_in_snapshot"`
	Running int    `json:"running_in_snapshot"`
	Results []struct {
		Long    bool    `json:"long"`
		Prob    float64 `json:"prob"`
		Minutes float64 `json:"minutes"`
		Tier    string  `json:"tier"`
		Error   string  `json:"error"`
	} `json:"results"`
}

func samePred(long bool, prob, minutes float64, tier string, w trout.TieredPrediction) bool {
	return long == w.Long && prob == w.Prob && minutes == w.Minutes && tier == w.Tier
}

// checkPredict compares a frozen-state /predict answer with the oracle.
func checkPredict(body []byte, w expected) error {
	var a predictAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	if a.Source != "live" {
		return fmt.Errorf("snapshot_source %q, want live", a.Source)
	}
	if !samePred(a.Long, a.Prob, a.Minutes, a.Tier, w.pred) || a.Pending != w.pending || a.Running != w.running {
		return fmt.Errorf("answer %+v, oracle %+v pending %d running %d", a, w.pred, w.pending, w.running)
	}
	return nil
}

// checkBatch compares a /predict/batch answer item by item with the
// oracle's single-job answers for the same targets.
func checkBatch(body []byte, items []int, want []expected) error {
	var a batchAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	if a.Source != "live" || len(a.Results) != len(items) {
		return fmt.Errorf("batch source %q with %d results for %d jobs", a.Source, len(a.Results), len(items))
	}
	for k, r := range a.Results {
		w := want[items[k]]
		if r.Error != "" || !samePred(r.Long, r.Prob, r.Minutes, r.Tier, w.pred) {
			return fmt.Errorf("batch item %d: %+v, oracle %+v", k, r, w.pred)
		}
		if a.Pending != w.pending || a.Running != w.running {
			return fmt.Errorf("batch snapshot %d/%d, oracle %d/%d", a.Pending, a.Running, w.pending, w.running)
		}
	}
	return nil
}

// checkLivePredict accepts a moving-state /predict answer: a finite
// nn-tier answer from the live engine.
func checkLivePredict(body []byte) error {
	var a predictAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	if a.Tier != resilience.TierNN || a.Source != "live" {
		return fmt.Errorf("tier %q source %q, want nn from live", a.Tier, a.Source)
	}
	if math.IsNaN(a.Prob) || a.Prob < 0 || a.Prob > 1 || math.IsNaN(a.Minutes) || a.Minutes < 0 {
		return fmt.Errorf("out-of-range answer %+v", a)
	}
	return nil
}

type eventsAck struct {
	Applied  int   `json:"applied"`
	Rejected int   `json:"rejected"`
	BadLines int   `json:"bad_lines"`
	Now      int64 `json:"now"`
}

// checkAck requires every sent event applied and none rejected.
func checkAck(body []byte, sent int) (eventsAck, error) {
	var a eventsAck
	if err := json.Unmarshal(body, &a); err != nil {
		return a, err
	}
	if a.Applied != sent || a.Rejected != 0 || a.BadLines != 0 {
		return a, fmt.Errorf("sent %d events, ack %+v", sent, a)
	}
	return a, nil
}

// checkGauges compares troutd's trout_livestate_* and trout_queue_*
// series with the oracle engine's state, in both directions.
func (o *oracle) checkGauges(m metricsText) error {
	st := o.eng.Stats()
	want := map[string]float64{
		"trout_livestate_apply_errors_total": float64(st.ApplyErrors),
		"trout_livestate_tracked_jobs":       float64(st.Tracked),
		"trout_livestate_history_entries":    float64(st.HistoryEntries),
		"trout_livestate_now_seconds":        float64(st.Now),
	}
	for ty, n := range st.Events {
		want[`trout_livestate_events_total{type="`+ty+`"}`] = float64(n)
	}
	for p, pc := range st.Partitions {
		want[`trout_queue_pending{partition="`+p+`"}`] = float64(pc.Pending)
		want[`trout_queue_running{partition="`+p+`"}`] = float64(pc.Running)
	}
	var bad []string
	for k, v := range want {
		if got, ok := m[k]; !ok || got != v {
			bad = append(bad, fmt.Sprintf("%s=%v want %v", k, got, v))
		}
	}
	for k, v := range m {
		for _, fam := range []string{"trout_livestate_events_total{", "trout_queue_pending{", "trout_queue_running{"} {
			if _, ok := want[k]; !ok && v != 0 && strings.HasPrefix(k, fam) {
				bad = append(bad, k+" exported but absent from the oracle")
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("livestate gauges differ from the oracle: %v", bad)
	}
	return nil
}
