// Command perfbench is the TROUT serving benchmark. It builds the serving
// state from a seed, starts troutd as a subprocess with its default flags,
// drives it open-loop over loopback TCP with at most two connections,
// checks every answer against an in-process oracle, and prints the
// end-to-end metrics. With -trace 1 it also replays the same inputs
// in-process through each layer's public functions under spans and prints
// the per-layer metrics instead. See README.md for the workloads and the
// layer → metric → workload map.
//
//	bash perfbench/run.sh --workload live-shallow --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	var (
		root     = flag.String("root", ".", "checkout root (troutd is built into <root>/.bench_build)")
		name     = flag.String("workload", "", "workload: live-shallow, storm-deep or ingest-mixed")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		traceArg = flag.Int("trace", 0, "1 adds the in-process traced run and prints per-layer metrics")
	)
	flag.Parse()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds ≥ 1, -trace 0|1")
		os.Exit(2)
	}
	build := filepath.Join(*root, ".bench_build")
	dir := filepath.Join(build, "runs", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := &runEnv{
		root: *root, dir: dir, troutd: filepath.Join(build, "troutd"), total: time.Duration(*seconds) * time.Second,
		spans: filepath.Join(build, "spans", fmt.Sprintf("%s-%d.jsonl", w.name, *seed)),
	}
	res, err := run(w, *seed, env.total, *traceArg == 1, env)
	_ = os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	detail, _ := json.Marshal(res.detail)
	fmt.Println(string(detail))
	if res.invalid != "" {
		fmt.Fprintln(os.Stderr, "perfbench: invalid run:", res.invalid)
		os.Exit(3)
	}
	last, _ := json.Marshal(res.line)
	fmt.Println(string(last))
	if !res.line.Correct {
		os.Exit(4)
	}
}

// runEnv is where a run keeps its files.
type runEnv struct {
	root   string
	dir    string // per-run scratch, removed at exit
	troutd string
	spans  string        // traced-run span JSONL
	total  time.Duration // measured time per run
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runResult struct {
	line    resultLine
	detail  map[string]any
	invalid string
}

// median of xs (xs is not modified).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ms(x float64) metric               { return metric{x, "ms"} }
func us(x float64) metric               { return metric{x, "us"} }
func num(x float64, unit string) metric { return metric{x, unit} }
