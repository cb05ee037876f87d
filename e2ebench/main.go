// Command e2ebench measures the serving path Kairos actually runs —
// binary-TCP ingress → per-model controller → the registry's "kairos"
// matching policy → wire → exec'd kairosd fleet — under open-loop load,
// and prints the paper's allowable throughput measured live, latency at
// fixed rates, and cost per query. A traced run (-trace 1) instead times
// calls into each layer and prints the per-layer budget.
//
// Usage (from the repository root; run.sh builds kairosd and this
// command first):
//
//	bash e2ebench/run.sh --workload rm2-steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Diagnostics and the
// run's recorded environment go to earlier lines and standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"kairos"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: a workload, its seed and length, and what it
// has measured so far.
type bench struct {
	w       spec
	seed    int64
	seconds float64
	bin     string
	epoch   time.Time
	models  map[string]kairos.Model
	rec     *recorder // nil in untraced runs

	metrics map[string]metric
	env     map[string]any
	// attempted and failed count every query the run sent, set-up queries
	// and probes included.
	attempted, failed int64

	// The shift workload's phase, the index of its first post-shift
	// arrival, and when the shift landed (ns from epoch).
	shiftRun  *phaseRun
	shiftCut  int
	shiftAtNS int64
}

func (b *bench) now() int64 { return time.Since(b.epoch).Nanoseconds() }

func (b *bench) put(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

func main() {
	name := flag.String("workload", "", "workload: rm2-steady, path-saturate or mix-shift")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 40, "measured wall seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	bin := flag.String("kairosd", "", "kairosd binary the fleet is exec'd from")
	commit := flag.String("commit", "unknown", "source revision, recorded with the result")
	spans := flag.String("spans", "", "traced runs write their spans to this file")
	flag.Parse()

	w, err := specByName(*name)
	if err != nil {
		fatal(err)
	}
	if *bin == "" {
		fatal(fmt.Errorf("-kairosd is required"))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	b := &bench{w: w, seed: *seed, seconds: float64(*seconds), bin: *bin, epoch: time.Now(),
		models: map[string]kairos.Model{}, metrics: map[string]metric{}}
	for _, m := range w.models {
		if b.models[m], err = kairos.ModelByName(m); err != nil {
			fatal(err)
		}
	}
	b.env = map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "traced": *trace == 1,
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": *commit, "time_scale": w.timeScale, "models": w.models, "budget_usd_hr": w.budget,
	}

	if *trace == 1 {
		b.rec = newRecorder(b.epoch)
		err = b.runTraced(*spans)
	} else {
		err = b.runUntraced()
	}
	res := result{Correct: err == nil, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	envLine, _ := json.Marshal(map[string]any{"env": b.env})
	fmt.Println(string(envLine))
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if err != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}
