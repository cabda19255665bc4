// Command perfbench is the repository benchmark: fixed-work workloads
// over the estimator stack, each printing its end-to-end metrics and
// checking every output it gets, plus a traced mode that times the
// calls into each layer from outside and reports per-layer metrics.
//
// Run it through run.py, which builds this package and fairnessd from
// the same checkout first:
//
//	python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and the layer ladder.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outcome is what one workload pass measured. A pass repeats its
// fixed work in rounds, each from a fresh set-up, and the end-to-end
// metrics are medians over rounds.
type outcome struct {
	attempted, failed int
	// setups are the set-up times; setup_s is their median.
	setups []time.Duration
	rounds []round
	// units is one round's throughput numerator: requests, Monte-Carlo
	// runs or cells finished.
	units float64
	// mcRuns is the exact number of Monte-Carlo runs one round spent.
	mcRuns int64
	// meta carries workload-specific facts printed beside the result.
	meta map[string]any
}

// round is one repetition of the fixed work.
type round struct {
	job     time.Duration   // wall time of the round's work
	items   []time.Duration // per-item latencies: request, job or cell
	peakRSS float64         // MB, of the process doing the work
}

func (o *outcome) jobs() []time.Duration {
	out := make([]time.Duration, len(o.rounds))
	for i, r := range o.rounds {
		out[i] = r.job
	}
	return out
}

// itemQuantile is the median over rounds of each round's q-quantile.
func (o *outcome) itemQuantile(q float64) float64 {
	var vs []float64
	for _, r := range o.rounds {
		vs = append(vs, quantile(msAll(r.items), q))
	}
	return median(vs)
}

// env is one pass's configuration.
type env struct {
	seed    int64
	seconds int
	rounds  int
	workdir string
	daemon  string // fairnessd binary
	// tr is nil on untraced passes. On traced passes the workload
	// records spans and replays sampled items of its last round into
	// layers.
	tr     *Tracer
	layers map[string]float64
}

type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"serve-mixed", runServe},
	{"nsfe-estimate", runNSFE},
	{"sweep-certify", runSweepCertify},
}

// endToEnd lists the untraced metrics with their units, in the order
// BENCHMARK.json declares them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_s", "s"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"mc_runs", "count"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "nominal run length; sizes the fixed work")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	daemon := fs.String("fairnessd", "", "fairnessd binary built from the same checkout")
	workdir := fs.String("workdir", "", "scratch directory for checkpoints and spans")
	commit := fs.String("commit", "unknown", "source identity printed in the run metadata")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if *workdir == "" {
		return errors.New("-workdir is required")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	e := &env{seed: *seed, seconds: *seconds, rounds: rounds, workdir: *workdir, daemon: *daemon}

	meta := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": *commit,
	}
	var res result
	if *trace == 0 {
		o, err := w.run(e)
		if err != nil {
			return err
		}
		res = endToEndResult(o)
		describe(meta, o)
	} else {
		var err error
		res, err = tracedResult(w, e, meta)
		if err != nil {
			return err
		}
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

const (
	// rounds is how many times an untraced pass repeats its fixed work.
	rounds = 5
	// clients is the number of closed-loop client connections.
	clients = 2
	// engineWorkers × per-job parallelism (1) is the number of engine
	// goroutines. It is below nproc (2 on the reference box): a second
	// CPU-bound thread there measured about three times the run-to-run
	// spread of one, so engine work stays on one CPU and the other is
	// left to clients, HTTP handling and the garbage collector.
	engineWorkers = 1
)

func endToEndResult(o *outcome) result {
	job := median(secAll(o.jobs()))
	var rss []float64
	for _, r := range o.rounds {
		rss = append(rss, r.peakRSS)
	}
	v := map[string]float64{
		"setup_s":          median(secAll(o.setups)),
		"job_s":            job,
		"throughput_per_s": o.units / job,
		"p50_ms":           o.itemQuantile(0.50),
		"p90_ms":           o.itemQuantile(0.90),
		"peak_rss_mb":      median(rss),
		"mc_runs":          float64(o.mcRuns),
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return res
}

// describe adds the evidence behind the numbers: the items per round
// behind each percentile, the failure ratio and the round count.
func describe(meta map[string]any, o *outcome) {
	n := len(o.rounds[0].items)
	meta["rounds"] = len(o.rounds)
	meta["items_per_round"] = n
	meta["beyond_p50"] = beyond(n, 0.50)
	meta["beyond_p90"] = beyond(n, 0.90)
	meta["setups"] = len(o.setups)
	meta["job_s_rounds"] = secAll(o.jobs())
	meta["fail_ratio"] = float64(o.failed) / float64(max(o.attempted, 1))
	for k, v := range o.meta {
		meta[k] = v
	}
}

func secAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// tracedResult runs the workload untraced, then traced with its layer
// ladder, then the substrate probes, and reports every per-layer
// metric. Layers a workload does not pass through report 0.
func tracedResult(w *workload, e *env, meta map[string]any) (result, error) {
	plain, err := w.run(e)
	if err != nil {
		return result{}, err
	}
	traced := *e
	traced.rounds = 1
	traced.tr = NewTracer()
	traced.layers = map[string]float64{}
	o, err := w.run(&traced)
	if err != nil {
		return result{}, err
	}
	if err := probeSubstrate(traced.layers); err != nil {
		return result{}, err
	}
	untraced, tracedJob := median(secAll(plain.jobs())), o.rounds[0].job.Seconds()
	traced.layers["trace.overhead_ratio"] = tracedJob / untraced
	describe(meta, o)
	meta["untraced_job_s"] = untraced
	meta["traced_job_s"] = tracedJob
	spansPath := filepath.Join(e.workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, e.seed))
	if err := traced.tr.WriteJSONL(spansPath); err != nil {
		return result{}, err
	}
	meta["spans"] = spansPath
	spans := traced.tr.Spans()
	meta["span_count"] = len(spans)
	meta["ladders"], meta["ladders_not_summing"] = UnbalancedLadders(spans)

	res := result{
		Correct:   plain.failed == 0 && o.failed == 0,
		Attempted: plain.attempted + o.attempted,
		Failed:    plain.failed + o.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: traced.layers[m.name], Unit: m.unit}
	}
	var unknown []string
	for k := range traced.layers {
		if _, ok := res.Metrics[k]; !ok {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return result{}, fmt.Errorf("undeclared per-layer metrics: %v", unknown)
	}
	return res, nil
}
