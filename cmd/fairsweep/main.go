// Command fairsweep runs the bound-certifying parameter sweep: a
// deterministic grid over (protocol family, payoff vector γ, party
// count n, corruption threshold t, attacker — including an abort-round
// sweep — and cost function), certifying every cell against the paper's
// applicable closed-form bound. Any breach fails the sweep with exit
// code 1.
//
// Usage:
//
//	fairsweep [-checkpoint F] [-families LIST] [-n LIST] [-t LIST] [-p LIST]
//	          [-runs N | -target-hw W -delta D] [-sup N] [-slack S]
//	          [-seed S] [-parallel P] [-no-abort-sweep] [-quiet] [-v]
//
// With -checkpoint, every record is streamed to a JSONL file as it is
// produced; re-running the same command against an existing checkpoint
// resumes after the last complete record and produces byte-identical
// output to an uninterrupted run.
//
// Distributed modes (the sweep fabric, internal/fabric):
//
//	fairsweep -coordinator ADDR -workers N [...spec flags...]
//	    serve the sweep as a fabric coordinator: listen on ADDR, lease
//	    cell ranges to joining workers, survive worker crashes, and
//	    merge a certified report byte-identical to a local run.
//	fairsweep -worker -join ADDR [-lease-ttl D]
//	    join a coordinator as a worker (spec flags are ignored — the
//	    spec arrives over the wire and is verified by grid fingerprint).
//	fairsweep -fabric N [...spec flags...]
//	    run coordinator plus N in-process workers on loopback — the
//	    full lease protocol over real TCP in one process.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/service"
	"repro/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// parseInts parses a comma-separated integer list ("2,3,5").
func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseGammas parses a semicolon-separated list of payoff vectors, each
// four comma-separated components γ00,γ01,γ10,γ11.
func parseGammas(s string) ([]core.Payoff, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []core.Payoff
	for _, vec := range strings.Split(s, ";") {
		parts := strings.Split(vec, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("bad payoff vector %q: want γ00,γ01,γ10,γ11", vec)
		}
		var g [4]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("bad payoff vector %q: %w", vec, err)
			}
			g[i] = v
		}
		out = append(out, core.Payoff{G00: g[0], G01: g[1], G10: g[2], G11: g[3]})
	}
	return out, nil
}

// fabricOptions selects fairsweep's distributed modes (all off by
// default; see the package comment).
type fabricOptions struct {
	coordinator string        // -coordinator: listen address, "" = off
	workers     int           // -workers: expected worker count
	worker      bool          // -worker: run as a joining worker
	join        string        // -join: coordinator address to join
	local       int           // -fabric: in-process worker count, 0 = off
	leaseTTL    time.Duration // -lease-ttl: failure-detection horizon
}

// parseSpec builds the sweep spec from the command line. Overrides apply
// only when their flag was explicitly given (fs.Visit), so explicit
// zeros — notably -seed 0 and -runs 0 (adaptive) — are honored.
func parseSpec(args []string) (spec sweep.Spec, checkpoint string, quiet, verbose bool, fab fabricOptions, err error) {
	fs := flag.NewFlagSet("fairsweep", flag.ContinueOnError)
	families := fs.String("families", "", "comma-separated protocol families (default: all)")
	gammas := fs.String("gammas", "", "semicolon-separated payoff vectors γ00,γ01,γ10,γ11 (default: standard grid)")
	ns := fs.String("n", "", "comma-separated party counts (default: 2,3,4,5)")
	ts := fs.String("t", "", "comma-separated corruption thresholds (default: all 1..n-1)")
	ps := fs.String("p", "", "comma-separated Gordon–Katz p values (default: 2,4,8)")
	costs := fs.String("costs", "", "comma-separated cost functions: zero,optimal (default: both)")
	est := cliflags.RegisterEstimation(fs, cliflags.EstimationSpec{
		RunsUsage:     "flat Monte-Carlo runs per cell (0 = adaptive via stats.SamplesFor)",
		Sup:           true,
		SupUsage:      "per-strategy runs for sup-search cells (0 = no sup cells)",
		SeedUsage:     "sweep seed",
		Parallel:      true,
		ParallelUsage: "per-cell estimation workers (0 = one per CPU)",
	})
	targetHW := fs.Float64("target-hw", 0, "adaptive-sampling target certification margin")
	delta := fs.Float64("delta", 0, "sweep-wide false-breach probability budget")
	maxRuns := fs.Int("max-runs", 0, "adaptive run-count ceiling")
	slack := fs.Float64("slack", 0, "flat extra certification tolerance")
	supSearch := fs.Bool("sup-search", false, "compute sup cells with the racing search engine (keyed \"sup-search\")")
	vr := cliflags.RegisterVariance(fs)
	noAbort := fs.Bool("no-abort-sweep", false, "disable the abort-at-round attacker dimension")
	cp := fs.String("checkpoint", "", "JSONL checkpoint path (resumes if the file exists)")
	coordinator := fs.String("coordinator", "", "serve the sweep as a fabric coordinator on this listen address")
	workers := fs.Int("workers", 4, "expected worker count (coordinator mode; sizes the initial range split)")
	workerMode := fs.Bool("worker", false, "run as a fabric worker (requires -join)")
	join := fs.String("join", "", "coordinator address to join (worker mode)")
	fabricN := fs.Int("fabric", 0, "run the sweep on this many in-process fabric workers")
	leaseTTL := fs.Duration("lease-ttl", 3*time.Second, "fabric lease TTL (worker silence past this is death)")
	q := fs.Bool("quiet", false, "suppress per-record progress")
	v := fs.Bool("v", false, "print every record, not just breaches")
	if err := fs.Parse(args); err != nil {
		return sweep.Spec{}, "", false, false, fabricOptions{}, err
	}

	spec = sweep.DefaultSpec()
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })

	if given["families"] {
		spec.Families = splitList(*families)
	}
	if given["gammas"] {
		if spec.Gammas, err = parseGammas(*gammas); err != nil {
			return sweep.Spec{}, "", false, false, fabricOptions{}, err
		}
	}
	if given["n"] {
		if spec.Ns, err = parseInts(*ns); err != nil {
			return sweep.Spec{}, "", false, false, fabricOptions{}, err
		}
	}
	if given["t"] {
		if spec.Ts, err = parseInts(*ts); err != nil {
			return sweep.Spec{}, "", false, false, fabricOptions{}, err
		}
	}
	if given["p"] {
		if spec.Ps, err = parseInts(*ps); err != nil {
			return sweep.Spec{}, "", false, false, fabricOptions{}, err
		}
	}
	if given["costs"] {
		spec.Costs = splitList(*costs)
	}
	if est.Given("runs") {
		spec.Runs = est.Runs
	}
	if given["target-hw"] {
		spec.TargetHW = *targetHW
	}
	if given["delta"] {
		spec.Delta = *delta
	}
	if given["max-runs"] {
		spec.MaxRuns = *maxRuns
	}
	if est.Given("sup") {
		spec.SupRuns = est.Sup
	}
	if *supSearch {
		spec.SupSearch = true
	}
	if given["slack"] {
		spec.Slack = *slack
	}
	if est.Given("seed") {
		spec.Seed = est.Seed
	}
	if est.Given("parallel") {
		spec.Parallelism = est.Parallel
	}
	if *noAbort {
		spec.AbortSweep = false
	}
	if vr.PairedSeeds {
		spec.PairedSeeds = true
	}
	if vr.ControlVariates {
		spec.ControlVariates = true
	}
	fab = fabricOptions{
		coordinator: *coordinator, workers: *workers,
		worker: *workerMode, join: *join,
		local: *fabricN, leaseTTL: *leaseTTL,
	}
	return spec, *cp, *q, *v, fab, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run(args []string) int {
	spec, checkpoint, quiet, verbose, fab, err := parseSpec(args)
	if err != nil {
		return 2
	}
	if fab.worker {
		return runWorker(fab)
	}
	if fab.coordinator != "" || fab.local > 0 {
		if spec.PairedSeeds {
			// Paired delta records reduce two cells' per-run event logs at
			// once; range workers only hold their own cells' logs.
			fmt.Fprintln(os.Stderr, "fairsweep: -paired-seeds sweeps cannot run on the fabric; run single-machine")
			return 2
		}
		return runFabric(spec, checkpoint, quiet, fab)
	}

	mode := fmt.Sprintf("runs=%d", spec.Runs)
	if spec.Runs == 0 {
		mode = fmt.Sprintf("adaptive target-hw=%g delta=%g", spec.TargetHW, spec.Delta)
	}
	fmt.Printf("fairsweep: families=%v n=%v %s seed=%d\n",
		spec.Families, spec.Ns, mode, spec.Seed)
	if checkpoint != "" {
		fmt.Printf("fairsweep: checkpoint %s\n", checkpoint)
	}

	progress := func(done, total int, rec sweep.Record, resumed bool) {
		if quiet {
			return
		}
		if !rec.OK || verbose {
			printRecord(done, total, rec, resumed)
		}
	}
	pool := service.New(service.Config{Workers: 1, CacheSize: -1})
	defer pool.Close()
	job, err := pool.Submit(service.SweepParams{Spec: spec},
		service.WithCheckpoint(checkpoint), service.WithProgress(progress))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fairsweep:", err)
		return 1
	}
	res, err := job.Wait()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fairsweep:", err)
		return 1
	}
	return printSummary(res.Sweep)
}

// printSummary renders the certified summary's verdict and returns the
// process exit code — shared by the local and fabric paths so both
// report identically.
func printSummary(sum *sweep.Summary) int {
	for _, msg := range sum.Skipped {
		fmt.Printf("skipped: %s\n", msg)
	}
	if sum.Resumed > 0 {
		fmt.Printf("resumed: %d of %d records from checkpoint\n", sum.Resumed, len(sum.Records))
	}
	fmt.Printf("records: %d  checks: %d  breaches: %d\n",
		len(sum.Records), sum.TotalChecks, len(sum.Breaches))
	if !sum.OK() {
		for _, br := range sum.Breaches {
			printRecord(0, 0, br, false)
		}
		fmt.Println("RESULT: BOUND BREACH")
		return 1
	}
	fmt.Println("RESULT: all cells certified against the paper's bounds")
	return 0
}

// runWorker joins a coordinator and computes leases until the sweep
// completes (or the coordinator declares this worker dead).
func runWorker(fab fabricOptions) int {
	if fab.join == "" {
		fmt.Fprintln(os.Stderr, "fairsweep: -worker requires -join ADDR")
		return 2
	}
	fmt.Printf("fairsweep: worker joining %s (lease-ttl %s)\n", fab.join, fab.leaseTTL)
	w := fabric.NewWorker(fab.join, fabric.JoinStream(fab.leaseTTL))
	if err := w.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "fairsweep: worker:", err)
		return 1
	}
	fmt.Println("fairsweep: worker done")
	return 0
}

// runFabric shards the sweep across fabric workers — remote
// (-coordinator) or in-process (-fabric N) — and prints the same
// certified verdict as a local run.
func runFabric(spec sweep.Spec, checkpoint string, quiet bool, fab fabricOptions) int {
	cfg := fabric.Config{
		Spec: spec, Addr: fab.coordinator, Workers: fab.workers,
		LeaseTTL: fab.leaseTTL, Checkpoint: checkpoint,
	}
	if !quiet {
		cfg.OnRecord = func(accepted, total int) {
			if tenth := total / 10; tenth == 0 || accepted%tenth == 0 || accepted == total {
				fmt.Printf("fabric: %d/%d cells certified\n", accepted, total)
			}
		}
	}

	var (
		sum   *sweep.Summary
		stats fabric.Stats
	)
	if fab.coordinator != "" {
		co, err := fabric.NewCoordinator(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fairsweep: coordinator:", err)
			return 1
		}
		fmt.Printf("fairsweep: coordinator on %s awaiting workers (expected %d, lease-ttl %s)\n",
			co.Addr(), cfg.Workers, fab.leaseTTL)
		var err2 error
		sum, stats, err2 = co.Run()
		if err2 != nil {
			fmt.Fprintln(os.Stderr, "fairsweep: coordinator:", err2)
			return 1
		}
	} else {
		fmt.Printf("fairsweep: in-process fabric, %d workers (lease-ttl %s)\n", fab.local, fab.leaseTTL)
		var err error
		sum, stats, err = fabric.RunLocal(cfg, fab.local)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fairsweep: fabric:", err)
			return 1
		}
	}
	fmt.Printf("fabric: workers=%d deaths=%d steals=%d requeues=%d duplicates=%d  %.1f cells/s\n",
		stats.Joined, stats.Deaths, stats.Steals, stats.Requeues,
		stats.DuplicateRecords, stats.CellsPerSec)
	return printSummary(sum)
}

// printRecord renders one record's certifications on a single line.
func printRecord(done, total int, rec sweep.Record, resumed bool) {
	var b strings.Builder
	if total > 0 {
		fmt.Fprintf(&b, "[%d/%d] ", done, total)
	}
	fmt.Fprintf(&b, "%s %s γ=(%g,%g,%g,%g) n=%d", rec.Kind, rec.Family,
		rec.Gamma[0], rec.Gamma[1], rec.Gamma[2], rec.Gamma[3], rec.N)
	if rec.Kind == "cell" {
		fmt.Fprintf(&b, " t=%d adv=%s cost=%s", rec.T, rec.Adv, rec.Cost)
		if rec.P > 0 {
			fmt.Fprintf(&b, " p=%d", rec.P)
		}
	}
	fmt.Fprintf(&b, " mean=%.4f±%.4f", rec.Mean, rec.HalfWidth)
	for _, ck := range rec.Checks {
		status := "ok"
		if !ck.OK {
			status = "BREACH"
		}
		fmt.Fprintf(&b, "  %s %s %.4f [%s]", ck.Name, ck.Dir, ck.Bound, status)
	}
	if resumed {
		b.WriteString("  (resumed)")
	}
	fmt.Println(b.String())
}
