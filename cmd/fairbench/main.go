// Command fairbench measures the Monte-Carlo estimator's throughput and
// writes a machine-readable report (BENCH_estimator.json): ns/run,
// runs/sec, and allocation counts for each workload at parallelism 1, 4,
// and one-per-CPU. The estimates themselves are checked to be
// byte-identical across the parallelism settings (the engine's
// determinism contract), so the numbers compare pure scheduling
// overhead, never different work.
//
// Parallelism settings above the machine's CPU count are skipped (they
// measure oversubscription, not speedup); the skip is recorded in the
// report. The output file keeps a trajectory: each invocation appends
// its report to the history instead of overwriting, so regressions are
// visible across commits. A pre-trajectory single-report file is
// wrapped as the first history entry.
//
// Usage:
//
//	fairbench [-runs N] [-seed S] [-o BENCH_estimator.json]
//	fairbench -fabric [-fabric-workers N] [-fabric-runs R] [-service-o BENCH_service.json]
//	fairbench -search [-min-savings X] [-service-o BENCH_service.json]
//	fairbench -vr [-vr-min-cv X] [-vr-min-crn Y] [-o BENCH_estimator.json]
//
// -fabric benchmarks the distributed sweep fabric instead: the same
// grid is swept single-machine and then across N in-process workers
// (one crashed mid-run by a seeded kill), the checkpoints are verified
// byte-identical, and cells/sec plus recovery-time-after-kill land in
// the fabric section of BENCH_service.json (the selfcheck history
// already there is preserved).
//
// -search benchmarks the best-response search engine: every acceptance
// family is raced to its certified best response and compared against
// exhaustive enumeration of the same space; the savings ratios land in
// the search section of BENCH_service.json, and the run fails if any
// family falls below -min-savings (default 10×) or any certified
// winner disagrees with the comparator.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/adversary"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/protocols/multiparty"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
)

// measurement is one workload × engine × parallelism timing.
type measurement struct {
	// Engine is "compiled" (sim.PlanRunner replay, the default) or
	// "interpreted" (plain sim.Arena via WithCompiledPlans(false)).
	Engine       string  `json:"engine"`
	Parallelism  int     `json:"parallelism"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	NsPerRun     float64 `json:"ns_per_run"`
	RunsPerSec   float64 `json:"runs_per_sec"`
	AllocsPerRun float64 `json:"allocs_per_run"`
	BytesPerRun  float64 `json:"bytes_per_run"`
	Utility      string  `json:"utility"`
}

// workloadReport groups one workload's measurements.
type workloadReport struct {
	Proto        string        `json:"proto"`
	Adversary    string        `json:"adversary"`
	Runs         int           `json:"runs"`
	Seed         int64         `json:"seed"`
	Measurements []measurement `json:"measurements"`
	SpeedupMax   float64       `json:"speedup_max_vs_sequential"`
	// CompiledSpeedup is interpreted ns/run ÷ compiled ns/run, both at
	// parallelism 1: the pure win of plan replay over the interpreter.
	CompiledSpeedup float64 `json:"compiled_speedup_vs_interpreted"`
	// SkippedParallelism lists requested settings above the CPU count.
	SkippedParallelism []int `json:"skipped_parallelism,omitempty"`
}

// report is one fairbench invocation's document.
type report struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GOMAXPROCS is the scheduler's actual worker ceiling — it can differ
	// from CPUs under cgroup limits or an explicit GOMAXPROCS setting,
	// and it, not CPUs, bounds the achievable speedup.
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadReport `json:"workloads,omitempty"`
	// VarianceReduction is set by -vr invocations (which carry no
	// throughput workloads); absent from every other report, so
	// pre-existing trajectory entries keep loading unchanged.
	VarianceReduction *vrReport `json:"variance_reduction,omitempty"`
}

// trajectory is the BENCH_estimator.json document: every invocation's
// report, oldest first.
type trajectory struct {
	History []report `json:"history"`
}

// workload is a protocol × adversary estimation target. samplerInto,
// when set, replaces sampler via core.WithSamplerInto (both must draw
// identically — the engine cross-checks the utilities).
type workload struct {
	name        string
	advName     string
	proto       sim.Protocol
	adv         func() sim.Adversary
	sampler     core.InputSampler
	samplerInto core.InputSamplerInto
}

func workloads() ([]workload, error) {
	fn, err := multiparty.Concat(4, 8)
	if err != nil {
		return nil, err
	}
	uniformN := func(parties, max int) core.InputSampler {
		return func(r *rand.Rand) []sim.Value {
			in := make([]sim.Value, parties)
			for i := range in {
				in[i] = uint64(r.Intn(max))
			}
			return in
		}
	}
	return []workload{
		{
			name: "2sfe-opt", advName: "lock-abort:1",
			proto:   twoparty.New(twoparty.Swap()),
			adv:     func() sim.Adversary { return adversary.NewLockAbort(1) },
			sampler: uniformN(2, 1<<20),
		},
		{
			// The allocation-floor workload: millionaires' inputs and
			// outputs stay below 256, so boxing them into sim.Value is
			// free, and the in-place sampler removes the per-run input
			// slice — the compiled path's ≤2 allocs/run target is pinned
			// here (and in core.TestEstimateAllocsCompiled).
			name: "2sfe-mill", advName: "lock-abort:1",
			proto:   twoparty.New(twoparty.Millionaires()),
			adv:     func() sim.Adversary { return adversary.NewLockAbort(1) },
			sampler: uniformN(2, 200),
			samplerInto: func(r *rand.Rand, dst []sim.Value) []sim.Value {
				return append(dst, uint64(r.Intn(200)), uint64(r.Intn(200)))
			},
		},
		{
			name: "nsfe-opt:4", advName: "lock-abort:1+3",
			proto:   multiparty.NewOptN(fn),
			adv:     func() sim.Adversary { return adversary.NewLockAbort(1, 3) },
			sampler: uniformN(4, 256),
		},
	}, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fairbench:", err)
		os.Exit(1)
	}
}

// loadTrajectory reads an existing output file, accepting both the
// trajectory schema and the pre-trajectory single-report schema (which
// becomes the first history entry). A missing file yields an empty
// trajectory.
func loadTrajectory(path string) (trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return trajectory{}, nil
		}
		return trajectory{}, err
	}
	var tr trajectory
	if err := json.Unmarshal(data, &tr); err == nil && tr.History != nil {
		return tr, nil
	}
	var single report
	if err := json.Unmarshal(data, &single); err == nil && len(single.Workloads) > 0 {
		return trajectory{History: []report{single}}, nil
	}
	return trajectory{}, fmt.Errorf("unrecognized report schema in %s", path)
}

func run(args []string) error {
	fs := flag.NewFlagSet("fairbench", flag.ContinueOnError)
	est := cliflags.RegisterEstimation(fs, cliflags.EstimationSpec{
		Runs:      20000,
		RunsUsage: "Monte-Carlo runs per measurement",
		Seed:      1,
		SeedUsage: "estimation seed",
	})
	out := fs.String("o", "BENCH_estimator.json", "output file")
	fabricBench := fs.Bool("fabric", false, "benchmark the distributed sweep fabric instead of the estimator")
	fabricWorkers := fs.Int("fabric-workers", 4, "in-process fabric workers (-fabric mode)")
	fabricRuns := fs.Int("fabric-runs", 60, "Monte-Carlo runs per sweep cell (-fabric mode)")
	serviceOut := fs.String("service-o", "BENCH_service.json", "fabric/search report file (-fabric and -search modes)")
	searchBench := fs.Bool("search", false, "benchmark the best-response search engine against exhaustive enumeration")
	minSavings := fs.Float64("min-savings", 10, "fail -search mode below this racing-vs-exhaustive savings ratio")
	vrBench := fs.Bool("vr", false, "benchmark the variance-reduction estimators (control variates, CRN pairing)")
	vrMinCV := fs.Float64("vr-min-cv", 3, "fail -vr mode below this control-variate runs-reduction ratio")
	vrMinCRN := fs.Float64("vr-min-crn", 1.5, "fail -vr mode below this CRN paired-delta runs-reduction ratio")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fabricBench {
		return runFabricBench(*fabricWorkers, *fabricRuns, est.Seed, *serviceOut)
	}
	if *searchBench {
		return runSearchBench(*minSavings, est.Seed, *serviceOut)
	}
	if *vrBench {
		return runVRBench(est.Seed, *vrMinCV, *vrMinCRN, *out)
	}

	cpus := runtime.NumCPU()
	requested := []int{1, 4, core.DefaultParallelism()}
	var settings, skipped []int
	for _, par := range requested {
		switch {
		case par > cpus:
			// Oversubscribed workers measure scheduler churn, not the
			// engine; record the skip instead of a misleading number.
			skipped = append(skipped, par)
		case contains(settings, par):
			// A duplicate setting (e.g. one-per-CPU == 1 on a 1-CPU host)
			// would just repeat the measurement.
		default:
			settings = append(settings, par)
		}
	}

	wls, err := workloads()
	if err != nil {
		return err
	}
	rep := report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       cpus,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	gamma := core.StandardPayoff()
	for _, wl := range wls {
		wr := workloadReport{
			Proto: wl.name, Adversary: wl.advName,
			Runs: est.Runs, Seed: est.Seed,
			SkippedParallelism: skipped,
		}
		measure := func(engine string, par int) (measurement, core.UtilityReport, error) {
			opts := []core.Option{core.WithParallelism(par)}
			if engine == "interpreted" {
				opts = append(opts, core.WithCompiledPlans(false))
			}
			sampler := wl.sampler
			if wl.samplerInto != nil {
				opts = append(opts, core.WithSamplerInto(wl.samplerInto))
				sampler = nil
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			r, err := core.EstimateUtility(wl.proto, wl.adv(), gamma, sampler, est.Runs, est.Seed, opts...)
			if err != nil {
				return measurement{}, r, fmt.Errorf("%s %s parallelism %d: %w", wl.name, engine, par, err)
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			m := measurement{
				Engine:       engine,
				Parallelism:  par,
				ElapsedMS:    float64(elapsed.Microseconds()) / 1e3,
				NsPerRun:     float64(elapsed.Nanoseconds()) / float64(est.Runs),
				RunsPerSec:   float64(est.Runs) / elapsed.Seconds(),
				AllocsPerRun: float64(after.Mallocs-before.Mallocs) / float64(est.Runs),
				BytesPerRun:  float64(after.TotalAlloc-before.TotalAlloc) / float64(est.Runs),
				Utility:      r.Utility.String(),
			}
			fmt.Printf("%-12s %-16s %-11s parallelism=%-3d %10.1f ns/run %12.0f runs/s %8.1f allocs/run\n",
				wl.name, wl.advName, engine, par, m.NsPerRun, m.RunsPerSec, m.AllocsPerRun)
			return m, r, nil
		}
		// The interpreted reference at parallelism 1 both anchors the
		// compiled speedup and cross-checks bit-identical utilities.
		interp, baseline, err := measure("interpreted", 1)
		if err != nil {
			return err
		}
		wr.Measurements = append(wr.Measurements, interp)
		var compiledSeq measurement
		for i, par := range settings {
			m, r, err := measure("compiled", par)
			if err != nil {
				return err
			}
			if r.Utility != baseline.Utility {
				return fmt.Errorf("%s: compiled parallelism %d utility %v differs from interpreted %v",
					wl.name, par, r.Utility, baseline.Utility)
			}
			if i == 0 {
				compiledSeq = m
			}
			wr.Measurements = append(wr.Measurements, m)
		}
		for _, par := range skipped {
			fmt.Printf("%-12s %-16s parallelism=%-3d skipped (> %d CPUs)\n",
				wl.name, wl.advName, par, cpus)
		}
		last := wr.Measurements[len(wr.Measurements)-1]
		wr.SpeedupMax = compiledSeq.NsPerRun / last.NsPerRun
		wr.CompiledSpeedup = interp.NsPerRun / compiledSeq.NsPerRun
		fmt.Printf("%-12s %-16s compiled speedup %.2fx vs interpreted\n",
			wl.name, wl.advName, wr.CompiledSpeedup)
		rep.Workloads = append(rep.Workloads, wr)
	}

	traj, err := loadTrajectory(*out)
	if err != nil {
		return err
	}
	traj.History = append(traj.History, rep)

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(traj); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d reports in trajectory)\n", *out, len(traj.History))
	return nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
