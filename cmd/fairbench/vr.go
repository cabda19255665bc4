package main

// fairbench -vr: the variance-reduction benchmark. It measures how many
// Monte-Carlo runs each statistical lever of DESIGN.md §12 saves on the
// workload it was built for, and appends the ratios to the
// BENCH_estimator.json trajectory under "variance_reduction":
//
//   - control variate: the Gordon–Katz first-hit cell at the paper's
//     payoff, plain versus core.WithControlVariate — runs to reach the
//     target half-width, plain ÷ residual (floor -vr-min-cv);
//   - common random numbers: the certified delta between two
//     neighbouring 2SFE abort strategies, independently seeded versus
//     core.WithPairedSeeds — runs to certify the delta at the target
//     half-width, unpaired ÷ paired (floor -vr-min-crn).
//
// Ratios are recorded as run counts, never half-width quotients: the
// exact-residual estimator's half-width is legitimately zero and the
// report must stay encodable (JSON holds no Inf).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
	"repro/internal/stats"
)

// vrTargetHW is the half-width every runs-to-target search drives to.
const vrTargetHW = 0.01

// vrWorkload is one lever's measurement.
type vrWorkload struct {
	Name      string `json:"name"`
	Technique string `json:"technique"`
	// PlainRuns and ReducedRuns are the runs needed to reach the target
	// half-width without and with the lever; RunsRatio is their quotient
	// (the lever's savings).
	PlainRuns   int     `json:"plain_runs,omitempty"`
	ReducedRuns int     `json:"reduced_runs,omitempty"`
	RunsRatio   float64 `json:"runs_ratio,omitempty"`
	// Floor is the ratio below which the benchmark fails (0 = advisory).
	Floor float64 `json:"floor,omitempty"`
	OK    bool    `json:"ok"`
	Note  string  `json:"note,omitempty"`
}

// vrReport is one -vr invocation's document.
type vrReport struct {
	Seed      int64        `json:"seed"`
	TargetHW  float64      `json:"target_half_width"`
	Workloads []vrWorkload `json:"workloads"`
	AllOK     bool         `json:"all_ok"`
	ElapsedMS float64      `json:"elapsed_ms"`
}

// runsToTarget finds the smallest run count (up to a doubling cap) whose
// measured half-width reaches target: geometric growth to bracket, then
// bisection. Monte-Carlo half-widths are only statistically monotone in
// the run count, so the result is a representative cost, not a sharp
// minimum — which is exactly what a savings ratio needs.
func runsToTarget(target float64, measure func(runs int) (float64, error)) (int, error) {
	const cap = 1 << 21
	lo, hi := 0, 16
	for {
		hw, err := measure(hi)
		if err != nil {
			return 0, err
		}
		if hw <= target {
			break
		}
		if hi >= cap {
			return 0, fmt.Errorf("half-width %g still above target %g at %d runs", hw, target, hi)
		}
		lo = hi
		hi *= 2
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		hw, err := measure(mid)
		if err != nil {
			return 0, err
		}
		if hw <= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// vrControlVariate measures the Gordon–Katz exact-residual lever.
func vrControlVariate(seed int64, floor float64) (vrWorkload, error) {
	w := vrWorkload{
		Name: "gk-firsthit-p4", Technique: "control-variate",
		Floor: floor,
	}
	proto, err := gordonkatz.NewPolyDomain(gordonkatz.AND(), 4)
	if err != nil {
		return w, err
	}
	gamma := core.GordonKatzPayoff()
	cv := core.GKFirstHitControl(gamma, proto.NumRounds()/2, 0.5)
	measure := func(extra ...core.Option) func(runs int) (float64, error) {
		return func(runs int) (float64, error) {
			r, err := core.EstimateUtility(proto, gordonkatz.NewFirstHit(1), gamma,
				core.FixedInputs(uint64(1), uint64(1)), runs, seed, extra...)
			if err != nil {
				return 0, err
			}
			return r.Utility.HalfWidth, nil
		}
	}
	if w.PlainRuns, err = runsToTarget(vrTargetHW, measure()); err != nil {
		return w, fmt.Errorf("plain: %w", err)
	}
	if w.ReducedRuns, err = runsToTarget(vrTargetHW, measure(core.WithControlVariate(cv))); err != nil {
		return w, fmt.Errorf("control variate: %w", err)
	}
	w.RunsRatio = float64(w.PlainRuns) / float64(w.ReducedRuns)
	w.OK = w.RunsRatio >= floor
	w.Note = fmt.Sprintf("residual against %s (exact mean %.6f)", cv.Name, cv.Mean)
	return w, nil
}

// vrPairedDelta measures the CRN lever on a certified cross-strategy
// delta: abort-at-1 versus abort-at-2 on ΠOpt-2SFE. The unpaired
// comparator runs the same per-run difference estimator over two
// independently seeded estimations, so the ratio isolates exactly what
// seed pairing buys — the correlation between the paired runs.
func vrPairedDelta(seed int64, floor float64) (vrWorkload, error) {
	w := vrWorkload{
		Name: "2sfe-abort1-vs-abort2", Technique: "crn-paired-delta",
		Floor: floor,
	}
	proto := twoparty.New(twoparty.Swap())
	gamma := core.StandardPayoff()
	sampler := func(r *rand.Rand) []sim.Value {
		return []sim.Value{uint64(r.Intn(1 << 20)), uint64(r.Intn(1 << 20))}
	}
	z := stats.ZQuantile(0.05)
	master := int64(uint64(seed)*0x9e3779b9 | 1)
	measure := func(paired bool) func(runs int) (float64, error) {
		return func(runs int) (float64, error) {
			logA := make([]core.Event, runs)
			logB := make([]core.Event, runs)
			optsA := []core.Option{core.WithEventLog(logA)}
			optsB := []core.Option{core.WithEventLog(logB)}
			if paired {
				optsA = append(optsA, core.WithPairedSeeds(master))
				optsB = append(optsB, core.WithPairedSeeds(master))
			}
			if _, err := core.EstimateUtility(proto, adversary.NewAbortAt(1, 1), gamma,
				sampler, runs, seed, optsA...); err != nil {
				return 0, err
			}
			if _, err := core.EstimateUtility(proto, adversary.NewAbortAt(2, 1), gamma,
				sampler, runs, seed+7919, optsB...); err != nil {
				return 0, err
			}
			va := make([]float64, runs)
			vb := make([]float64, runs)
			for i := 0; i < runs; i++ {
				va[i] = gamma.Of(logA[i])
				vb[i] = gamma.Of(logB[i])
			}
			est, err := stats.PairedEstimateZ(va, vb, z)
			if err != nil {
				return 0, err
			}
			return est.HalfWidth, nil
		}
	}
	var err error
	if w.PlainRuns, err = runsToTarget(vrTargetHW, measure(false)); err != nil {
		return w, fmt.Errorf("unpaired: %w", err)
	}
	if w.ReducedRuns, err = runsToTarget(vrTargetHW, measure(true)); err != nil {
		return w, fmt.Errorf("paired: %w", err)
	}
	w.RunsRatio = float64(w.PlainRuns) / float64(w.ReducedRuns)
	w.OK = w.RunsRatio >= floor
	w.Note = "delta certified by stats.PairedEstimate at z for δ=0.05"
	return w, nil
}

// runVRBench runs the two lever workloads, appends the report to the
// estimator trajectory, and fails when a floored ratio falls short.
func runVRBench(seed int64, minCV, minCRN float64, out string) error {
	start := time.Now()
	vr := vrReport{Seed: seed, TargetHW: vrTargetHW, AllOK: true}

	cv, err := vrControlVariate(seed, minCV)
	if err != nil {
		return fmt.Errorf("vr control-variate workload: %w", err)
	}
	vr.Workloads = append(vr.Workloads, cv)
	fmt.Printf("%-24s %-26s %7d plain runs %7d reduced %8.1fx (floor %g)\n",
		cv.Name, cv.Technique, cv.PlainRuns, cv.ReducedRuns, cv.RunsRatio, cv.Floor)

	crn, err := vrPairedDelta(seed, minCRN)
	if err != nil {
		return fmt.Errorf("vr paired-delta workload: %w", err)
	}
	vr.Workloads = append(vr.Workloads, crn)
	fmt.Printf("%-24s %-26s %7d plain runs %7d reduced %8.1fx (floor %g)\n",
		crn.Name, crn.Technique, crn.PlainRuns, crn.ReducedRuns, crn.RunsRatio, crn.Floor)

	for _, w := range vr.Workloads {
		if !w.OK {
			vr.AllOK = false
		}
	}
	vr.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3

	rep := report{
		Generated:         time.Now().UTC().Format(time.RFC3339),
		GoVersion:         runtime.Version(),
		GOOS:              runtime.GOOS,
		GOARCH:            runtime.GOARCH,
		CPUs:              runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		VarianceReduction: &vr,
	}
	traj, err := loadTrajectory(out)
	if err != nil {
		return err
	}
	traj.History = append(traj.History, rep)
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(traj); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d reports in trajectory)\n", out, len(traj.History))

	if !vr.AllOK {
		for _, w := range vr.Workloads {
			if !w.OK {
				return fmt.Errorf("vr workload %s: runs ratio %.2f below floor %g", w.Name, w.RunsRatio, w.Floor)
			}
		}
	}
	return nil
}
