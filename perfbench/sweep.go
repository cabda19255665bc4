package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/protocols/contract"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/protocols/multiparty"
	"repro/internal/protocols/twoparty"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// sweepSecondsPerPass sizes the sweep workloads: each round makes one
// pass over the grid per this many nominal seconds, each pass with its
// own sweep seed.
const sweepSecondsPerPass = 30

// Sampling sizes of the sweep ladders.
const (
	sweepLadderEst    = 16 // estimate cells replayed at the core rung
	sweepLadderSearch = 8  // sup-search cells replayed at the search rung
	// sweepSetups is how often a round repeats its few-millisecond
	// set-up, so that setup_s is a median of many.
	sweepSetups       = 3
	fabricWorkers     = 2
	fabricSplitFactor = 4
)

// certifySpec is the signature-free grid: two-party families plus
// Π_GMW^{1/2} at n ∈ {2, 3}, Gordon–Katz at p ∈ {2, 4}, the abort-round
// sweep, adaptive sampling and racing sup-search cells, one cell at a
// time at parallelism 1.
func certifySpec(seed int64) sweep.Spec {
	return sweep.Spec{
		Families:    []string{"2sfe", "oneround", "pi1", "pi2", "gk", "gmwhalf"},
		Gammas:      sweep.StandardGammas(),
		Ns:          []int{2, 3},
		Ps:          []int{2, 4},
		Costs:       []string{"zero"},
		AbortSweep:  true,
		SupRuns:     250,
		SupSearch:   true,
		Seed:        seed,
		Parallelism: 1,
	}
}

// sweepSeeds derives one sweep seed per pass from the workload seed.
func sweepSeeds(seed int64, seconds int) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, max(1, seconds/sweepSecondsPerPass))
	for i := range out {
		out[i] = r.Int63n(1 << 40)
	}
	return out
}

// sweepSetup plans the grid of every pass and compiles the execution
// plan of each estimate cell: the work before a sweep's first cell.
func sweepSetup(seeds []int64) ([]*sweep.Sweep, time.Duration, error) {
	t0 := time.Now()
	var plans []*sweep.Sweep
	for _, s := range seeds {
		sw, err := sweep.Plan(certifySpec(s))
		if err != nil {
			return nil, 0, err
		}
		for _, c := range sw.Cells {
			if c.Adv == "sup-search" {
				continue
			}
			rc, err := rebuildCell(sweep.Record{Family: c.Family, N: c.N, T: c.T, Adv: c.Adv, P: c.P, Key: c.Key})
			if err != nil {
				return nil, 0, err
			}
			_, _ = sim.CompilePlan(rc.proto, rc.adv) // pairs that cannot compile run interpreted
		}
		plans = append(plans, sw)
	}
	return plans, time.Since(t0), nil
}

// cellTally sums the Monte-Carlo runs behind cell records. A sup-search
// cell's runs are the racing total from its note.
type cellTally struct {
	cells, searchCells          int
	estimateRuns, searchRuns    int64
	exhaustiveRuns, certifyRuns int64
}

func (t *cellTally) add(rec sweep.Record) error {
	if rec.Kind != "cell" {
		return nil
	}
	t.cells++
	if rec.Adv != "sup-search" {
		t.estimateRuns += int64(rec.Runs)
		return nil
	}
	var best string
	var raced, exhaustive int64
	if _, err := fmt.Sscanf(rec.Note, "best: %s (raced %d/%d runs)", &best, &raced, &exhaustive); err != nil {
		return fmt.Errorf("sup-search note %q: %w", rec.Note, err)
	}
	t.searchCells++
	t.searchRuns += raced
	t.exhaustiveRuns += exhaustive
	t.certifyRuns += int64(rec.Runs)
	return nil
}

func (t *cellTally) total() int64 { return t.estimateRuns + t.searchRuns }

// sweepRound is one round of a sweep workload.
type sweepRound struct {
	setups   []time.Duration
	job      time.Duration
	plans    []*sweep.Sweep
	paths    []string // one checkpoint per pass
	cells    []cellSpan
	records  int
	breaches int
	tally    cellTally
	fabric   fabric.Stats // fabric rounds only
	peakRSS  float64
}

// runSweepRound sets up and runs every pass of the grid: single-machine
// through sweep.Run with a checkpoint, or with fabric workers through
// fabric.RunLocal, whose merged checkpoint lands at the same path.
func runSweepRound(e *env, seeds []int64, tag string, workers int) (*sweepRound, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	rd := &sweepRound{}
	for i := 0; i < sweepSetups; i++ {
		plans, setup, err := sweepSetup(seeds)
		if err != nil {
			return nil, err
		}
		rd.plans = plans
		rd.setups = append(rd.setups, setup)
	}
	start := time.Now()
	var err error
	for p, sw := range rd.plans {
		path := filepath.Join(e.workdir, fmt.Sprintf("%s-%d-%d.jsonl", tag, e.seed, p))
		_ = os.Remove(path) // a stale file would make sweep.Run resume instead of measure
		rd.paths = append(rd.paths, path)
		t0 := time.Now()
		last := t0
		var mu sync.Mutex // fabric calls OnRecord from its connection goroutines
		var sum *sweep.Summary
		if workers == 0 {
			sum, err = sweep.Run(sw.Spec, path, func(done, total int, rec sweep.Record, resumed bool) {
				now := time.Now()
				if rec.Kind == "cell" {
					rd.cells = append(rd.cells, cellSpan{rec: rec, start: last, dur: now.Sub(last), pass: p})
				}
				last = now
			})
		} else {
			var st fabric.Stats
			sum, st, err = fabric.RunLocal(fabric.Config{
				Spec: sw.Spec, Checkpoint: path, SplitFactor: fabricSplitFactor, LeaseTTL: fabric.DefaultLocalTTL,
				OnRecord: func(accepted, total int) {
					mu.Lock()
					defer mu.Unlock()
					now := time.Now()
					rd.cells = append(rd.cells, cellSpan{start: last, dur: now.Sub(last), pass: p})
					last = now
				},
			}, workers)
			rd.fabric.Steals += st.Steals
			rd.fabric.Requeues += st.Requeues
			rd.fabric.DuplicateRecords += st.DuplicateRecords
			rd.fabric.Deaths += st.Deaths
		}
		if err != nil && !errors.Is(err, sweep.ErrBreach) {
			return nil, err
		}
		if e.tr != nil {
			name := "sweep.Run"
			if workers > 0 {
				name = "fabric.RunLocal"
			}
			top := e.tr.Add(0, name, fmt.Sprintf("pass%d", p), t0, time.Since(t0), false)
			for i := range rd.cells {
				if c := &rd.cells[i]; c.pass == p && workers == 0 {
					c.span = e.tr.Add(top, "sweep.cell", c.rec.Key, c.start, c.dur, false)
				}
			}
		}
		rd.records += len(sum.Records)
		rd.breaches += len(sum.Breaches)
		for _, rec := range sum.Records {
			if err := rd.tally.add(rec); err != nil {
				return nil, err
			}
		}
	}
	rd.job = time.Since(start)
	rd.peakRSS, err = peakRSSMB(0)
	return rd, err
}

// addSweepRound folds a sweep round into the outcome; ref, when non-nil, is
// the round whose checkpoints this one must equal line for line.
func (o *outcome) addSweepRound(rd, ref *sweepRound) (mismatches int, err error) {
	o.setups = append(o.setups, rd.setups...)
	items := make([]time.Duration, len(rd.cells))
	for i, c := range rd.cells {
		items[i] = c.dur
	}
	o.rounds = append(o.rounds, round{job: rd.job, items: items, peakRSS: rd.peakRSS})
	o.attempted += rd.records
	o.failed += rd.breaches
	o.units, o.mcRuns = float64(rd.tally.cells), rd.tally.total()
	if ref != nil {
		for p := range rd.paths {
			n, err := diffLines(rd.paths[p], ref.paths[p])
			if err != nil {
				return 0, err
			}
			mismatches += n
		}
	}
	o.failed += mismatches
	return mismatches, nil
}

func runSweepCertify(e *env) (*outcome, error) {
	seeds := sweepSeeds(e.seed, e.seconds)
	o := &outcome{}
	var rd, first *sweepRound
	mismatches := 0
	for r := 0; r < e.rounds; r++ {
		var err error
		if rd, err = runSweepRound(e, seeds, fmt.Sprintf("sweep-r%d", r), 0); err != nil {
			return nil, err
		}
		n, err := o.addSweepRound(rd, first)
		if err != nil {
			return nil, err
		}
		mismatches += n
		if first == nil {
			first = rd
		}
	}
	o.meta = map[string]any{
		"passes": len(seeds), "cells": rd.tally.cells, "search_cells": rd.tally.searchCells,
		"checkpoint_mismatches_across_rounds": mismatches,
	}
	if e.tr == nil {
		return o, nil
	}
	var ckptBytes int64
	for _, path := range rd.paths {
		if fi, err := os.Stat(path); err == nil {
			ckptBytes += fi.Size()
		}
	}
	plan, err := timePlan(seeds)
	if err != nil {
		return nil, err
	}
	e.layers["sweep.plan_ms"] = plan
	e.layers["sweep.checkpoint_bytes"] = float64(ckptBytes)
	rd.tally.report(e.layers)
	if err := sweepLadder(e, o, rd.cells); err != nil {
		return nil, err
	}
	return o, fabricLayer(e, o, seeds, rd)
}

// timePlan is the median over five tries of planning every pass, in ms.
func timePlan(seeds []int64) (float64, error) {
	var ts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		for _, s := range seeds {
			if _, err := sweep.Plan(certifySpec(s)); err != nil {
				return 0, err
			}
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts), nil
}

func (t *cellTally) report(layers map[string]float64) {
	layers["sweep.estimate_mc_runs"] = float64(t.estimateRuns)
	layers["sweep.search_mc_runs"] = float64(t.searchRuns)
	layers["search.runs"] = float64(t.searchRuns)
	layers["search.exhaustive_runs"] = float64(t.exhaustiveRuns)
	if t.searchRuns > 0 {
		layers["search.savings"] = float64(t.exhaustiveRuns) / float64(t.searchRuns)
		layers["search.useful_ratio"] = float64(t.certifyRuns) / float64(t.searchRuns)
	}
}

// cellSpan is one cell's interval between consecutive Progress calls.
type cellSpan struct {
	rec   sweep.Record
	start time.Time
	dur   time.Duration
	pass  int
	span  int
}

// readLines returns a JSONL file's lines without their newlines.
func readLines(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	return lines, sc.Err()
}

// sweepLadder replays sampled cells one layer down: estimate cells
// through core.EstimateUtility, sup-search cells through search.Run,
// each rebuilt from its record with the sweep's own family
// definitions. A replay that does not reproduce the record counts as a
// failure.
func sweepLadder(e *env, o *outcome, cells []cellSpan) error {
	var estIdx, searchIdx []int
	var all, est, srch []float64
	for i, c := range cells {
		all = append(all, ms(c.dur))
		if c.rec.Adv == "sup-search" {
			searchIdx = append(searchIdx, i)
			srch = append(srch, ms(c.dur))
		} else {
			estIdx = append(estIdx, i)
			est = append(est, ms(c.dur))
		}
	}
	e.layers["sweep.cell_ms_p50"] = quantile(all, 0.5)
	e.layers["sweep.cell_ms_p90"] = quantile(all, 0.9)
	e.layers["sweep.estimate_cell_ms_p50"] = quantile(est, 0.5)
	e.layers["sweep.estimate_cell_ms_p90"] = quantile(est, 0.9)
	e.layers["sweep.search_cell_ms_p50"] = quantile(srch, 0.5)

	var rung coreRung
	var selfs, searchMs []float64
	for _, j := range sample(e.seed, len(estIdx), sweepLadderEst) {
		c := cells[estIdx[j]]
		cr, err := rebuildCell(c.rec)
		if err != nil {
			return err
		}
		rep, dur, err := rung.replayEstimate(e.tr, c.span, c.rec.Key, cr.proto, cr.adv, cr.gamma, cr.sampler, c.rec.Runs, c.rec.Seed)
		if err != nil {
			return err
		}
		if rep.Utility.Mean != c.rec.Mean || rep.Utility.HalfWidth != c.rec.HalfWidth {
			o.failed++
		}
		selfs = append(selfs, ms(c.dur-dur))
	}
	for _, j := range sample(e.seed, len(searchIdx), sweepLadderSearch) {
		c := cells[searchIdx[j]]
		cr, err := rebuildCell(c.rec)
		if err != nil {
			return err
		}
		t0 := time.Now()
		rep, err := search.Run(cr.proto, cr.space, cr.gamma, cr.sampler, c.rec.Seed,
			search.Options{RaceRuns: c.rec.Runs, FinalRuns: c.rec.Runs, Parallelism: 1})
		dur := time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay %s: %w", c.rec.Key, err)
		}
		e.tr.Add(c.span, "search.Run", c.rec.Key, t0, dur, true)
		if rep.BestReport.Utility.Mean != c.rec.Mean || rep.BestReport.Utility.HalfWidth != c.rec.HalfWidth {
			o.failed++
		}
		selfs = append(selfs, ms(c.dur-dur))
		searchMs = append(searchMs, ms(dur))
	}
	rung.report(e.layers)
	e.layers["sweep.self_ms_p50"] = quantile(selfs, 0.5)
	e.layers["search.ms_per_cell"] = mean(searchMs)
	e.layers["trace.ladder_items"] = float64(len(selfs))
	return nil
}

// rebuiltCell is a sweep cell reconstructed from its record.
type rebuiltCell struct {
	proto   sim.Protocol
	adv     sim.Adversary
	space   core.SliceSpace
	gamma   core.Payoff
	sampler core.InputSampler
}

// rebuildCell mirrors the sweep's family definitions (protocol, input
// sampler, attacker on the corrupted prefix {1..t}, sup-search space)
// through the packages' public constructors.
func rebuildCell(rec sweep.Record) (rebuiltCell, error) {
	c := rebuiltCell{gamma: core.Payoff{G00: rec.Gamma[0], G01: rec.Gamma[1], G10: rec.Gamma[2], G11: rec.Gamma[3]}}
	uniform := func(n, bits int) core.InputSampler {
		return func(r *rand.Rand) []sim.Value {
			in := make([]sim.Value, n)
			for i := range in {
				in[i] = uint64(r.Intn(1 << bits))
			}
			return in
		}
	}
	var err error
	switch rec.Family {
	case "2sfe":
		c.proto, c.sampler = twoparty.New(twoparty.Swap()), uniform(2, 20)
	case "oneround":
		c.proto, c.sampler = twoparty.NewOneRound(twoparty.Swap()), uniform(2, 20)
	case "pi1", "pi2":
		c.proto = contract.Pi1{}
		if rec.Family == "pi2" {
			c.proto = contract.Pi2{}
		}
		c.sampler = func(r *rand.Rand) []sim.Value {
			return []sim.Value{uint64(r.Int63()), uint64(r.Int63())}
		}
	case "gmwhalf":
		fn, ferr := multiparty.Concat(rec.N, 8)
		if ferr != nil {
			return c, ferr
		}
		c.proto, c.sampler = multiparty.NewGMWHalf(fn), uniform(rec.N, 8)
	case "gk":
		c.proto, err = gordonkatz.NewPolyDomain(gordonkatz.AND(), rec.P)
		c.sampler = core.FixedInputs(uint64(1), uint64(1))
	default:
		return c, fmt.Errorf("rebuild %s: family %q is not in the benchmark grid", rec.Key, rec.Family)
	}
	if err != nil {
		return c, err
	}
	set := adversary.TSubsets(rec.N, rec.T)[0]
	var r int
	switch {
	case rec.Adv == "sup-search":
		c.space = rebuildSpace(rec, c.proto)
	case rec.Adv == "lock":
		c.adv = adversary.NewLockAbort(set...)
	case rec.Adv == "setup":
		c.adv = adversary.NewSetupAbort(set...)
	case rec.Adv == "gmwsetup":
		c.adv = multiparty.NewGMWSetupAttacker(set...)
	case rec.Adv == "firsthit":
		c.adv = gordonkatz.NewFirstHit(1)
	default:
		if _, serr := fmt.Sscanf(rec.Adv, "abort@%d", &r); serr != nil {
			return c, fmt.Errorf("rebuild %s: adversary %q: %w", rec.Key, rec.Adv, serr)
		}
		c.adv = adversary.NewAbortAt(r, set...)
	}
	return c, nil
}

func rebuildSpace(rec sweep.Record, proto sim.Protocol) core.SliceSpace {
	if rec.N == 2 {
		return adversary.TwoPartySpace(proto.NumRounds())
	}
	space := adversary.MultiPartyTSpace(rec.N, rec.T, proto.NumRounds())
	if rec.Family == "gmwhalf" {
		for si, set := range adversary.TSubsets(rec.N, rec.T) {
			space = append(space, core.NamedAdversary{
				Name: fmt.Sprintf("gmw-setup-t%d-s%d", rec.T, si),
				Adv:  multiparty.NewGMWSetupAttacker(set...),
			})
		}
	}
	return space
}

// fabricLayer runs the grid once more through fabric.RunLocal with
// two in-process workers over loopback, and requires its merged
// checkpoint to equal the single-machine round's line for line. It is
// part of the traced run only: lease and heartbeat timing made a fabric
// workload's end-to-end figures spread too far to bound.
func fabricLayer(e *env, o *outcome, seeds []int64, single *sweepRound) error {
	rd, err := runSweepRound(&env{seed: e.seed, workdir: e.workdir}, seeds, "fabric", fabricWorkers)
	if err != nil {
		return err
	}
	e.tr.Add(0, "fabric.RunLocal", "grid", time.Now().Add(-rd.job), rd.job, false)
	mismatches := 0
	for p := range rd.paths {
		n, err := diffLines(rd.paths[p], single.paths[p])
		if err != nil {
			return err
		}
		mismatches += n
	}
	o.attempted += rd.records
	o.failed += rd.breaches + mismatches
	o.meta["fabric_record_mismatches"] = mismatches
	leases := rd.fabric.Steals + rd.fabric.Requeues
	for _, sw := range rd.plans {
		leases += len(sweep.SplitRanges(len(sw.Cells), fabricWorkers*fabricSplitFactor))
	}
	e.layers["fabric.leases"] = float64(leases)
	e.layers["fabric.steals"] = float64(rd.fabric.Steals)
	e.layers["fabric.requeues"] = float64(rd.fabric.Requeues)
	e.layers["fabric.duplicate_records"] = float64(rd.fabric.DuplicateRecords)
	e.layers["fabric.overhead_ratio"] = rd.job.Seconds() / single.job.Seconds()
	return nil
}

// diffLines counts the lines that differ between two files, a missing
// line counting as different.
func diffLines(a, b string) (int, error) {
	la, err := readLines(a)
	if err != nil {
		return 0, err
	}
	lb, err := readLines(b)
	if err != nil {
		return 0, err
	}
	n := max(len(la), len(lb)) - min(len(la), len(lb))
	for i := 0; i < min(len(la), len(lb)); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			n++
		}
	}
	return n, nil
}
