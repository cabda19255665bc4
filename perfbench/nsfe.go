package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/stats"
)

// nsfe-estimate: distinct-seed ΠOpt-nSFE estimate jobs through an
// in-process service.Pool, the path the CLIs take. ed25519 dominates
// this workload's profile and the cache is never hit.
const (
	nsfeProto    = "nsfe-opt:4"
	nsfeAdv      = "lock-abort:1+3" // t = 2 of n = 4
	nsfeN, nsfeT = 4, 2
	nsfeRuns     = 100
	// nsfeJobsPerSecond × --seconds jobs are split over the rounds.
	nsfeJobsPerSecond = 18
	// nsfeDelta is the false-failure budget of the per-job bound check,
	// shared across the batch by a union bound.
	nsfeDelta = 0.01
	ladderK   = 24
)

// nsfeJobs returns warm set-up jobs followed by n measured jobs, all
// with distinct seeds drawn from seed.
func nsfeJobs(seed int64, warm, n int) []service.EstimateParams {
	r := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	jobs := make([]service.EstimateParams, 0, warm+n)
	for len(jobs) < warm+n {
		s := r.Int63n(1 << 40)
		if seen[s] {
			continue
		}
		seen[s] = true
		jobs = append(jobs, service.EstimateParams{Proto: nsfeProto, Adv: nsfeAdv, Runs: nsfeRuns, Seed: s})
	}
	return jobs
}

// nsfeRound is one round's raw results.
type nsfeRound struct {
	setup   time.Duration
	job     time.Duration
	lat     []time.Duration
	spans   []int
	results []*service.Result
	errs    []error
	hits    int64
	peakRSS float64
}

// runNSFERound starts a fresh pool, warms it with one job (the set-up),
// then runs the jobs from one closed-loop client: with one pool worker,
// a second client would only add a queue wait to every latency.
func runNSFERound(e *env, warm service.EstimateParams, jobs []service.EstimateParams) (*nsfeRound, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	rd := &nsfeRound{
		lat: make([]time.Duration, len(jobs)), spans: make([]int, len(jobs)),
		results: make([]*service.Result, len(jobs)), errs: make([]error, len(jobs)),
	}
	t0 := time.Now()
	pool := service.New(service.Config{Workers: engineWorkers, Parallelism: 1})
	defer pool.Close()
	j, err := pool.Submit(warm)
	if err == nil {
		_, err = j.Wait()
	}
	if err != nil {
		return nil, fmt.Errorf("nsfe warm-up: %w", err)
	}
	rd.setup = time.Since(t0)
	before := pool.Stats()

	start := time.Now()
	for i := range jobs {
		t0 := time.Now()
		j, err := pool.Submit(jobs[i])
		if err == nil {
			rd.results[i], err = j.Wait()
		}
		rd.lat[i] = time.Since(t0)
		rd.errs[i] = err
		if e.tr != nil {
			rd.spans[i] = e.tr.Add(0, "service.Pool.Submit→Wait", fmt.Sprintf("job%d", i), t0, rd.lat[i], false)
		}
	}
	rd.job = time.Since(start)
	rd.hits = pool.Stats().CacheHits - before.CacheHits
	rd.peakRSS, err = peakRSSMB(0)
	return rd, err
}

func runNSFE(e *env) (*outcome, error) {
	all := nsfeJobs(e.seed, e.rounds, nsfeJobsPerSecond*e.seconds/rounds)
	warm, jobs := all[:e.rounds], all[e.rounds:]
	bound := core.MultiPartyTBound(service.DefaultPayoff(nsfeProto), nsfeN, nsfeT)
	margin := stats.HoeffdingHalfWidth(nsfeRuns, nsfeDelta/float64(len(jobs)))
	o := &outcome{}
	var rd, first *nsfeRound
	var jobErrors, overBound, hits, unrepeated int
	for r := 0; r < e.rounds; r++ {
		var err error
		if rd, err = runNSFERound(e, warm[r], jobs); err != nil {
			return nil, err
		}
		if first == nil {
			first = rd
		}
		o.setups = append(o.setups, rd.setup)
		o.rounds = append(o.rounds, round{job: rd.job, items: rd.lat, peakRSS: rd.peakRSS})
		o.attempted += len(jobs)
		var runs int64
		for i, res := range rd.results {
			switch {
			case rd.errs[i] != nil:
				jobErrors++
			case res.Estimate.Utility.Mean-margin > bound:
				overBound++
			case first.errs[i] == nil && res.Estimate.Utility != first.results[i].Estimate.Utility:
				unrepeated++
			default:
				runs += res.Metrics.Runs
			}
		}
		hits += int(rd.hits)
		if r == 0 {
			o.mcRuns = runs
		}
	}
	o.failed = jobErrors + overBound + unrepeated + hits
	o.units = float64(o.mcRuns)
	o.meta = map[string]any{
		"bound": bound, "bound_margin": margin, "job_errors": jobErrors, "over_bound": overBound,
		"unrepeated_results": unrepeated, "cache_hits": hits, "runs_per_job": nsfeRuns,
	}
	if e.tr == nil {
		return o, nil
	}

	// Ladder: replay sampled jobs of the last round at the core rung.
	proto, sampler, err := service.BuildProtocol(nsfeProto)
	if err != nil {
		return nil, err
	}
	var rung coreRung
	var selfs []float64
	for _, i := range sample(e.seed, len(jobs), ladderK) {
		if rd.errs[i] != nil {
			continue
		}
		adv, err := service.BuildAdversary(nsfeAdv, nsfeN)
		if err != nil {
			return nil, err
		}
		rep, dur, err := rung.replayEstimate(e.tr, rd.spans[i], fmt.Sprintf("job%d", i), proto, adv,
			service.DefaultPayoff(nsfeProto), sampler, nsfeRuns, jobs[i].Seed)
		if err != nil {
			return nil, err
		}
		if rep.Utility != rd.results[i].Estimate.Utility {
			o.failed++
		}
		selfs = append(selfs, ms(rd.lat[i]-dur))
	}
	rung.report(e.layers)
	e.layers["service.job_ms_p50"] = quantile(msAll(rd.lat), 0.5)
	e.layers["service.self_ms_p50"] = quantile(selfs, 0.5)
	e.layers["service.cache_hit_ratio"] = float64(rd.hits) / float64(len(jobs))
	e.layers["trace.ladder_items"] = float64(len(selfs))
	return o, nil
}

// sample picks k distinct indices of [0, n) from seed, in ascending
// order; all of them when n ≤ k.
func sample(seed int64, n, k int) []int {
	idx := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)
	if len(idx) > k {
		idx = idx[:k]
	}
	sort.Ints(idx)
	return idx
}
