package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// perLayer lists the traced metrics with their units, in the order
// BENCHMARK.json declares them. README.md maps each to the end-to-end
// metric it should move.
var perLayer = []struct{ name, unit string }{
	{"fairnessd.hit_ms_p50", "ms"},
	{"fairnessd.self_ms_p50", "ms"},
	{"fairnessd.request_ms_p99", "ms"},
	{"fairnessd.requests", "count"},
	{"fairnessd.failed", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.miss_ms_p50", "ms"},
	{"service.miss_ms_p90", "ms"},
	{"service.self_ms_p50", "ms"},
	{"service.job_ms_p50", "ms"},
	{"core.ns_per_run", "ns"},
	{"core.classify_ns", "ns"},
	{"core.runs", "count"},
	{"sim.compile_plan_us", "us"},
	{"sim.setup_ns_per_run", "ns"},
	{"sim.rounds_ns_per_run", "ns"},
	{"sim.finalize_ns_per_run", "ns"},
	{"sim.rounds_per_run", "count"},
	{"sim.messages_per_run", "count"},
	{"sim.deliveries_per_run", "count"},
	{"sig.gen_ns", "ns"},
	{"sig.sign_ns", "ns"},
	{"sig.ver_ns", "ns"},
	{"commitment.commit_ns", "ns"},
	{"share.auth_deal_ns", "ns"},
	{"mac.sign_ns", "ns"},
	{"field.mul_ns", "ns"},
	{"ot.dealer_transfer_ns", "ns"},
	{"rng.seed_ns", "ns"},
	{"sweep.plan_ms", "ms"},
	{"sweep.cell_ms_p50", "ms"},
	{"sweep.cell_ms_p90", "ms"},
	{"sweep.estimate_cell_ms_p50", "ms"},
	{"sweep.estimate_cell_ms_p90", "ms"},
	{"sweep.search_cell_ms_p50", "ms"},
	{"sweep.self_ms_p50", "ms"},
	{"sweep.checkpoint_bytes", "bytes"},
	{"sweep.estimate_mc_runs", "count"},
	{"sweep.search_mc_runs", "count"},
	{"search.runs", "count"},
	{"search.exhaustive_runs", "count"},
	{"search.savings", "ratio"},
	{"search.useful_ratio", "ratio"},
	{"search.ms_per_cell", "ms"},
	{"fabric.leases", "count"},
	{"fabric.steals", "count"},
	{"fabric.requeues", "count"},
	{"fabric.duplicate_records", "count"},
	{"fabric.overhead_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.observer_overhead_ratio", "ratio"},
	{"trace.ladder_items", "count"},
}

// phaseObserver times one estimation's runs through the public
// core.WithObserver hook: RunStarted→SetupFinished is set-up, up to the
// last RoundEnded is rounds, and the rest up to RunFinished is
// finalize. It also times core.Classify on each finished trace. The
// estimator calls it from one goroutine at parallelism 1.
type phaseObserver struct {
	sim.NopObserver
	start, setupEnd, lastRound time.Time

	runs                                 int64
	setup, rounds, finalize, classifyDur time.Duration
}

func (p *phaseObserver) RunStarted(sim.Protocol, []sim.Value) {
	p.start = time.Now()
	p.setupEnd, p.lastRound = p.start, p.start
}

func (p *phaseObserver) SetupFinished(bool) {
	p.setupEnd = time.Now()
	p.lastRound = p.setupEnd
}

func (p *phaseObserver) RoundEnded(int) { p.lastRound = time.Now() }

func (p *phaseObserver) RunFinished(tr *sim.Trace) {
	end := time.Now()
	p.setup += p.setupEnd.Sub(p.start)
	p.rounds += p.lastRound.Sub(p.setupEnd)
	p.finalize += end.Sub(p.lastRound)
	p.runs++
	c0 := time.Now()
	core.Classify(tr)
	p.classifyDur += time.Since(c0)
}

// coreRung accumulates the core and sim rungs over every replayed
// estimation of one traced pass.
type coreRung struct {
	runs                                               int64
	engine, observed, compile, setup, rounds, finalize time.Duration
	classify                                           time.Duration
	compiles                                           int
	metrics                                            sim.Metrics
}

// replay runs one core call at parallelism 1 beneath the span parent:
// first plainly, timed as the core span, then again under the phase
// observer as that span's replay child, whose own children are the
// summed run phases, the Classify replay and the plan compilation of
// every adversary. Observing costs a few clock reads per event, so the
// plain run is the core rung's time and the observed run only splits
// it. It returns the plain run's duration.
func (c *coreRung) replay(tr *Tracer, parent int, item, name string, proto sim.Protocol, advs []sim.Adversary,
	call func(opts ...core.Option) error) (time.Duration, error) {
	t0 := time.Now()
	err := call(core.WithParallelism(1))
	dur := time.Since(t0)
	if err != nil {
		return dur, fmt.Errorf("replay %s: %w", item, err)
	}

	c0 := time.Now()
	for _, adv := range advs {
		_, _ = sim.CompilePlan(proto, adv) // a pair that cannot compile runs interpreted; both are timed
	}
	compile := time.Since(c0)
	obs := &phaseObserver{}
	var m sim.Metrics
	o0 := time.Now()
	err = call(core.WithParallelism(1), core.WithMetrics(&m),
		core.WithObserver(func(int) sim.Observer { return obs }))
	observed := time.Since(o0)
	if err != nil {
		return dur, fmt.Errorf("observed replay %s: %w", item, err)
	}

	id := tr.Add(parent, name, item, t0, dur, true)
	oid := tr.Add(id, name+" observed", item, o0, observed, true)
	tr.Add(oid, "sim.CompilePlan", item, c0, compile, true)
	tr.Add(oid, "sim.setup", item, o0, obs.setup, true)
	tr.Add(oid, "sim.rounds", item, o0, obs.rounds, true)
	tr.Add(oid, "sim.finalize", item, o0, obs.finalize, true)
	tr.Add(oid, "core.Classify", item, o0, obs.classifyDur, true)

	c.runs += obs.runs
	c.engine += dur
	c.observed += observed - obs.classifyDur
	c.compile += compile
	c.compiles += len(advs)
	c.setup += obs.setup
	c.rounds += obs.rounds
	c.finalize += obs.finalize
	c.classify += obs.classifyDur
	c.metrics.Add(m)
	return dur, nil
}

// replayEstimate is replay over core.EstimateUtility.
func (c *coreRung) replayEstimate(tr *Tracer, parent int, item string, proto sim.Protocol, adv sim.Adversary,
	gamma core.Payoff, sampler core.InputSampler, runs int, seed int64) (core.UtilityReport, time.Duration, error) {
	var rep core.UtilityReport
	dur, err := c.replay(tr, parent, item, "core.EstimateUtility", proto, []sim.Adversary{adv}, func(opts ...core.Option) error {
		var err error
		rep, err = core.EstimateUtility(proto, adv, gamma, sampler, runs, seed, opts...)
		return err
	})
	return rep, dur, err
}

// report writes the core and sim metrics.
func (c *coreRung) report(layers map[string]float64) {
	if c.runs == 0 {
		return
	}
	n := float64(c.runs)
	layers["core.ns_per_run"] = float64(c.engine.Nanoseconds()) / n
	layers["core.classify_ns"] = float64(c.classify.Nanoseconds()) / n
	layers["core.runs"] = n
	layers["trace.observer_overhead_ratio"] = float64(c.observed) / float64(c.engine)
	if c.compiles > 0 {
		layers["sim.compile_plan_us"] = float64(c.compile.Nanoseconds()) / 1e3 / float64(c.compiles)
	}
	layers["sim.setup_ns_per_run"] = float64(c.setup.Nanoseconds()) / n
	layers["sim.rounds_ns_per_run"] = float64(c.rounds.Nanoseconds()) / n
	layers["sim.finalize_ns_per_run"] = float64(c.finalize.Nanoseconds()) / n
	layers["sim.rounds_per_run"] = float64(c.metrics.Rounds) / n
	layers["sim.messages_per_run"] = float64(c.metrics.Messages) / n
	layers["sim.deliveries_per_run"] = float64(c.metrics.Deliveries) / n
}
