package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim"
)

// serve-mixed: a closed loop of two clients sending a seeded, fixed
// request sequence to a fresh fairnessd. About 70% of the requests
// repeat a hot set of estimate keys warmed during set-up (cache hits);
// the rest are unseen estimate and sup keys (cache misses).
const (
	// serveRequestsPerSecond × --seconds requests are split over the
	// rounds: 1152 a round at 30 s, so p99 has 11 samples beyond it.
	serveRequestsPerSecond = 192
	serveHotShare          = 0.7
	serveHotRuns           = 1000
	serveHotSeeds          = 2 // hot keys per (protocol, adversary) pair
	// The ladder replays this many sampled misses and hits.
	serveLadderMisses, serveLadderHits = 120, 40
)

type protoAdv struct{ proto, adv string }

// servePairs are the estimate (protocol, adversary) pairs of the hot
// set and of the unseen estimate requests.
var servePairs = []protoAdv{
	{"2sfe-opt", "agen"}, {"2sfe-opt", "lock-abort:1"}, {"2sfe-opt", "lock-abort:2"}, {"2sfe-opt", "abort:1:1"},
	{"pi2", "agen"}, {"pi2", "lock-abort:1"}, {"pi2", "lock-abort:2"}, {"pi2", "static:1"},
	{"gk-polydomain:4", "agen"}, {"gk-polydomain:4", "lock-abort:1"}, {"gk-polydomain:4", "abort:1:1"}, {"gk-polydomain:4", "passive"},
}

var (
	serveSupProtos = []string{"2sfe-opt", "pi2"}
	serveSupAdvs   = []string{"passive", "agen", "lock-abort:1", "lock-abort:2"}
)

// serveReq is one request of the sequence.
type serveReq struct {
	path string
	body []byte
	hot  bool
	key  int // index into the hot set; -1 for unseen requests
	est  *service.EstimateParams
	sup  *service.SupParams
}

// serveMix returns the hot set and an n-request sequence: exactly
// round(0.7·n) hot repeats spread evenly over the hot keys, the rest
// unseen keys (half estimate, half sup) whose run counts step evenly
// across a range so that miss latencies form a smooth distribution.
// Every seed in the sequence is distinct, so no unseen key repeats.
func serveMix(seed int64, n int) (hot, seq []serveReq) {
	r := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	fresh := func() int64 {
		for {
			s := r.Int63n(1 << 40)
			if !seen[s] {
				seen[s] = true
				return s
			}
		}
	}
	for _, pa := range servePairs {
		for k := 0; k < serveHotSeeds; k++ {
			p := service.EstimateParams{Proto: pa.proto, Adv: pa.adv, Runs: serveHotRuns, Seed: fresh()}
			hot = append(hot, estimateReq(p, true, len(hot)))
		}
	}
	nHot := int(math.Round(serveHotShare * float64(n)))
	for i := 0; i < nHot; i++ {
		seq = append(seq, hot[i%len(hot)])
	}
	nMiss := n - nHot
	for k := 0; k < nMiss; k++ {
		step := float64(k) / float64(max(nMiss, 1))
		if k%2 == 0 {
			pa := servePairs[(k/2)%len(servePairs)]
			p := service.EstimateParams{Proto: pa.proto, Adv: pa.adv, Runs: 250 + int(750*step), Seed: fresh()}
			seq = append(seq, estimateReq(p, false, -1))
			continue
		}
		p := service.SupParams{Proto: serveSupProtos[(k/2)%len(serveSupProtos)], Advs: serveSupAdvs,
			Runs: 100 + int(300*step), Seed: fresh()}
		body, _ := json.Marshal(p) // fixed struct shape: cannot fail
		seq = append(seq, serveReq{path: "/v1/sup", body: body, key: -1, sup: &p})
	}
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return hot, seq
}

func (q serveReq) proto() string {
	if q.est != nil {
		return q.est.Proto
	}
	return q.sup.Proto
}

func estimateReq(p service.EstimateParams, hot bool, key int) serveReq {
	body, _ := json.Marshal(p) // fixed struct shape: cannot fail
	return serveReq{path: "/v1/estimate", body: body, hot: hot, key: key, est: &p}
}

// daemon is one fairnessd process on a loopback port.
type daemon struct {
	cmd      *exec.Cmd
	exited   chan error // receives cmd.Wait's result once the process ends
	stopOnce sync.Once
	base     string
	client   *http.Client
}

// startDaemon boots fairnessd and waits until /healthz answers. Its
// pool has engineWorkers workers at per-job parallelism 1, and a cache
// large enough that no hot key is evicted during a run.
func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("serve-mixed needs -fairnessd")
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(engineWorkers), "-parallel", "1", "-cache", "16384")
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start fairnessd: %w", err)
		}
		d := &daemon{cmd: cmd, exited: make(chan error, 1), base: "http://" + addr, client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true,
			},
		}}
		go func() { d.exited <- cmd.Wait() }()
		if lastErr = d.waitHealthy(); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, fmt.Errorf("fairnessd did not become healthy: %w", lastErr)
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (d *daemon) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err // keep it for stop
			return fmt.Errorf("fairnessd exited: %v", err)
		default:
		}
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("timed out waiting for /healthz")
}

// stop kills the daemon and waits until it has exited. Later calls
// return at once.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		d.client.CloseIdleConnections()
		_ = d.cmd.Process.Kill()
		<-d.exited
	})
}

// reply is one answered request.
type reply struct {
	status int
	cache  string
	body   []byte
}

func (d *daemon) post(path string, body []byte) (reply, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Fairnessd-Cache"), body: b}, nil
}

// counters reads the daemon's /metrics counters.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

// bootAndWarm starts a daemon and sends every hot key once, returning
// the first-occurrence bodies every later hit must repeat byte for byte.
func bootAndWarm(bin string, hot []serveReq) (*daemon, [][]byte, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return nil, nil, err
	}
	bodies := make([][]byte, len(hot))
	for i, h := range hot {
		rep, err := d.post(h.path, h.body)
		if err == nil && (rep.status != http.StatusOK || rep.cache != "miss") {
			err = fmt.Errorf("status %d, cache %q: %s", rep.status, rep.cache, rep.body)
		}
		if err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("warm hot key %d: %w", i, err)
		}
		bodies[i] = rep.body
	}
	return d, bodies, nil
}

// serveRound is one round's raw results.
type serveRound struct {
	setup, job time.Duration
	lat        []time.Duration
	spans      []int
	replies    []reply
	errs       []error
	warm       [][]byte           // the hot keys' first-occurrence bodies
	delta      map[string]float64 // /metrics counters over the timed phase
	peakRSS    float64
}

// runServeRound boots a fresh daemon, warms its hot set (the set-up),
// sends the sequence from two closed-loop clients and stops it.
func runServeRound(e *env, hot, seq []serveReq) (*serveRound, error) {
	rd := &serveRound{
		lat: make([]time.Duration, len(seq)), spans: make([]int, len(seq)),
		replies: make([]reply, len(seq)), errs: make([]error, len(seq)), delta: map[string]float64{},
	}
	t0 := time.Now()
	d, warm, err := bootAndWarm(e.daemon, hot)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rd.setup, rd.warm = time.Since(t0), warm
	before, err := d.counters()
	if err != nil {
		return nil, err
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				t0 := time.Now()
				rd.replies[i], rd.errs[i] = d.post(seq[i].path, seq[i].body)
				rd.lat[i] = time.Since(t0)
				if e.tr != nil {
					rd.spans[i] = e.tr.Add(0, "fairnessd POST "+seq[i].path, fmt.Sprintf("req%d", i), t0, rd.lat[i], false)
				}
			}
		}()
	}
	wg.Wait()
	rd.job = time.Since(start)

	after, err := d.counters()
	if err != nil {
		return nil, err
	}
	for k, v := range after {
		rd.delta[k] = v - before[k]
	}
	rd.peakRSS, err = peakRSSMB(d.cmd.Process.Pid)
	return rd, err
}

func runServe(e *env) (*outcome, error) {
	hot, seq := serveMix(e.seed, serveRequestsPerSecond*e.seconds/rounds)
	o := &outcome{units: float64(len(seq))}
	var rd, first *serveRound
	var transport, status, mismatch, cacheFlag, hits int
	for r := 0; r < e.rounds; r++ {
		var err error
		if rd, err = runServeRound(e, hot, seq); err != nil {
			return nil, err
		}
		if first == nil {
			first = rd
			o.mcRuns = int64(rd.delta["fairness_engine_runs_total"])
		}
		o.setups = append(o.setups, rd.setup)
		o.rounds = append(o.rounds, round{job: rd.job, items: rd.lat, peakRSS: rd.peakRSS})
		o.attempted += len(seq)
		for i, q := range seq {
			rep := rd.replies[i]
			switch {
			case rd.errs[i] != nil:
				transport++
			case rep.status != http.StatusOK:
				status++
			case q.hot && !bytes.Equal(rep.body, rd.warm[q.key]),
				!q.hot && first.errs[i] == nil && !bytes.Equal(rep.body, first.replies[i].body):
				mismatch++
			case q.hot != (rep.cache == "hit") || !q.hot && !answersRuns(rep.body, q):
				cacheFlag++
			}
			if q.hot && r == 0 {
				hits++
			}
		}
	}
	o.failed = transport + status + mismatch + cacheFlag
	n := len(seq)
	var p99 []float64
	for _, r := range o.rounds {
		p99 = append(p99, quantile(msAll(r.items), 0.99))
	}
	o.meta = map[string]any{
		"hot_keys": len(hot), "hot_requests": hits, "unseen_requests": n - hits,
		"p99_ms": median(p99), "beyond_p99": beyond(n, 0.99),
		"transport_errors": transport, "non_200": status, "byte_mismatches": mismatch,
		"wrong_cache_or_body": cacheFlag, "daemon_jobs": rd.delta["fairnessd_jobs_submitted_total"],
	}
	if e.tr == nil {
		return o, nil
	}

	e.layers["fairnessd.requests"] = rd.delta["fairnessd_jobs_submitted_total"]
	e.layers["fairnessd.failed"] = rd.delta["fairnessd_jobs_failed_total"]
	e.layers["service.cache_hit_ratio"] = rd.delta["fairnessd_cache_hits_total"] / rd.delta["fairnessd_jobs_submitted_total"]
	e.layers["fairnessd.request_ms_p99"] = quantile(msAll(rd.lat), 0.99)
	var hitLat []float64
	for i, q := range seq {
		if q.hot {
			hitLat = append(hitLat, ms(rd.lat[i]))
		}
	}
	e.layers["fairnessd.hit_ms_p50"] = quantile(hitLat, 0.5)
	return o, serveLadder(e, o, seq, rd.lat, rd.spans, rd.errs)
}

// serveLadder replays sampled misses and hits one layer down: the
// same params through an in-process service.Pool (a hit is replayed
// against a pool that already holds the key), then each miss through
// the core estimator at parallelism 1.
func serveLadder(e *env, o *outcome, seq []serveReq, lat []time.Duration, spans []int, errs []error) error {
	var missIdx, hitIdx []int
	for i, q := range seq {
		switch {
		case errs[i] != nil:
		case q.hot:
			hitIdx = append(hitIdx, i)
		default:
			missIdx = append(missIdx, i)
		}
	}
	var pick []int
	for _, j := range sample(e.seed, len(missIdx), serveLadderMisses) {
		pick = append(pick, missIdx[j])
	}
	for _, j := range sample(e.seed+1, len(hitIdx), serveLadderHits) {
		pick = append(pick, hitIdx[j])
	}

	pool := service.New(service.Config{Workers: 1, Parallelism: 1})
	defer pool.Close()
	submit := func(p service.Params) (*service.Result, error) {
		j, err := pool.Submit(p)
		if err != nil {
			return nil, err
		}
		return j.Wait()
	}
	var rung coreRung
	var httpSelf, svcSelf, missMs, jobMs []float64
	for _, i := range pick {
		q := seq[i]
		item := fmt.Sprintf("req%d", i)
		var params service.Params
		if q.est != nil {
			params = *q.est
		} else {
			params = *q.sup
		}
		if q.hot {
			if _, err := submit(params); err != nil {
				return fmt.Errorf("replay %s: %w", item, err)
			}
		}
		t0 := time.Now()
		res, err := submit(params)
		dur := time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay %s: %w", item, err)
		}
		if res.CacheHit != q.hot {
			o.failed++
		}
		svc := e.tr.Add(spans[i], "service.Pool.Submit→Wait", item, t0, dur, true)
		httpSelf = append(httpSelf, ms(lat[i]-dur))
		jobMs = append(jobMs, ms(dur))
		if q.hot {
			continue
		}
		missMs = append(missMs, ms(dur))
		coreDur, same, err := replayRequest(&rung, e.tr, svc, item, q, res)
		if err != nil {
			return err
		}
		if !same {
			o.failed++
		}
		svcSelf = append(svcSelf, ms(dur-coreDur))
	}
	rung.report(e.layers)
	e.layers["fairnessd.self_ms_p50"] = quantile(httpSelf, 0.5)
	e.layers["service.miss_ms_p50"] = quantile(missMs, 0.5)
	e.layers["service.miss_ms_p90"] = quantile(missMs, 0.9)
	e.layers["service.self_ms_p50"] = quantile(svcSelf, 0.5)
	e.layers["service.job_ms_p50"] = quantile(jobMs, 0.5)
	e.layers["trace.ladder_items"] = float64(len(pick))
	return nil
}

// replayRequest re-runs a miss's estimate or sup at the core rung and
// reports whether it reproduces the service's result.
func replayRequest(rung *coreRung, tr *Tracer, parent int, item string, q serveReq, res *service.Result) (time.Duration, bool, error) {
	protoName := q.proto()
	proto, sampler, err := service.BuildProtocol(protoName)
	if err != nil {
		return 0, false, err
	}
	gamma := service.DefaultPayoff(protoName)
	if q.est != nil {
		adv, err := service.BuildAdversary(q.est.Adv, proto.NumParties())
		if err != nil {
			return 0, false, err
		}
		rep, dur, err := rung.replayEstimate(tr, parent, item, proto, adv, gamma, sampler, q.est.Runs, q.est.Seed)
		return dur, err == nil && rep.Utility == res.Estimate.Utility, err
	}
	space := make(core.SliceSpace, len(q.sup.Advs))
	advs := make([]sim.Adversary, len(q.sup.Advs))
	for i, name := range q.sup.Advs {
		adv, err := service.BuildAdversary(name, proto.NumParties())
		if err != nil {
			return 0, false, err
		}
		space[i] = core.NamedAdversary{Name: name, Adv: adv}
		advs[i] = adv
	}
	var rep core.SupReport
	dur, err := rung.replay(tr, parent, item, "core.SupUtilitySpace", proto, advs, func(opts ...core.Option) error {
		var err error
		rep, err = core.SupUtilitySpace(proto, space, gamma, sampler, q.sup.Runs, q.sup.Seed, opts...)
		return err
	})
	return dur, err == nil && rep.Best == res.Sup.Best && rep.BestReport.Utility == res.Sup.BestReport.Utility, err
}

// answersRuns reports whether a miss body decodes and echoes the
// requested run count.
func answersRuns(body []byte, q serveReq) bool {
	var v struct {
		Runs int `json:"runs"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return false
	}
	if q.est != nil {
		return v.Runs == q.est.Runs
	}
	return v.Runs == q.sup.Runs
}
