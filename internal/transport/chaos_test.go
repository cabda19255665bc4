package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/protocols/contract"
	"repro/internal/protocols/multiparty"
	"repro/internal/sim"
)

// chaosTimeout is the round timeout for chaos tests: long enough that a
// loaded CI machine never trips it spuriously, short enough that the
// recovery paths (which cost ~1×RoundTimeout per healed fault) keep the
// suite fast.
const chaosTimeout = 250 * time.Millisecond

func mustConcat(t *testing.T, n, bits int) multiparty.Function {
	t.Helper()
	fn, err := multiparty.Concat(n, bits)
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// inMemoryTrace runs the fault-free reference execution.
func inMemoryTrace(t *testing.T, proto sim.Protocol, inputs []sim.Value, seed int64) *sim.Trace {
	t.Helper()
	tr, err := sim.Run(proto, inputs, sim.Passive{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// assertByteIdentical checks that the session's outputs equal the
// reference outputs byte-for-byte under the session codec — the
// resilience layer's healing guarantee.
func assertByteIdentical(t *testing.T, label string, got, want map[sim.PartyID]sim.OutputRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d outputs, want %d", label, len(got), len(want))
		return
	}
	codec := GobCodec{}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Errorf("%s: party %d missing output", label, id)
			continue
		}
		if g.OK != w.OK {
			t.Errorf("%s: party %d OK=%v, want %v", label, id, g.OK, w.OK)
			continue
		}
		if !w.OK {
			continue
		}
		gb, err := codec.Encode(g.Value)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := codec.Encode(w.Value)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: party %d output %v not byte-identical to fault-free %v", label, id, g.Value, w.Value)
		}
	}
}

// runReportGuarded runs one session under an outer watchdog so a
// regression can never hang the suite.
func runReportGuarded(t *testing.T, proto sim.Protocol, inputs []sim.Value, seed int64, cfg SessionConfig) *SessionReport {
	t.Helper()
	type result struct {
		rep *SessionReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := RunSessionReport(proto, inputs, seed, cfg)
		done <- result{rep, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("session error: %v", res.err)
		}
		return res.rep
	case <-time.After(30 * time.Second):
		t.Fatal("chaos session hung")
		return nil
	}
}

// TestChaosMatrixRecoverableFaults is the seeded chaos matrix: protocol
// × fault schedule, every fault transient. Each cell must (a) heal —
// no fail-stops, outputs byte-identical to the fault-free in-memory
// run, observer metrics identical to an in-memory observed run — and
// (b) replay deterministically across a second run of the same
// (seed, schedule).
func TestChaosMatrixRecoverableFaults(t *testing.T) {
	register()
	protocols := []struct {
		name   string
		proto  sim.Protocol
		inputs []sim.Value
		seed   int64
	}{
		{"pi1", contract.Pi1{}, []sim.Value{uint64(101), uint64(202)}, 3},
		{"optn3", multiparty.NewOptN(mustConcat(t, 3, 8)), []sim.Value{uint64(1), uint64(2), uint64(3)}, 5},
	}
	schedules := []struct {
		name        string
		rules       []faultinject.Rule
		needsResume bool
	}{
		{"drop-setup", []faultinject.Rule{
			{Party: 1, Dir: faultinject.DirHostToClient, Seq: 1, Op: faultinject.Drop}}, true},
		{"drop-inbox-r1", []faultinject.Rule{
			{Party: 1, Dir: faultinject.DirHostToClient, Round: 1, Op: faultinject.Drop}}, true},
		{"drop-batch-r1", []faultinject.Rule{
			{Party: 2, Dir: faultinject.DirClientToHost, Round: 1, Op: faultinject.Drop}}, true},
		{"duplicate-batch", []faultinject.Rule{
			{Party: 2, Dir: faultinject.DirClientToHost, Round: 1, Op: faultinject.Duplicate}}, false},
		{"reorder-inbox", []faultinject.Rule{
			{Party: 1, Dir: faultinject.DirHostToClient, Round: 1, Op: faultinject.Reorder}}, true},
		{"corrupt-batch", []faultinject.Rule{
			{Party: 2, Dir: faultinject.DirClientToHost, Round: 1, Op: faultinject.Corrupt}}, true},
		{"disconnect-after-inbox", []faultinject.Rule{
			{Party: 1, Dir: faultinject.DirHostToClient, Round: 1, Op: faultinject.Disconnect}}, true},
		{"delay-inbox", []faultinject.Rule{
			{Party: 1, Dir: faultinject.DirHostToClient, Round: 1, Op: faultinject.Delay, Delay: 30 * time.Millisecond}}, false},
	}
	for _, pc := range protocols {
		ref := inMemoryTrace(t, pc.proto, pc.inputs, pc.seed)
		var refMetrics sim.Metrics
		if _, err := sim.RunObserved(pc.proto, pc.inputs, sim.Passive{}, pc.seed, &refMetrics); err != nil {
			t.Fatal(err)
		}
		for _, sc := range schedules {
			t.Run(pc.name+"/"+sc.name, func(t *testing.T) {
				var reports [2]*SessionReport
				for i := range reports {
					var m sim.Metrics
					cfg := SessionConfig{
						RoundTimeout: chaosTimeout,
						Fault:        faultinject.NewSchedule(sc.rules...),
						Observers:    []sim.Observer{&m},
					}
					reports[i] = runReportGuarded(t, pc.proto, pc.inputs, pc.seed, cfg)
					if len(reports[i].FailStops) != 0 {
						t.Fatalf("run %d: transient fault fail-stopped: %+v", i, reports[i].FailStops)
					}
					assertByteIdentical(t, fmt.Sprintf("run %d", i), reports[i].Outputs, ref.HonestOutputs)
					if m != refMetrics {
						t.Errorf("run %d: session metrics %+v differ from in-memory %+v", i, m, refMetrics)
					}
				}
				if sc.needsResume && reports[0].Resumes == 0 {
					t.Error("fault healed without any resume handshake — schedule did not exercise recovery")
				}
				assertByteIdentical(t, "determinism", reports[1].Outputs, reports[0].Outputs)
			})
		}
	}
}

// TestChaosRandomProfileHeals drives the seeded Random injector at low
// transient rates: the whole run is a pure function of (seed, profile),
// so outputs must stay byte-identical to the fault-free run and to a
// replay of the same seed.
func TestChaosRandomProfileHeals(t *testing.T) {
	register()
	proto := multiparty.NewOptN(mustConcat(t, 3, 8))
	inputs := []sim.Value{uint64(4), uint64(5), uint64(6)}
	prof := faultinject.Profile{
		Drop: 0.03, Delay: 0.05, Duplicate: 0.04, Reorder: 0.02, Corrupt: 0.02, Disconnect: 0.02,
		MaxDelay: 4 * time.Millisecond,
	}
	for seed := int64(1); seed <= 3; seed++ {
		ref := inMemoryTrace(t, proto, inputs, seed)
		var reports [2]*SessionReport
		for i := range reports {
			inj, err := faultinject.NewRandom(seed, prof)
			if err != nil {
				t.Fatal(err)
			}
			cfg := SessionConfig{RoundTimeout: chaosTimeout, Fault: inj, MaxResumes: 64}
			reports[i] = runReportGuarded(t, proto, inputs, seed, cfg)
			if len(reports[i].FailStops) != 0 {
				t.Fatalf("seed %d run %d: transient profile fail-stopped: %+v", seed, i, reports[i].FailStops)
			}
			assertByteIdentical(t, fmt.Sprintf("seed %d run %d", seed, i), reports[i].Outputs, ref.HonestOutputs)
		}
		assertByteIdentical(t, fmt.Sprintf("seed %d determinism", seed), reports[1].Outputs, reports[0].Outputs)
	}
}

// TestChaosClientCrashMidRound kills one party at its round-k batch:
// the session must terminate within the recovery budget with a
// deterministic fail-stop verdict naming the party, the round, and a
// connection-loss cause, while the survivors finish the run.
func TestChaosClientCrashMidRound(t *testing.T) {
	register()
	proto := multiparty.NewOptN(mustConcat(t, 3, 8))
	inputs := []sim.Value{uint64(7), uint64(8), uint64(9)}
	killRound := 2
	if proto.NumRounds() < killRound {
		killRound = 1
	}
	var verdicts [2]sim.FailStopInfo
	for i := range verdicts {
		var m sim.Metrics
		cfg := SessionConfig{
			RoundTimeout: chaosTimeout,
			Fault: faultinject.NewSchedule(faultinject.Rule{
				Party: 2, Dir: faultinject.DirClientToHost, Round: killRound, Op: faultinject.Kill,
			}),
			Observers: []sim.Observer{&m},
		}
		start := time.Now()
		rep := runReportGuarded(t, proto, inputs, 11, cfg)
		elapsed := time.Since(start)

		info, ok := rep.FailStops[2]
		if !ok {
			t.Fatalf("run %d: no fail-stop verdict for killed party 2: %+v", i, rep.FailStops)
		}
		verdicts[i] = info
		if info.Round != killRound {
			t.Errorf("run %d: fail-stop round = %d, want %d", i, info.Round, killRound)
		}
		if !strings.Contains(info.Cause, "connection lost") {
			t.Errorf("run %d: fail-stop cause %q does not name the connection loss", i, info.Cause)
		}
		if m.FailStops != 1 {
			t.Errorf("run %d: Metrics.FailStops = %d, want 1", i, m.FailStops)
		}
		for _, id := range []sim.PartyID{1, 3} {
			if _, ok := rep.Outputs[id]; !ok {
				t.Errorf("run %d: surviving party %d has no output record", i, id)
			}
		}
		if _, ok := rep.Outputs[2]; ok {
			t.Errorf("run %d: killed party 2 has an output record", i)
		}
		if want, ok := rep.ClientErrors[2]; !ok || !strings.Contains(want, "killed") {
			t.Errorf("run %d: ClientErrors[2] = %q, want the kill sentinel", i, want)
		}
		// Fatal faults must terminate within the recovery budget: kill
		// detection costs at most 2×RoundTimeout on top of the normal
		// session; the ceiling leaves slack for CI scheduling.
		if budget := 2*cfg.RoundTimeout + 2*time.Second; elapsed > budget {
			t.Errorf("run %d: session took %v, want under %v", i, elapsed, budget)
		}
	}
	if verdicts[0] != verdicts[1] {
		t.Errorf("fail-stop verdict not deterministic: %+v vs %+v", verdicts[0], verdicts[1])
	}
}

// TestChaosConnectionResetDuringSetup covers a peer whose connection
// resets right after the handshake, before any round traffic: the host
// must fail-stop it at round 1 with a connection-loss cause.
func TestChaosConnectionResetDuringSetup(t *testing.T) {
	register()
	proto := contract.Pi1{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	cfg := SessionConfig{Codec: GobCodec{}, RoundTimeout: chaosTimeout}

	go func() { _ = runClient(ln.Addr().String(), proto, 1, uint64(5), cfg) }()
	// Party 2 completes hello/welcome and immediately drops the line.
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return
		}
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		_ = enc.Encode(frame{Kind: kindHello, ID: 2})
		var w frame
		_ = dec.Decode(&w)
		_ = conn.Close()
	}()

	type result struct {
		rep *SessionReport
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := hostSessionReport(ln, proto, []sim.Value{uint64(5), uint64(6)}, 1, cfg)
		done <- result{rep, err}
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("host hung on reset peer")
	}
	if res.err != nil {
		t.Fatalf("host errored instead of degrading: %v", res.err)
	}
	info, ok := res.rep.FailStops[2]
	if !ok {
		t.Fatalf("no fail-stop verdict for reset party 2: %+v", res.rep.FailStops)
	}
	if info.Round != 1 {
		t.Errorf("fail-stop round = %d, want 1 (first traffic after setup)", info.Round)
	}
	if !strings.Contains(info.Cause, "connection lost") && !strings.Contains(info.Cause, "stall") {
		t.Errorf("fail-stop cause %q names neither loss nor stall", info.Cause)
	}
}

// TestAcceptPhaseReportsMissingParties pins the bounded accept phase:
// when a party never connects, the session fails within AcceptTimeout
// and the error names exactly the missing parties.
func TestAcceptPhaseReportsMissingParties(t *testing.T) {
	register()
	proto := contract.Pi1{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	cfg := SessionConfig{Codec: GobCodec{}, RoundTimeout: chaosTimeout, AcceptTimeout: 300 * time.Millisecond}

	go func() { _ = runClient(ln.Addr().String(), proto, 1, uint64(5), cfg) }()

	done := make(chan error, 1)
	go func() {
		_, err := hostSessionReport(ln, proto, []sim.Value{uint64(5), uint64(6)}, 1, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("accept phase completed without party 2")
		}
		if !strings.Contains(err.Error(), "[2]") || !strings.Contains(err.Error(), "never connected") {
			t.Errorf("accept error %q does not name the missing party", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("accept phase did not honor AcceptTimeout")
	}
}

// TestDialRetryBounded pins the client dial loop: a dead address fails
// after exactly DialAttempts tries instead of hanging or spinning.
func TestDialRetryBounded(t *testing.T) {
	// Reserve a port, then close it so dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	cfg := SessionConfig{RoundTimeout: chaosTimeout, DialTimeout: 100 * time.Millisecond, DialAttempts: 3}
	c := newClientEnd(addr, 1, cfg.link(0))
	if err := c.hello(); err == nil {
		t.Fatal("connect to dead address succeeded")
	} else if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("connect error %q does not report the attempt budget", err)
	}
}

// TestDialRetryConnectsToLateListener pins the retry/backoff path: a
// listener that appears only after the first dial attempt still gets
// the connection.
func TestDialRetryConnectsToLateListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	served := make(chan error, 1)
	go func() {
		time.Sleep(60 * time.Millisecond) // first dial attempt must miss
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			served <- err
			return
		}
		defer func() { _ = ln2.Close() }()
		conn, err := ln2.Accept()
		if err != nil {
			served <- err
			return
		}
		defer func() { _ = conn.Close() }()
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		var hello frame
		if err := dec.Decode(&hello); err != nil {
			served <- err
			return
		}
		served <- enc.Encode(frame{Kind: kindWelcome, Token: 7})
	}()

	cfg := SessionConfig{RoundTimeout: chaosTimeout, DialTimeout: 100 * time.Millisecond, DialAttempts: 6}
	c := newClientEnd(addr, 1, cfg.link(0))
	if err := c.hello(); err != nil {
		t.Fatalf("connect via retry: %v", err)
	}
	defer c.close()
	if err := <-served; err != nil {
		t.Fatalf("late listener: %v", err)
	}
	if c.token != 7 {
		t.Errorf("client token = %d, want 7 from the welcome", c.token)
	}
}

// TestChaosSoakSeededProfiles is the longer seeded soak: several
// sessions under the Random injector, one in three also killing a
// party. Every session must terminate cleanly; transient-only seeds
// must heal byte-identically, kill seeds must produce the deterministic
// fail-stop verdict.
func TestChaosSoakSeededProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	register()
	proto := multiparty.NewOptN(mustConcat(t, 3, 8))
	inputs := []sim.Value{uint64(21), uint64(22), uint64(23)}
	for seed := int64(1); seed <= 6; seed++ {
		prof := faultinject.Profile{
			Drop: 0.03, Delay: 0.04, Duplicate: 0.03, Reorder: 0.02, Corrupt: 0.02, Disconnect: 0.02,
			MaxDelay: 3 * time.Millisecond,
		}
		fatal := seed%3 == 0
		if fatal {
			prof.KillParty, prof.KillRound = 2, 1
		}
		inj, err := faultinject.NewRandom(seed, prof)
		if err != nil {
			t.Fatal(err)
		}
		cfg := SessionConfig{RoundTimeout: chaosTimeout, Fault: inj, MaxResumes: 64}
		rep := runReportGuarded(t, proto, inputs, seed, cfg)
		if fatal {
			info, ok := rep.FailStops[2]
			if !ok {
				t.Errorf("seed %d: kill profile produced no fail-stop: %+v", seed, rep.FailStops)
				continue
			}
			if !strings.Contains(info.Cause, "connection lost") {
				t.Errorf("seed %d: kill cause %q", seed, info.Cause)
			}
		} else {
			if len(rep.FailStops) != 0 {
				t.Errorf("seed %d: transient-only profile fail-stopped: %+v", seed, rep.FailStops)
				continue
			}
			ref := inMemoryTrace(t, proto, inputs, seed)
			assertByteIdentical(t, fmt.Sprintf("seed %d", seed), rep.Outputs, ref.HonestOutputs)
		}
	}
}

// TestResumeBudgetRefused pins the resume budget of the one link
// handshake both callers share: the server grants MaxResumes resumes
// and refuses the next one, even when the client's own budget would
// allow more, so a session peer fail-stops and a stream errors out
// instead of being resurrected.
func TestResumeBudgetRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"session", resumeBudgetSession},
		{"stream", resumeBudgetStream},
	} {
		t.Run(tc.name, tc.run)
	}
}

// resumeBudgetSession disconnects party 1 at rounds 1 and 2 under a
// host budget of one resume: round 1 heals, round 2 is refused, and the
// party fail-stops at round 2 within the 2×RoundTimeout recovery budget
// with the same cause on every run.
func resumeBudgetSession(t *testing.T) {
	register()
	proto := contract.Pi1{}
	inputs := []sim.Value{uint64(5), uint64(6)}
	var causes [2]string
	for i := range causes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hostCfg := SessionConfig{
			RoundTimeout: chaosTimeout,
			MaxResumes:   1,
			Fault: faultinject.NewSchedule(
				faultinject.Rule{Party: 1, Dir: faultinject.DirHostToClient, Round: 1, Op: faultinject.Disconnect},
				faultinject.Rule{Party: 1, Dir: faultinject.DirHostToClient, Round: 2, Op: faultinject.Disconnect},
			),
		}
		clientCfg := SessionConfig{RoundTimeout: chaosTimeout, MaxResumes: 64}
		clientErrs := make(chan error, len(inputs))
		for id, in := range inputs {
			go func() { clientErrs <- runClient(ln.Addr().String(), proto, sim.PartyID(id+1), in, clientCfg) }()
		}
		start := time.Now()
		rep, err := hostSessionReport(ln, proto, inputs, 1, hostCfg)
		elapsed := time.Since(start)
		_ = ln.Close()
		if err != nil {
			t.Fatalf("run %d: host errored instead of degrading: %v", i, err)
		}
		info, ok := rep.FailStops[1]
		if !ok {
			t.Fatalf("run %d: party 1 resumed past the budget: fail-stops %+v", i, rep.FailStops)
		}
		if info.Round != 2 {
			t.Errorf("run %d: fail-stop round = %d, want 2 (the refused resume)", i, info.Round)
		}
		causes[i] = info.Cause
		if !strings.Contains(info.Cause, "no resume within") {
			t.Errorf("run %d: fail-stop cause %q does not name the refused resume", i, info.Cause)
		}
		if _, ok := rep.Outputs[2]; !ok {
			t.Errorf("run %d: surviving party 2 has no output record", i)
		}
		if budget := 2*hostCfg.RoundTimeout + 2*time.Second; elapsed > budget {
			t.Errorf("run %d: session took %v, want under %v", i, elapsed, budget)
		}
		var failed int
		for range inputs {
			if <-clientErrs != nil {
				failed++
			}
		}
		if failed != 1 {
			t.Errorf("run %d: %d clients failed, want only the refused party", i, failed)
		}
	}
	if causes[0] != causes[1] {
		t.Errorf("fail-stop cause not deterministic: %q vs %q", causes[0], causes[1])
	}
}

// resumeBudgetStream breaks a stream twice under a server budget of one
// resume: the client heals the first break, and its Recv returns an
// error after the second instead of hanging, with the server's grant
// count unchanged.
func resumeBudgetStream(t *testing.T) {
	srv, err := ListenStream("127.0.0.1:0", StreamConfig{Timeout: 500 * time.Millisecond, MaxResumes: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resumes := func(ep *endpoint) int {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		return ep.resumes
	}

	served := make(chan *StreamConn, 1)
	go func() {
		sc, err := srv.Accept(5 * time.Second)
		if err != nil {
			close(served)
			return
		}
		sc.breakAll("test-induced loss")
		select {
		case <-sc.resumed: // nothing else consumes it: the server never calls Recv
		case <-time.After(5 * time.Second):
			t.Error("client never resumed the first break")
		}
		sc.breakAll("test-induced loss")
		served <- sc
	}()

	conn, err := DialStream(srv.Addr(), StreamConfig{Timeout: 500 * time.Millisecond, MaxResumes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const recvTimeout = 10 * time.Second
	start := time.Now()
	if _, err := conn.Recv(recvTimeout); err == nil {
		t.Fatal("Recv succeeded on a stream past its resume budget")
	} else if errors.Is(err, ErrStreamStalled) || time.Since(start) >= recvTimeout/2 {
		t.Fatalf("Recv waited out its deadline (%v after %v) instead of failing on the refusal", err, time.Since(start))
	}
	sc, ok := <-served
	if !ok {
		t.Fatal("server never accepted the stream")
	}
	if _, err := conn.Recv(time.Second); err == nil {
		t.Fatal("a second Recv resurrected the stream")
	}
	if got := resumes(sc.endpoint); got != 1 {
		t.Errorf("server granted %d resumes, want exactly its budget of 1", got)
	}
	if _, err := sc.Recv(time.Second); err == nil {
		t.Error("server-side Recv succeeded on the refused stream")
	}
}
