package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/sweep"
)

func TestServeMixSameSeedSameSequence(t *testing.T) {
	hotA, seqA := serveMix(7, 500)
	hotB, seqB := serveMix(7, 500)
	if !reflect.DeepEqual(hotA, hotB) || !reflect.DeepEqual(seqA, seqB) {
		t.Fatal("same seed gave different request sequences")
	}
	_, seqC := serveMix(8, 500)
	if reflect.DeepEqual(seqA, seqC) {
		t.Fatal("different seeds gave the same request sequence")
	}
}

func TestServeMixHitShare(t *testing.T) {
	for _, n := range []int{1, 10, 1280} {
		hot, seq := serveMix(3, n)
		if len(seq) != n {
			t.Fatalf("n=%d: got %d requests", n, len(seq))
		}
		hotBodies := map[string]bool{}
		for _, h := range hot {
			hotBodies[string(h.body)] = true
		}
		var hits, supMisses int
		unseen := map[string]bool{}
		for _, q := range seq {
			if q.hot {
				hits++
				if !hotBodies[string(q.body)] {
					t.Fatalf("hot request outside the hot set: %s", q.body)
				}
				continue
			}
			if hotBodies[string(q.body)] || unseen[string(q.body)] {
				t.Fatalf("unseen request repeats a key: %s", q.body)
			}
			unseen[string(q.body)] = true
			if q.sup != nil {
				supMisses++
			}
		}
		if want := int(math.Round(serveHotShare * float64(n))); hits != want {
			t.Fatalf("n=%d: %d hot requests, want %d", n, hits, want)
		}
		if misses := n - hits; supMisses != misses/2 {
			t.Fatalf("n=%d: %d sup misses of %d, want half rounded down", n, supMisses, misses)
		}
	}
}

func TestNSFEJobsSameSeedSameSequence(t *testing.T) {
	a, b := nsfeJobs(5, 3, 200), nsfeJobs(5, 3, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different job sequences")
	}
	seen := map[int64]bool{}
	for _, j := range a {
		if seen[j.Seed] {
			t.Fatalf("seed %d repeats, so a job would hit the cache", j.Seed)
		}
		seen[j.Seed] = true
	}
	if reflect.DeepEqual(a, nsfeJobs(6, 3, 200)) {
		t.Fatal("different seeds gave the same job sequence")
	}
}

func TestSweepSameSeedSameCells(t *testing.T) {
	keys := func(seed int64) []string {
		var out []string
		for _, s := range sweepSeeds(seed, 16) {
			sw, err := sweep.Plan(certifySpec(s))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range sw.Cells {
				out = append(out, c.Key)
			}
		}
		return out
	}
	a := keys(9)
	if len(a) == 0 || !reflect.DeepEqual(a, keys(9)) {
		t.Fatal("same seed gave a different cell sequence")
	}
	if reflect.DeepEqual(a, keys(10)) {
		t.Fatal("different seeds gave the same cell sequence")
	}
}

// TestRebuildCellMatchesSweep checks the ladder's reconstruction of
// cells against the sweep's own measurement, record for record.
func TestRebuildCellMatchesSweep(t *testing.T) {
	spec := certifySpec(4)
	spec.Runs, spec.SupRuns = 60, 60
	sw, err := sweep.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	var rung coreRung
	tr := NewTracer()
	for i := range sw.Cells {
		rec, err := sw.RunCellIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Adv == "sup-search" {
			continue // covered by the traced sweep-certify run
		}
		c, err := rebuildCell(rec)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := rung.replayEstimate(tr, 0, rec.Key, c.proto, c.adv, c.gamma, c.sampler, rec.Runs, rec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Utility.Mean != rec.Mean || rep.Utility.HalfWidth != rec.HalfWidth {
			t.Fatalf("cell %s: replay %v, sweep mean %v ± %v", rec.Key, rep.Utility, rec.Mean, rec.HalfWidth)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// top [0,100): nested children [10,30) and [20,50) overlap on
	// [20,30), so they cover 40; a replay child of 15 is subtracted
	// whole. Child [20,50) has a nested child running past its end,
	// clipped to [40,50).
	spans := []Span{
		{ID: 1, Name: "top", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, Dur: 20},
		{ID: 3, Parent: 1, Name: "b", Start: 20, Dur: 30},
		{ID: 4, Parent: 1, Name: "replay", Start: 500, Dur: 15, Replay: true},
		{ID: 5, Parent: 3, Name: "b.child", Start: 40, Dur: 25},
	}
	got := SelfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 15, 2: 20, 3: 30 - 10, 4: 15, 5: 25}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}

	// A ladder whose children neither overlap nor overrun sums to its
	// top span.
	ladder := []Span{
		{ID: 1, Name: "http", Start: 0, Dur: 1000},
		{ID: 2, Parent: 1, Name: "service", Start: 2000, Dur: 800, Replay: true},
		{ID: 3, Parent: 2, Name: "core", Start: 3000, Dur: 600, Replay: true},
		{ID: 4, Parent: 3, Name: "phase", Start: 3000, Dur: 450, Replay: true},
		{ID: 5, Parent: 1, Name: "nested", Start: 100, Dur: 50},
		{ID: 6, Parent: 1, Name: "nested", Start: 300, Dur: 50},
	}
	var sum int64
	for _, v := range SelfTimes(ladder) {
		sum += v
	}
	if sum != 1000 {
		t.Fatalf("ladder self times sum to %d, want the top span's 1000", sum)
	}
	if tops, bad := UnbalancedLadders(ladder); tops != 1 || bad != 0 {
		t.Fatalf("UnbalancedLadders(ladder) = %d, %d; want 1, 0", tops, bad)
	}
	if tops, bad := UnbalancedLadders(spans); tops != 1 || bad != 1 {
		t.Fatalf("UnbalancedLadders(overlapping) = %d, %d; want 1, 1", tops, bad)
	}
}

func TestQuantileAndBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if q := quantile(xs, 0.9); q != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90", q)
	}
	if b := beyond(100, 0.9); b != 10 {
		t.Fatalf("beyond p90 of 100 = %d, want 10", b)
	}
	if b := beyond(1280, 0.99); b < 10 {
		t.Fatalf("serve-mixed p99 rests on %d samples beyond it", b)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, harness %v", names, have)
	}
	check := func(kind string, decl []struct{ Name, Unit string }, harness []struct{ name, unit string }) {
		if len(decl) != len(harness) {
			t.Fatalf("%s: %d declared, %d in the harness", kind, len(decl), len(harness))
		}
		for i := range decl {
			if decl[i].Name != harness[i].name || decl[i].Unit != harness[i].unit {
				t.Fatalf("%s %d: declared %v, harness %v", kind, i, decl[i], harness[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
