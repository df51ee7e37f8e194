package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// inputFingerprints makes every input of a run from seed, small enough
// for a test, and returns their fingerprints.
func inputFingerprints(t *testing.T, seed int64) []string {
	t.Helper()
	db := workloadDB(seed, 200)
	folds := newUpdateSchedule(seed, db, 60, true)
	reads, err := newReadSchedule(seed, db, readPhases(time.Second, false))
	if err != nil {
		t.Fatal(err)
	}
	return []string{fingerprint(dbText(db)), folds.fingerprint(), reads.fingerprint()}
}

func TestSameSeedSameFingerprints(t *testing.T) {
	a, b := inputFingerprints(t, 7), inputFingerprints(t, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("input %d: seed 7 gave fingerprints %s and %s", i, a[i], b[i])
		}
	}
	c := inputFingerprints(t, 8)
	for i := range a {
		if a[i] == c[i] {
			t.Errorf("input %d: seeds 7 and 8 share fingerprint %s", i, a[i])
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		pct, val float64
	}{
		{1, 50, 1},     // too few samples: the median
		{11, 50, 6},    // p9 would have ten beyond; never below the median
		{20, 50, 10.5}, // p50 exactly: still the median
		{21, 100 * 11.0 / 21, 11},
		{100, 90, 90},   // p90 of 1..100, ten above
		{1000, 99, 990}, // p99
		{12000, 100 * 11990.0 / 12000, 11990},
	} {
		pct, v := tail(seq(tc.n))
		if pct != tc.pct || v != tc.val {
			t.Errorf("n=%d: tail = p%g %g, want p%g %g", tc.n, pct, v, tc.pct, tc.val)
		}
		if tc.n > 20 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond != 10 {
				t.Errorf("n=%d: %d samples beyond the tail, want 10", tc.n, beyond)
			}
		}
	}
	if pct, v := tail(nil); pct != 0 || v != 0 {
		t.Errorf("empty: tail = p%g %g", pct, v)
	}
}

func TestUpdateScheduleReplays(t *testing.T) {
	db := workloadDB(3, 200)
	s := newUpdateSchedule(3, db, 40, true)
	sizes := map[int]int{}
	for _, ops := range s.reqs {
		sizes[len(ops)]++
	}
	if sizes[1] != 32 || sizes[8] != 6 || sizes[64] != 2 || len(sizes) != 3 {
		t.Errorf("request sizes over two blocks = %v, want 32x1, 6x8, 2x64", sizes)
	}
	// Applying the ops one by one to fresh clones must reproduce dbAfter.
	cur := db.Clone()
	for i, ops := range s.reqs {
		for _, op := range ops {
			if err := applyOp(cur[op.TID], op); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
	}
	want := s.dbAfter(len(s.reqs))
	for tid := range cur {
		if !cur[tid].Equal(want[tid]) {
			t.Fatalf("graph %d differs from dbAfter", tid)
		}
	}
	if !db[0].Equal(workloadDB(3, 200)[0]) {
		t.Error("generating the schedule mutated the base database")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the harness reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no run function", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, harness reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		p := perLayer[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per_layer[%d] = %s %s %s, harness reports %s %s %s", i, m.Name, m.Unit, m.Better, p.name, p.unit, p.better)
		}
	}
}
