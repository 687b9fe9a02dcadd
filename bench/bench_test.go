package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The test binary doubles as the load-generator process, exactly as
// the bench binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(loadgenEnv); spec != "" {
		os.Exit(loadgenChild(spec))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload for one second in both modes and checks
// what does not depend on timing: BENCHMARK.json and the program agree
// on every metric name, no request fails, the isolation gates hold,
// spans nest, and the ledger sums to its total.
func TestSmoke(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Workloads); got != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", got, len(workloadNames))
	}
	// The runs mostly wait on beacons and flush timers, so all four go
	// at once (t.Parallel would cap them at GOMAXPROCS).
	var wg sync.WaitGroup
	for i, name := range workloadNames {
		if m.Workloads[i].Name != name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the program has %q", i, m.Workloads[i].Name, name)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			smokeWorkload(t, m, name, t.TempDir())
		}()
	}
	wg.Wait()
}

func smokeWorkload(t *testing.T, m *manifest, name, out string) {
	for trace, defs := range [][]metricDef{m.EndToEnd, m.PerLayer} {
		opt := options{workload: name, seed: 7, seconds: 1, trace: trace, setUps: 1, outDir: out}
		// run fails unless every name in defs was emitted exactly once
		// with a finite value and nothing else was emitted.
		r, err := run(context.Background(), m, opt)
		if err != nil {
			t.Errorf("%s trace=%d: %v", name, trace, err)
			return
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s trace=%d: %d metrics emitted, BENCHMARK.json names %d", name, trace, len(r.Metrics), len(defs))
		}
		if r.Attempted == 0 || r.Failed != 0 {
			t.Errorf("%s trace=%d: attempted=%d failed=%d reasons=%v", name, trace, r.Attempted, r.Failed, r.Reasons)
		}
		for _, g := range r.Gates {
			// Half a second of Zipf traffic is too short a sample to
			// hold the hit-rate band every time.
			if !strings.Contains(g, "hit rate") {
				t.Errorf("%s trace=%d: gate failed: %s", name, trace, g)
			}
		}
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil {
			t.Errorf("%s trace=%d: %v", name, trace, err)
			return
		}
		if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defs) {
			t.Errorf("%s trace=%d: malformed result line %s", name, trace, r.contractLine())
		}
		if trace == 1 {
			checkLedger(t, r)
			checkSpans(t, filepath.Join(out, "trace_"+name+".json"))
		}
	}
}

func checkLedger(t *testing.T, r *report) {
	t.Helper()
	var sum float64
	for _, l := range r.Ledger {
		sum += l.US
	}
	if r.LedgerSum <= 0 || math.Abs(sum-r.LedgerSum) > 0.01*r.LedgerSum {
		t.Errorf("ledger lines sum to %.1f µs, total is %.1f µs", sum, r.LedgerSum)
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	var spans []span
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &spans)
	}
	if err != nil || len(spans) == 0 {
		t.Errorf("%s: %d spans, err %v", path, len(spans), err)
		return
	}
	byID := map[int]span{}
	roots := map[int]int{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			roots[s.Trace]++
		}
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok || p.Trace != s.Trace:
			t.Errorf("span %d (%s) has no parent in its trace", s.ID, s.Name)
		case s.Start < p.Start || s.End > p.End:
			t.Errorf("span %d (%s) is not within its parent %s", s.ID, s.Name, p.Name)
		}
	}
	for trace, n := range roots {
		if n != 1 {
			t.Errorf("trace %d has %d roots", trace, n)
		}
	}
	for _, s := range spans {
		if roots[s.Trace] == 0 {
			t.Errorf("trace %d has no root", s.Trace)
			break
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("got %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("got %v, %v; want 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	tight := func(v float64) metric { return metric{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	for _, tc := range []struct {
		def  metricDef
		a, b metric
		want string
	}{
		{lower, tight(100), tight(105), verdictSame},
		{lower, tight(100), tight(115), verdictWorse},
		{lower, tight(100), tight(85), verdictBetter},
		{higher, tight(100), tight(85), verdictWorse},
		{higher, tight(100), tight(115), verdictBetter},
		{lower, tight(100), metric{Value: 100, Q1: 90, Q3: 110}, verdictUnresolved},
	} {
		if _, got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: got %s, want %s", tc.def.Better, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}
