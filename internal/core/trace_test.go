package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stub"
	"repro/internal/vcache"
)

// TestDistillationResultWritesAtOnce: a distillation's result leaves the
// worker's process by its sender's own write, not the flush timer's.
// Over 160 sequential misses on distinct URLs, every one traced, the
// transport.flush spans the worker's process records for wrk.result
// read a p50 under 300 µs; a result that waits for the timer reads
// ≈ 1.1 ms. The writes the timer ran per request are logged beside it.
func TestDistillationResultWritesAtOnce(t *testing.T) {
	sysA, sysB := startPair(t, func(a, b *Config) {
		a.TraceSampleRate = 1
		b.TraceSampleRate = 1
	})
	traces := tracedRequests(t, sysA, sysB, 160, func(i int) string {
		return fmt.Sprintf("http://origin%d.example/prompt%d.sjpg", i%4, i)
	})
	if p50 := flushP50(t, sysB.Tracer(), traces, stub.MsgResult); p50 >= 300*time.Microsecond {
		t.Fatalf("wrk.result flush p50 %v, want < 300µs: the result waited for the flush timer", p50)
	}
}

// TestCacheProbeWritesAtOnce: a cache probe's request leaves the front
// end's process by its caller's own write, as every Call's request does.
// Over 160 sequential hits on 16 warmed URLs, every one traced, the
// transport.flush spans the front end's process records for cache.get
// read a p50 under 300 µs. The answer, a small reply, still waits one
// tick: the cache's process runs about one timer write per request.
func TestCacheProbeWritesAtOnce(t *testing.T) {
	sysA, sysB := startPair(t, func(a, b *Config) {
		a.TraceSampleRate = 1
		b.TraceSampleRate = 1
	})
	url := func(i int) string { return fmt.Sprintf("http://origin%d.example/probe%d.sjpg", i%4, i%16) }
	tracedRequests(t, sysA, sysB, 16, url) // the misses that warm the cache
	traces := tracedRequests(t, sysA, sysB, 160, url)
	if p50 := flushP50(t, sysA.Tracer(), traces, vcache.MsgGet); p50 >= 300*time.Microsecond {
		t.Fatalf("cache.get flush p50 %v, want < 300µs: the probe waited for the flush timer", p50)
	}
}

// tracedRequests runs n sequential requests on feSide, the i-th for
// url(i), and returns their trace ids. It logs the writes each process's
// flush timer ran per request meanwhile.
func tracedRequests(t *testing.T, feSide, mgrSide *System, n int, url func(int) string) []obs.TraceID {
	t.Helper()
	timerA, timerB := feSide.Bridge.Stats().TimerWrites, mgrSide.Bridge.Stats().TimerWrites
	traces := make([]obs.TraceID, 0, n)
	for i := 0; i < n; i++ {
		rctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		resp, err := feSide.Request(rctx, url(i), "alice")
		cancel()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		traces = append(traces, resp.Trace)
	}
	t.Logf("%d requests; timer writes per request: front-end process %.2f, cache and worker process %.2f", n,
		float64(feSide.Bridge.Stats().TimerWrites-timerA)/float64(n),
		float64(mgrSide.Bridge.Stats().TimerWrites-timerB)/float64(n))
	return traces
}

// flushP50 waits until tr holds 100 transport.flush spans of kind among
// traces and returns their median.
func flushP50(t *testing.T, tr *obs.Tracer, traces []obs.TraceID, kind string) time.Duration {
	t.Helper()
	var durs []int64
	waitFor(t, "100 "+kind+" flush spans", func() bool {
		durs = durs[:0]
		for _, id := range traces {
			for _, sp := range tr.Spans(id) {
				if sp.Hop == "transport.flush" && sp.Note == kind {
					durs = append(durs, sp.Dur)
				}
			}
		}
		return len(durs) >= 100
	})
	slices.Sort(durs)
	p50 := time.Duration(durs[len(durs)/2])
	t.Logf("%d %s flushes, p50 %v", len(durs), kind, p50)
	return p50
}

// TestMultiProcessTracePropagation is the acceptance test for the
// observability tentpole run in-binary: with sampling at 1, a request
// served across two bridged processes leaves one trace id whose span
// tree — queried on the front-end process alone — decomposes the
// request into front-end, dispatch, and worker hops recorded by BOTH
// processes (the worker-side spans arrive via span-digest multicast on
// the report group, which A's monitor alone hears), while B answers for
// its own spans only.
func TestMultiProcessTracePropagation(t *testing.T) {
	sysA, sysB := startPair(t, func(a, b *Config) {
		a.TraceSampleRate = 1
		b.TraceSampleRate = 1
	})
	ctx := context.Background()

	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	resp, err := sysA.Request(rctx, "http://origin0.example/trace0.sjpg", "alice")
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Trace.Valid() || !resp.Trace.Sampled() {
		t.Fatalf("response trace id %v not a sampled trace", resp.Trace)
	}

	// The worker-side spans cross back on the next report tick; poll the
	// FE-side tracer until the tree spans both processes.
	hopsOf := func(tr *obs.Tracer) map[string]string { // hop -> proc
		out := make(map[string]string)
		for _, sp := range tr.Spans(resp.Trace) {
			out[sp.Hop] = sp.Proc
		}
		return out
	}
	waitFor(t, "cluster-wide span tree on the FE process", func() bool {
		hops := hopsOf(sysA.Tracer())
		_, hasQueue := hops["worker.queue"]
		_, hasService := hops["worker.service"]
		_, hasRoot := hops[obs.RootHop]
		return hasQueue && hasService && hasRoot
	})

	hops := hopsOf(sysA.Tracer())
	procs := make(map[string]bool)
	for _, proc := range hops {
		procs[proc] = true
	}
	if len(procs) < 2 {
		t.Fatalf("span tree covers %d process(es), want >= 2: %v", len(procs), hops)
	}
	if hops[obs.RootHop] != "a-" || hops["worker.service"] != "b-" {
		t.Fatalf("hops attributed to wrong processes: %v", hops)
	}
	for _, hop := range []string{"fe.admit", "fe.cache", "dispatch"} {
		if _, ok := hops[hop]; !ok {
			t.Fatalf("span tree missing hop %q: %v", hop, hops)
		}
	}

	// Digests go to the monitor alone. Once A's reporter has published
	// the root span (A's monitor has folded it in), B — which hosts no
	// monitor — still holds only what it recorded itself.
	waitFor(t, "the root span in the monitor's hop table", func() bool {
		for _, h := range sysA.Mon.HopBreakdown() {
			if h.Hop == obs.RootHop {
				return true
			}
		}
		return false
	})
	time.Sleep(3 * tick) // room for the same digest to cross to B, were B listening
	bSpans := sysB.Tracer().Spans(resp.Trace)
	if len(bSpans) == 0 {
		t.Fatal("B's tracer holds none of its own spans of the request")
	}
	for _, sp := range bSpans {
		if sp.Proc != "b-" {
			t.Fatalf("B's tracer holds a span recorded by %q: %+v", sp.Proc, sp)
		}
	}

	// Queue-wait vs service decomposition: both worker spans carry
	// non-negative durations and the service span names the class.
	for _, sp := range sysA.Tracer().Spans(resp.Trace) {
		if sp.Dur < 0 {
			t.Fatalf("negative span duration: %+v", sp)
		}
		if sp.Hop == "worker.service" && sp.Note == "" {
			t.Fatalf("service span missing class note: %+v", sp)
		}
	}
}
