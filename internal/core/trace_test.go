package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

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
