package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := TraceID(0xdeadbeef01)
	got, err := ParseTraceID(id.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got != id {
		t.Fatalf("round trip: got %v want %v", got, id)
	}
	if _, err := ParseTraceID("zz"); err == nil {
		t.Fatal("expected error for bad hex")
	}
	if TraceID(0).Valid() {
		t.Fatal("zero id must be invalid")
	}
}

// Sampling must be deterministic given the seed and mint order, and
// honor the 1-in-rate contract exactly.
func TestSamplerDeterministic(t *testing.T) {
	mint := func(seed uint64, rate, n int) ([]TraceID, int) {
		tr := NewTracer(seed, 0)
		tr.SetSampleRate(rate)
		ids := make([]TraceID, n)
		sampled := 0
		for i := range ids {
			ids[i] = tr.NewTrace()
			if ids[i].Sampled() {
				sampled++
			}
		}
		return ids, sampled
	}

	a, na := mint(42, 8, 256)
	b, nb := mint(42, 8, 256)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mint %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	if na != nb || na != 256/8 {
		t.Fatalf("sampled %d/%d, want exactly %d", na, nb, 256/8)
	}

	c, _ := mint(43, 8, 256)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical id streams")
	}

	if _, n := mint(1, 1, 100); n != 100 {
		t.Fatalf("rate 1 sampled %d/100", n)
	}
	if _, n := mint(1, 0, 100); n != 0 {
		t.Fatalf("rate 0 sampled %d/100", n)
	}
	tr := NewTracer(1, 0)
	tr.SetSampleRate(0)
	if id := tr.NewTrace(); !id.Valid() || id.Sampled() {
		t.Fatalf("rate 0 must still mint valid unsampled ids, got %v", id)
	}
}

func TestRecordRespectsSampling(t *testing.T) {
	tr := NewTracer(7, 16)
	tr.SetProc("p0")
	unsampled := TraceID(2)
	sampled := TraceID(3)

	tr.Record(Span{Trace: unsampled, Hop: "x"})
	if got := tr.Spans(unsampled); len(got) != 0 {
		t.Fatalf("unsampled trace recorded: %v", got)
	}
	tr.ForceRecord(Span{Trace: unsampled, Hop: "fe.admit", Note: "shed"})
	if got := tr.Spans(unsampled); len(got) != 1 || got[0].Proc != "p0" {
		t.Fatalf("forced span missing or proc unset: %v", got)
	}
	tr.Record(Span{Trace: sampled, Hop: "x", Proc: "other"})
	if got := tr.Spans(sampled); len(got) != 1 || got[0].Proc != "other" {
		t.Fatalf("explicit proc overwritten: %v", got)
	}
}

func TestRingEviction(t *testing.T) {
	const cap = 8
	tr := NewTracer(1, cap)
	id := TraceID(3)
	for i := 0; i < cap+3; i++ {
		tr.Record(Span{Trace: id, Hop: "h", Start: int64(i)})
	}
	got := tr.Spans(id)
	if len(got) != cap {
		t.Fatalf("ring held %d spans, want %d", len(got), cap)
	}
	// Oldest three must be gone, order by start preserved.
	if got[0].Start != 3 || got[len(got)-1].Start != cap+2 {
		t.Fatalf("wrong eviction window: first=%d last=%d", got[0].Start, got[len(got)-1].Start)
	}
}

func TestTakeNewPublishesLocalOnly(t *testing.T) {
	tr := NewTracer(1, 16)
	id := TraceID(5)
	tr.Record(Span{Trace: id, Hop: "a"})
	tr.Ingest([]Span{{Trace: id, Hop: "remote", Proc: "peer"}})
	tr.Record(Span{Trace: id, Hop: "b"})

	got := tr.TakeNew(100)
	if len(got) != 2 || got[0].Hop != "a" || got[1].Hop != "b" {
		t.Fatalf("TakeNew leaked ingested spans or dropped local ones: %+v", got)
	}
	if again := tr.TakeNew(100); len(again) != 0 {
		t.Fatalf("TakeNew returned spans twice: %+v", again)
	}
	// All three (local + ingested) remain queryable.
	if all := tr.Spans(id); len(all) != 3 {
		t.Fatalf("Spans=%d want 3", len(all))
	}
}

// TestIngestDropsOwnProc: a digest carrying spans this process recorded
// (the monitor hears its own process's reporter too) stores them once.
func TestIngestDropsOwnProc(t *testing.T) {
	tr := NewTracer(1, 16)
	tr.SetProc("a-")
	id := TraceID(5)
	tr.Record(Span{Trace: id, Hop: "fe.request", Start: 1})
	tr.Ingest(append(tr.TakeNew(100), Span{Trace: id, Hop: "worker.service", Proc: "b-", Start: 2}))
	got := tr.Spans(id)
	if len(got) != 2 || got[0].Proc != "a-" || got[1].Proc != "b-" {
		t.Fatalf("Spans = %+v, want the local fe.request once and b-'s worker.service", got)
	}
}

func TestTakeNewSkipsEvicted(t *testing.T) {
	tr := NewTracer(1, 4)
	id := TraceID(7)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Trace: id, Start: int64(i)})
	}
	got := tr.TakeNew(100)
	if len(got) != 4 || got[0].Start != 6 {
		t.Fatalf("expected last 4 spans after overflow, got %+v", got)
	}
}

func TestSlowRequestLog(t *testing.T) {
	tr := NewTracer(1, 16)
	tr.SetProc("p0")
	tr.SetSlowThreshold(10 * time.Millisecond)
	var mu sync.Mutex
	var lines []string
	tr.SetLogf(func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	id := TraceID(9)
	tr.Record(Span{Trace: id, Hop: "worker.service", Comp: "w0", Dur: int64(8 * time.Millisecond)})
	tr.Record(Span{Trace: id, Hop: RootHop, Comp: "fe0", Dur: int64(20 * time.Millisecond)})
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 3 {
		t.Fatalf("slow log lines=%d want 3: %v", len(lines), lines)
	}
	if !strings.Contains(lines[0], id.String()) || !strings.Contains(lines[0], "20ms") {
		t.Fatalf("bad slow header: %q", lines[0])
	}

	// Under threshold: no new output.
	tr.Record(Span{Trace: TraceID(11), Hop: RootHop, Dur: int64(time.Millisecond)})
	if len(lines) != 3 {
		t.Fatalf("fast request logged: %v", lines)
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != 0 {
		t.Fatal("empty ctx must carry no trace")
	}
	ctx2 := WithTrace(ctx, TraceID(21))
	if TraceFrom(ctx2) != TraceID(21) {
		t.Fatal("trace did not round-trip through ctx")
	}
	if WithTrace(ctx, 0) != ctx {
		t.Fatal("zero trace should not wrap the ctx")
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fe.fe0.requests")
	c.Add(3)
	c.Inc()
	if r.Counter("fe.fe0.requests") != c {
		t.Fatal("counter not deduped by name")
	}
	g := r.Gauge("fe.fe0.queue")
	g.Set(2.5)
	h := r.Histogram("fe.latency", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	r.SetCollector("san", func(emit func(string, float64)) {
		emit("delivered", 7)
	})

	snap := r.Snapshot()
	want := map[string]float64{
		"fe.fe0.requests":  4,
		"fe.fe0.queue":     2.5,
		"fe.latency.count": 3,
		"fe.latency.sum":   555,
		"san.delivered":    7,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Fatalf("snapshot[%q]=%v want %v (full: %v)", k, snap[k], v, snap)
		}
	}

	r.SetCollector("san", func(emit func(string, float64)) { emit("delivered", 9) })
	if snap := r.Snapshot(); snap["san.delivered"] != 9 {
		t.Fatalf("collector not replaced: %v", snap["san.delivered"])
	}
	if one := r.Collect("san"); len(one) != 1 || one["delivered"] != 9 {
		t.Fatalf("Collect(san) = %v, want the one collector's emissions unprefixed", one)
	}
	r.DropCollector("san")
	if _, ok := r.Snapshot()["san.delivered"]; ok {
		t.Fatal("dropped collector still emitting")
	}
	if one := r.Collect("san"); len(one) != 0 {
		t.Fatalf("Collect of a dropped collector = %v", one)
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("fe.fe0.requests").Add(4)
	r.Gauge("san.inflight").Set(1.5)
	h := r.Histogram("fe.latency", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE sns_fe_fe0_requests counter",
		"sns_fe_fe0_requests 4",
		"# TYPE sns_san_inflight gauge",
		"sns_san_inflight 1.5",
		"# TYPE sns_fe_latency histogram",
		`sns_fe_latency_bucket{le="10"} 1`,
		`sns_fe_latency_bucket{le="100"} 2`,
		`sns_fe_latency_bucket{le="+Inf"} 3`,
		"sns_fe_latency_sum 555",
		"sns_fe_latency_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	tr := NewTracer(3, 64)
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := tr.NewTrace()
				tr.Record(Span{Trace: id, Hop: "h", Start: int64(i)})
				r.Counter("c").Inc()
				r.Histogram("h", nil).Observe(float64(i))
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		_ = r.Snapshot()
		_ = tr.TakeNew(32)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 2000 {
		t.Fatalf("counter=%d want 2000", got)
	}
}
