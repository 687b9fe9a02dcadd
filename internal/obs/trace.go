package obs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request. Bit 0 carries the
// sampling decision made at mint time; the id is never zero, so a
// zero value always means "no trace attached".
type TraceID uint64

// Valid reports whether a trace is attached.
func (t TraceID) Valid() bool { return t != 0 }

// Sampled reports whether ordinary hops should record spans for this
// trace. Forced events (shed, degraded, expired) record regardless.
func (t TraceID) Sampled() bool { return t&1 == 1 }

// String renders the id as fixed-width hex, the form accepted by
// /trace?id= and emitted in X-Trace-Id.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// ParseTraceID parses the hex form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// RootHop is the span name recorded by the front end around the whole
// request; it is the span the slow-request log keys on.
const RootHop = "fe.request"

// Span is one timed hop of a traced request.
type Span struct {
	Trace TraceID `json:"trace"`
	Proc  string  `json:"proc"`           // OS-process identity (node prefix)
	Comp  string  `json:"comp"`           // component instance, e.g. "fe0", "w3"
	Hop   string  `json:"hop"`            // e.g. "fe.admit", "worker.queue"
	Note  string  `json:"note,omitempty"` // hop-specific detail: "hit", "shed", worker id
	Start int64   `json:"start"`          // unix nanoseconds
	Dur   int64   `json:"dur_ns"`
}

// DefaultSampleRate samples 1 in 64 traces.
const DefaultSampleRate = 64

const defaultRingCap = 4096

type slot struct {
	span  Span
	local bool // minted here (publishable) vs ingested from a peer
}

// Tracer mints trace ids and sinks spans into a bounded ring. All
// methods are safe for concurrent use; Record for an unsampled trace
// is a single branch.
type Tracer struct {
	rng  atomic.Uint64 // splitmix64 state, seeded
	seq  atomic.Uint64 // mints since start; drives the 1-in-rate decision
	rate atomic.Int64  // 0 = sampling off, 1 = every trace, n = 1 in n
	slow atomic.Int64  // slow-request threshold in ns; 0 = disabled

	procMu sync.Mutex
	proc   string
	logf   func(format string, args ...any)

	mu   sync.Mutex
	ring []slot
	head uint64 // spans ever recorded; next write lands at head%cap
	pub  uint64 // first sequence not yet returned by TakeNew
}

// NewTracer returns a tracer seeded for deterministic id minting and
// sampling, with a ring of ringCap spans (defaultRingCap when <= 0).
func NewTracer(seed uint64, ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = defaultRingCap
	}
	t := &Tracer{ring: make([]slot, ringCap)}
	t.rng.Store(seed*0x9e3779b97f4a7c15 + 0x1234567)
	t.rate.Store(DefaultSampleRate)
	return t
}

// SetProc sets the process identity stamped on locally recorded
// spans (typically the node prefix).
func (t *Tracer) SetProc(p string) {
	t.procMu.Lock()
	t.proc = p
	t.procMu.Unlock()
}

// SetSampleRate sets the sampling rate: n <= 0 disables sampling
// (NewTrace still mints propagating ids, none sampled), 1 samples
// every trace, n samples 1 in n.
func (t *Tracer) SetSampleRate(n int) {
	if n < 0 {
		n = 0
	}
	t.rate.Store(int64(n))
}

// SetSlowThreshold enables the slow-request log for root spans at or
// over d; d <= 0 disables it.
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slow.Store(int64(d)) }

// SetLogf sets the sink for the slow-request log (nil disables
// output; the default discards).
func (t *Tracer) SetLogf(fn func(format string, args ...any)) {
	t.procMu.Lock()
	t.logf = fn
	t.procMu.Unlock()
}

// splitmix64 step, same generator the SAN uses for deterministic
// jitter.
func (t *Tracer) next() uint64 {
	for {
		old := t.rng.Load()
		st := old + 0x9e3779b97f4a7c15
		if t.rng.CompareAndSwap(old, st) {
			z := st
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
	}
}

// NewTrace mints a fresh id. The sampling decision is deterministic
// given the seed and mint order: every rate-th mint is sampled.
func (t *Tracer) NewTrace() TraceID {
	id := t.next() &^ 1
	if id == 0 {
		id = 2
	}
	rate := t.rate.Load()
	if rate > 0 {
		if n := t.seq.Add(1); rate == 1 || n%uint64(rate) == 0 {
			id |= 1
		}
	}
	return TraceID(id)
}

// Record sinks a span if its trace is sampled; a single branch
// otherwise.
func (t *Tracer) Record(sp Span) {
	if !sp.Trace.Sampled() {
		return
	}
	t.sink(sp, true)
}

// ForceRecord sinks a span for any valid trace, sampled or not — the
// degraded/shed/expired hops use it so pathological requests always
// leave a trail.
func (t *Tracer) ForceRecord(sp Span) {
	if !sp.Trace.Valid() {
		return
	}
	t.sink(sp, true)
}

// Ingest sinks spans received from a peer's digest. They keep their
// own Proc and are not republished by TakeNew (no gossip loops). Spans
// whose Proc is this tracer's own are dropped: this process recorded
// them, so they are in the ring already.
func (t *Tracer) Ingest(spans []Span) {
	if len(spans) == 0 {
		return
	}
	t.procMu.Lock()
	self := t.proc
	t.procMu.Unlock()
	t.mu.Lock()
	for _, sp := range spans {
		if !sp.Trace.Valid() || sp.Proc == self {
			continue
		}
		t.ring[t.head%uint64(len(t.ring))] = slot{span: sp}
		t.head++
	}
	t.mu.Unlock()
}

func (t *Tracer) sink(sp Span, local bool) {
	if sp.Proc == "" {
		t.procMu.Lock()
		sp.Proc = t.proc
		t.procMu.Unlock()
	}
	t.mu.Lock()
	t.ring[t.head%uint64(len(t.ring))] = slot{span: sp, local: local}
	t.head++
	t.mu.Unlock()
	if sp.Hop == RootHop {
		if slow := t.slow.Load(); slow > 0 && sp.Dur >= slow {
			t.logSlow(sp)
		}
	}
}

func (t *Tracer) logSlow(root Span) {
	t.procMu.Lock()
	logf := t.logf
	t.procMu.Unlock()
	if logf == nil {
		return
	}
	spans := t.Spans(root.Trace)
	logf("slow request trace=%s total=%s spans=%d", root.Trace, time.Duration(root.Dur), len(spans))
	for _, sp := range spans {
		note := sp.Note
		if note != "" {
			note = " " + note
		}
		logf("  %-18s %-12s +%-12s %s%s", sp.Hop, sp.Proc+"/"+sp.Comp,
			time.Duration(sp.Start-root.Start), time.Duration(sp.Dur), note)
	}
}

// Spans returns every span in the ring for the given trace, ordered
// by start time. The result is a copy.
func (t *Tracer) Spans(id TraceID) []Span {
	if !id.Valid() {
		return nil
	}
	t.mu.Lock()
	var out []Span
	n := uint64(len(t.ring))
	lo := uint64(0)
	if t.head > n {
		lo = t.head - n
	}
	for i := lo; i < t.head; i++ {
		if s := t.ring[i%n]; s.span.Trace == id {
			out = append(out, s.span)
		}
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// TakeNew returns up to max locally recorded spans that have not been
// returned before — the digest the span reporter multicasts. Spans
// evicted before being taken are lost (bounded buffer, not a queue).
func (t *Tracer) TakeNew(max int) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.ring))
	if t.head > n && t.pub < t.head-n {
		t.pub = t.head - n // fell behind; evicted spans are gone
	}
	var out []Span
	for t.pub < t.head && len(out) < max {
		if s := t.ring[t.pub%n]; s.local {
			out = append(out, s.span)
		}
		t.pub++
	}
	return out
}

// RingLen reports how many spans are currently held (for tests and
// status output).
func (t *Tracer) RingLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.head > uint64(len(t.ring)) {
		return len(t.ring)
	}
	return int(t.head)
}

type traceCtxKey struct{}

// WithTrace attaches a trace id to a context; san.Endpoint.Call picks
// it up the same way it picks up the deadline.
func WithTrace(ctx context.Context, id TraceID) context.Context {
	if !id.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, id)
}

// TraceFrom returns the trace id attached to ctx, or zero.
func TraceFrom(ctx context.Context) TraceID {
	id, _ := ctx.Value(traceCtxKey{}).(TraceID)
	return id
}
