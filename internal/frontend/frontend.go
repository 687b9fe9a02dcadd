// Package frontend implements the SNS front end (paper §3.1.1): the
// component that presents the service interface to the outside world,
// shepherds each request — pair it with the user's profile, probe the
// virtual cache, dispatch a distiller pipeline via the manager stub,
// fall back to originals when workers fail. The goroutine that calls Do
// is the paper's front-end thread: it blocks on the cache, the origin and
// the distiller itself, each answer arriving on its own Call, and
// Config.MaxInflight bounds how many do so at once.
//
// The front end also hosts the service's control decisions: dispatch
// rules live here ("the behavior of the service as a whole [is]
// defined almost entirely in the front end"), workers stay simple.
package frontend

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/origin"
	"repro/internal/profiledb"
	"repro/internal/san"
	"repro/internal/softstate"
	"repro/internal/stub"
	"repro/internal/supervisor"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// Request is one client request entering the front end.
type Request struct {
	URL  string
	User string
	// Raw bypasses distillation (the munger's "view original" link).
	Raw bool
}

// Response is what goes back to the client.
type Response struct {
	Blob tacc.Blob
	// Source records how the response was produced: "cache-distilled",
	// "cache-original", "distilled", "original", "fallback-original",
	// "fallback-stale".
	Source string
	// Degraded marks a BASE harvest reduction: the front end answered
	// from whatever it had on hand (a stale or undistilled cache
	// entry) instead of doing the full work, because doing the full
	// work would have missed the deadline or deepened an overload.
	// "An approximate answer delivered quickly is more useful than the
	// exact answer delivered slowly" (§3.1.8).
	Degraded bool
	// Trace is the request's end-to-end trace id, minted at admission.
	// HTTP adapters surface it (X-Trace-Id) so an operator can pull the
	// span tree from /trace?id= on any node that saw the request.
	Trace obs.TraceID

	// release, when non-nil, returns Blob.Data's backing buffer to the
	// SAN's receive pool: the cache-hit serve path is zero-copy, so the
	// bytes alias a pooled buffer instead of being cloned per request.
	release func()
}

// Release returns the response's backing buffer (if any) to the
// receive-buffer pool. Call it after the response body has been
// written out; Blob.Data must not be touched afterwards. Forgetting to
// call it never corrupts anything — the buffer just falls to the GC
// instead of recycling — and calling it on a copied (non-view)
// response is a no-op.
func (r *Response) Release() {
	if r.release != nil {
		r.release()
		r.release = nil
	}
}

// WithRelease returns r with release as its buffer-return hook, for
// producers of view responses outside this package (the HTTP adapter's
// test counts Release calls with it).
func (r Response) WithRelease(release func()) Response {
	r.release = release
	return r
}

// Config assembles a front end.
type Config struct {
	Name string
	Node string
	Net  *san.Network

	// Rules is the service's dispatch logic.
	Rules tacc.DispatchRule
	// Profiles is the write-through cache over the ACID profile DB.
	Profiles *profiledb.ReadCache
	// Origin fetches content on cache misses.
	Origin origin.Fetcher
	// CacheNodes maps cache partition names to their addresses.
	CacheNodes map[string]san.Addr

	// CacheTTL is the TTL for objects we cache. Zero = no expiry.
	CacheTTL time.Duration
	// HTTPAddr is the host:port of this front end's HTTP adapter
	// (edge.FEServer). It rides every announcement so the edge can route
	// to the replica; empty means the FE is not HTTP-reachable and the
	// edge ignores it.
	HTTPAddr string
	// CacheTimeout bounds one virtual-cache round trip; an
	// unreachable cache partition reads as a miss after this long
	// (BASE: the cache is never a correctness dependency). Zero
	// keeps the vcache client default (2 s). Chaos scenarios that
	// partition the cache group tighten it so fallback-to-origin is
	// fast.
	CacheTimeout time.Duration
	// MinDistillSize: objects at or below this bypass distillation
	// (1 KB threshold, §4.1).
	MinDistillSize int
	// ManagerStub configures dispatch behavior.
	ManagerStub stub.ManagerStubConfig

	// RequestDeadline, when positive, is the end-to-end latency budget
	// stamped onto every request that arrives without its own context
	// deadline. It propagates with the request — through the cache
	// probes, into dispatch (TaskMsg.Deadline), down to the worker's
	// inbox — so every hop can drop work nobody awaits anymore instead
	// of executing it. Zero leaves requests unbounded (the caller's
	// context still applies).
	RequestDeadline time.Duration
	// MaxInflight bounds concurrently admitted requests. Requests beyond
	// it take the degraded path — a stale cache answer when one exists,
	// a fast typed ErrOverloaded reply otherwise — rather than piling
	// into a deadline they cannot meet. Zero defaults to
	// defaultMaxInflight; negative disables the check.
	MaxInflight int
	// QueueHighWater, when positive, sheds on the lottery estimator's
	// queue-delta signal: if even the least-loaded worker's estimated
	// queue (ManagerStub.QueueEstimate) is at or past this depth, new
	// work would only age in worker inboxes, so it degrades or sheds
	// at admission instead. Zero disables the signal.
	QueueHighWater float64
	// BackpressureFn, when set, reports the cumulative count of sends
	// the transport refused for backpressure (e.g. the Backpressure
	// field of transport.Bridge stats). Growth between admission
	// checks marks the fabric saturated — remote congestion sheds
	// upstream here instead of piling more frames onto a stalled
	// peer.
	BackpressureFn func() uint64
}

// fetchTimeout bounds one origin fetch. Coalesced fetches run detached
// from the leader's request context (one departing client must not
// fail the whole flight), so only this timeout and the front end's own
// lifecycle bound them: past the paper's observed 100 s worst-case
// miss penalty (§4.4).
const fetchTimeout = 2 * time.Minute

// defaultMaxInflight is Config.MaxInflight's default, of the order of
// the ~400 threads the paper's production front end ran.
const defaultMaxInflight = 320

func (c Config) withDefaults() Config {
	if c.MinDistillSize <= 0 {
		c.MinDistillSize = 1024
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = defaultMaxInflight
	}
	return c
}

// Stats counts front-end activity.
type Stats struct {
	Requests       uint64
	CacheDistilled uint64 // served a cached post-transform object
	CacheOriginal  uint64 // original found in cache, then distilled
	OriginFetches  uint64
	Distilled      uint64
	PassedThrough  uint64
	Fallbacks      uint64 // distillation failed; original returned
	Errors         uint64

	// CoalescedOrigin counts requests that waited on another
	// request's in-flight origin fetch instead of stampeding the
	// origin; CoalescedDistill the same for distillation dispatch.
	CoalescedOrigin  uint64
	CoalescedDistill uint64

	// Shed counts requests refused outright at admission (typed
	// ErrOverloaded, no degraded answer existed); DegradedServes
	// counts saturated requests answered from stale/undistilled cache
	// data instead; Expired counts admitted requests dropped before any
	// work because their deadline had already passed.
	Shed           uint64
	DegradedServes uint64
	Expired        uint64
}

// FrontEnd implements cluster.Process.
type FrontEnd struct {
	cfg Config
	ep  *san.Endpoint

	mstub   *stub.ManagerStub
	cache   *vcache.Client
	latency *obs.Histogram // fe.<name>.latency_ns, resolved once by name

	// Miss coalescing: concurrent requests for one original (or one
	// distilled variant) share a single origin fetch (or dispatch).
	origFlight    stub.FlightGroup[tacc.Blob]
	distillFlight stub.FlightGroup[tacc.Blob]

	// life is the current Run's context, nil while no Run is live. Every
	// wait a request makes ends with it — a Call when Run closes the
	// endpoint, a flight because it runs under life — so a request caught
	// by a kill returns at once, and Do answers it with a typed error
	// (the caller may hold no deadline, e.g. the edge's HTTP adapter).
	life     atomic.Pointer[context.Context]
	inflight atomic.Int64  // admitted requests currently executing
	lastBP   atomic.Uint64 // last BackpressureFn sample (delta = congestion)
	stats    struct {
		requests, cacheDistilled, cacheOriginal, originFetches atomic.Uint64
		distilled, passedThrough, fallbacks, errors            atomic.Uint64
		coalescedOrigin, coalescedDistill                      atomic.Uint64
		shed, degradedServes, expired                          atomic.Uint64
	}
	draining atomic.Bool // stopping: refuse new requests, announce draining
}

// New creates a front end and eagerly registers its endpoint.
func New(cfg Config) *FrontEnd {
	cfg = cfg.withDefaults()
	fe := &FrontEnd{cfg: cfg, latency: cfg.Net.Registry().Histogram("fe."+cfg.Name+".latency_ns", nil)}
	fe.ep = cfg.Net.Endpoint(fe.addr(), san.InboxSize)
	fe.mstub = stub.NewManagerStub(fe.ep, cfg.ManagerStub)
	fe.cache = fe.newCacheClient()
	return fe
}

func (fe *FrontEnd) newCacheClient() *vcache.Client {
	c := vcache.NewClient(fe.ep)
	if fe.cfg.CacheTimeout > 0 {
		c.Timeout = fe.cfg.CacheTimeout
	}
	for name, addr := range fe.cfg.CacheNodes {
		c.AddNode(name, addr)
	}
	return c
}

func (fe *FrontEnd) addr() san.Addr { return san.Addr{Node: fe.cfg.Node, Proc: fe.cfg.Name} }

// Addr returns the front end's SAN address.
func (fe *FrontEnd) Addr() san.Addr { return fe.addr() }

// ID implements cluster.Process.
func (fe *FrontEnd) ID() string { return fe.cfg.Name }

// ManagerStub exposes the stub (for stats and tests).
func (fe *FrontEnd) ManagerStub() *stub.ManagerStub { return fe.mstub }

// Cache exposes the virtual-cache client (for membership changes).
func (fe *FrontEnd) Cache() *vcache.Client { return fe.cache }

// Stats returns a snapshot of counters.
func (fe *FrontEnd) Stats() Stats {
	return Stats{
		Requests:       fe.stats.requests.Load(),
		CacheDistilled: fe.stats.cacheDistilled.Load(),
		CacheOriginal:  fe.stats.cacheOriginal.Load(),
		OriginFetches:  fe.stats.originFetches.Load(),
		Distilled:      fe.stats.distilled.Load(),
		PassedThrough:  fe.stats.passedThrough.Load(),
		Fallbacks:      fe.stats.fallbacks.Load(),
		Errors:         fe.stats.errors.Load(),

		CoalescedOrigin:  fe.stats.coalescedOrigin.Load(),
		CoalescedDistill: fe.stats.coalescedDistill.Load(),

		Shed:           fe.stats.shed.Load(),
		DegradedServes: fe.stats.degradedServes.Load(),
		Expired:        fe.stats.expired.Load(),
	}
}

// Running reports whether the front end's Run loop is live.
func (fe *FrontEnd) Running() bool { return fe.life.Load() != nil }

// Run implements cluster.Process: the control-plane receive loop
// (beacons, announcements). Requests never pass through it. A stop is
// §2.1's disable: see drain.
func (fe *FrontEnd) Run(ctx context.Context) error {
	if fe.ep == nil || !fe.cfg.Net.Lookup(fe.addr()) {
		fe.ep = fe.cfg.Net.Endpoint(fe.addr(), san.InboxSize)
		fe.mstub = stub.NewManagerStub(fe.ep, fe.cfg.ManagerStub)
		fe.cache = fe.newCacheClient()
	}
	ep := fe.ep
	defer ep.Close()
	defer fe.mstub.Stop()
	ep.Join(stub.GroupControl)

	// life outlasts ctx by the drain: a stop's admitted requests finish.
	life, stop := context.WithCancel(context.WithoutCancel(ctx))
	defer stop() // after life reads nil: ends every flight this Run's requests started
	fe.draining.Store(false)
	fe.life.Store(&life)
	defer fe.life.Store(nil)
	cache := fe.cache // a respawn replaces the field; this Run's collector reads this Run's client
	fe.cfg.Net.Registry().SetCollector("fe."+fe.cfg.Name, func(emit func(string, float64)) {
		st := fe.Stats()
		emit("requests", float64(st.Requests))
		emit("cache_distilled", float64(st.CacheDistilled))
		emit("cache_original", float64(st.CacheOriginal))
		emit("origin_fetches", float64(st.OriginFetches))
		emit("distilled", float64(st.Distilled))
		emit("fallbacks", float64(st.Fallbacks))
		emit("errors", float64(st.Errors))
		emit("shed", float64(st.Shed))
		emit("degraded", float64(st.DegradedServes))
		emit("expired", float64(st.Expired))
		emit("cache_probes", float64(cache.Probes())) // one per request
		// Cache writes are datagrams: a refused send is the only failure
		// a writer ever sees, and this is where it is visible.
		writes, writeErrs := cache.WriteStats()
		emit("cache_writes", float64(writes))
		emit("cache_write_errors", float64(writeErrs))
		emit("inflight", float64(fe.inflight.Load()))
	})

	hb := softstate.NewSchedule(softstate.Announce.Of(fe.cfg.Net.Beacon()))
	defer hb.Stop()

	for {
		select {
		case <-ctx.Done():
			fe.drain(ep)
			return nil
		case <-hb.C:
			fe.announce(ep)
			hb.Next()
		case msg, ok := <-ep.Inbox():
			if !ok {
				return fmt.Errorf("frontend: %s endpoint closed", fe.cfg.Name)
			}
			fe.mstub.HandleMessage(msg)
		}
	}
}

// drain is a stop: announce draining, refuse new requests with
// ErrDisabled, and wait for the admitted ones. A kill that dropped the
// endpoint first skips it: a crash says nothing and waits for nothing.
func (fe *FrontEnd) drain(ep *san.Endpoint) {
	if !fe.cfg.Net.Lookup(fe.addr()) {
		return
	}
	fe.draining.Store(true)
	fe.announce(ep) // at once: the edge must stop routing here now
	for fe.inflight.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

func (fe *FrontEnd) announce(ep *san.Endpoint) {
	// The announcement is multicast on the control group, not unicast to
	// the primary: every standby manager replica and the edge read the
	// same stream, so a freshly elected primary takes over the FE
	// process-peer watch with no re-registration round.
	m := supervisor.Member{Addr: fe.addr(), Kind: supervisor.KindFrontEnd, State: supervisor.StateUp, HTTPAddr: fe.cfg.HTTPAddr}
	if fe.draining.Load() {
		m.State = supervisor.StateDraining
	}
	ep.Multicast(stub.GroupControl, supervisor.MsgAnnounce, m, 64)
	ep.Multicast(stub.GroupReports, stub.MsgMonReport,
		stub.Report(fe.cfg.Net, fe.cfg.Name, "frontend", fe.cfg.Node, "fe."+fe.cfg.Name), 96)
}

// ErrDisabled is returned while the front end is draining to stop.
var ErrDisabled = fmt.Errorf("frontend: disabled for upgrade")

// ErrOverloaded is the typed overload reply: the front end shed the
// request at admission (saturated, and not even a degraded answer
// existed). It is deliberately fast — no worker capacity, origin
// fetch, or dispatch retry was spent before returning it.
var ErrOverloaded = fmt.Errorf("frontend: overloaded")

// saturated is the admission-control estimator: it combines the local
// in-flight count, the lottery scheduler's queue-delta extrapolation
// for the worker pool, and the transport's backpressure counter into
// one question — would accepting this request plausibly meet its
// deadline, or only deepen the overload?
func (fe *FrontEnd) saturated() bool {
	if fe.cfg.MaxInflight > 0 && fe.inflight.Load() >= int64(fe.cfg.MaxInflight) {
		return true
	}
	if fn := fe.cfg.BackpressureFn; fn != nil {
		cur := fn()
		if last := fe.lastBP.Swap(cur); cur > last {
			// The transport refused sends since the last admission
			// check: a peer's reader is stalled. Piling more work on
			// only grows the refused-frame count.
			return true
		}
	}
	if hw := fe.cfg.QueueHighWater; hw > 0 {
		if est, known := fe.mstub.QueueEstimate(""); known && est >= hw {
			return true
		}
	}
	return false
}

// Do submits a request and waits for the response — the programmatic
// equivalent of an HTTP arrival (edge.FetchHandler adapts net/http
// onto this). Under saturation it degrades before shedding: a stale cache
// entry past its TTL (Response.Degraded) beats a refusal, and a
// refusal (ErrOverloaded, fast and typed) beats a queued request that
// will miss its deadline anyway.
func (fe *FrontEnd) Do(ctx context.Context, req Request) (Response, error) {
	if fe.draining.Load() {
		return Response{}, ErrDisabled
	}
	lp := fe.life.Load()
	if lp == nil {
		return Response{}, fmt.Errorf("frontend: %s not running", fe.cfg.Name)
	}
	life := *lp
	if fe.cfg.RequestDeadline > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, fe.cfg.RequestDeadline)
			defer cancel()
		}
	}

	// Mint the request's trace id at admission (or adopt one the caller
	// already attached) — it rides the ctx through cache probes and
	// dispatch, crosses process boundaries on the wire, and keys the
	// span tree an operator pulls from /trace?id=.
	tracer := fe.cfg.Net.Tracer()
	trace := obs.TraceFrom(ctx)
	if !trace.Valid() {
		trace = tracer.NewTrace()
		ctx = obs.WithTrace(ctx, trace)
	}
	start := time.Now()
	// finish closes the root span. Forced outcomes (shed, degraded,
	// expired) record regardless of sampling — the requests that went
	// wrong are exactly the ones worth a trace.
	finish := func(note string, forced bool) {
		dur := time.Since(start)
		fe.latency.Observe(float64(dur))
		sp := obs.Span{
			Trace: trace, Comp: fe.cfg.Name, Hop: obs.RootHop, Note: note,
			Start: start.UnixNano(), Dur: int64(dur),
		}
		if forced {
			tracer.ForceRecord(sp)
		} else {
			tracer.Record(sp)
		}
	}

	if !fe.saturated() {
		if trace.Sampled() {
			tracer.Record(obs.Span{
				Trace: trace, Comp: fe.cfg.Name, Hop: "fe.admit", Note: "ok",
				Start: start.UnixNano(), Dur: int64(time.Since(start)),
			})
		}
		fe.inflight.Add(1)
		if fe.draining.Load() { // the stop began since the check above
			fe.inflight.Add(-1)
			return Response{}, ErrDisabled
		}
		resp, err := fe.handle(ctx, life, req)
		// Read before the release, which a drain waits for; a kill may fail
		// the request's Call by dropping the endpoint before life ends.
		stopped := life.Err() != nil || !fe.cfg.Net.Lookup(fe.addr())
		fe.inflight.Add(-1)
		switch {
		case stopped:
			resp.Release()
			fe.stats.errors.Add(1)
			finish("stopped", true)
			return Response{}, fmt.Errorf("frontend: %s stopped", fe.cfg.Name)
		case ctx.Err() != nil:
			resp.Release()
			finish("expired", true)
			return Response{}, ctx.Err()
		case err != nil:
			finish("error", false)
			return Response{}, err
		}
		resp.Trace = trace
		finish(resp.Source, false)
		return resp, nil
	}
	if resp, ok := fe.degradedServe(ctx, req); ok {
		tracer.ForceRecord(obs.Span{
			Trace: trace, Comp: fe.cfg.Name, Hop: "fe.admit", Note: "degraded",
			Start: start.UnixNano(),
		})
		resp.Trace = trace
		finish(resp.Source, true)
		return resp, nil
	}
	fe.stats.shed.Add(1)
	fe.stats.errors.Add(1)
	tracer.ForceRecord(obs.Span{
		Trace: trace, Comp: fe.cfg.Name, Hop: "fe.admit", Note: "shed",
		Start: start.UnixNano(),
	})
	finish("shed", true)
	return Response{}, ErrOverloaded
}

// degradedServe is the BASE harvest reduction an overloaded front end
// applies before refusing a request: answer from whatever the cache
// holds — the distilled variant or the original, fresh or past its TTL
// — without consuming an admission slot, an origin fetch, or a
// dispatch. A fresh distilled hit is a full-quality answer and not
// marked Degraded (the cache probe is cheap either way); anything
// else served here is.
func (fe *FrontEnd) degradedServe(ctx context.Context, req Request) (Response, bool) {
	pipeline, profile := fe.plan(req)
	key, elseKey := probeKeys(pipeline, pipeline.CacheKey(req.URL, profile), vcache.OrigKey(req.URL))
	got, release := fe.cache.Probe(ctx, key, elseKey, true)
	if !got.Found {
		return Response{}, false
	}
	fe.stats.degradedServes.Add(1)
	resp := Response{
		Blob:    tacc.Blob{MIME: got.MIME, Data: got.Data},
		Source:  "cache-distilled",
		release: release,
	}
	if got.Else || len(pipeline) == 0 {
		resp.Source = "original"
		resp.Degraded = got.Else // undistilled when distillation was asked for
	}
	if got.Stale {
		resp.Source = "fallback-stale"
		resp.Degraded = true
	}
	return resp, true
}

// probeKeys orders a request's two cache keys into the one question it
// asks: the distilled variant, else the original — or only the original
// when no pipeline applies.
func probeKeys(pipeline tacc.Pipeline, distillKey, origKey string) (key, elseKey string) {
	if len(pipeline) == 0 {
		return origKey, ""
	}
	return distillKey, origKey
}

// handle shepherds one request end to end on the caller's goroutine.
// life is the admitting Run's context: coalesced flights detach from the
// individual request's ctx (one departing client must not fail the whole
// flight) but still die with the process. The flight's leader stays with
// it, as the paper's thread does, so a leader pinned on a slow origin
// outlasts its own deadline by up to the fetch.
func (fe *FrontEnd) handle(ctx, life context.Context, req Request) (Response, error) {
	fe.stats.requests.Add(1)
	tracer := fe.cfg.Net.Tracer()
	trace := obs.TraceFrom(ctx)

	// 0. Drop expired work at entry: a request whose deadline has already
	// passed has nobody awaiting it — the same rule the workers apply to
	// their inboxes.
	if err := ctx.Err(); err != nil {
		fe.stats.expired.Add(1)
		tracer.ForceRecord(obs.Span{
			Trace: trace, Comp: fe.cfg.Name, Hop: "fe.expired",
			Start: time.Now().UnixNano(),
		})
		return Response{}, err
	}

	// 1+2. Pair the request with the user's profile and let the
	// service-specific dispatch logic decide the pipeline.
	pipeline, profile := fe.plan(req)
	distillKey := pipeline.CacheKey(req.URL, profile)
	origKey := vcache.OrigKey(req.URL)

	// 3+4. One probe asks the URL's partition for the distilled variant,
	// else the original. A hit that is the answer serves the view: the
	// bytes stay in the pooled receive buffer until the caller's
	// Response.Release. An original still to distil is copied out: it
	// outlives this call inside the flights below.
	key, elseKey := probeKeys(pipeline, distillKey, origKey)
	cstart := time.Now()
	got, release := fe.cache.Probe(ctx, key, elseKey, false)
	if trace.Sampled() {
		tracer.Record(obs.Span{
			Trace: trace, Comp: fe.cfg.Name, Hop: "fe.cache", Note: got.Answered(),
			Start: cstart.UnixNano(), Dur: int64(time.Since(cstart)),
		})
	}
	var orig tacc.Blob
	switch {
	case got.Found && !got.Else: // with no pipeline the key is the original's
		resp := Response{Blob: tacc.Blob{MIME: got.MIME, Data: got.Data}, Source: "cache-distilled", release: release}
		if len(pipeline) == 0 {
			resp.Source = "original"
			fe.stats.cacheOriginal.Add(1)
			fe.stats.passedThrough.Add(1)
		} else {
			fe.stats.cacheDistilled.Add(1)
		}
		return resp, nil
	case got.Found:
		fe.stats.cacheOriginal.Add(1)
		orig = tacc.Blob{MIME: got.MIME, Data: got.Data}
		if release != nil {
			orig.Data = san.CloneBytes(got.Data)
			release()
		}
	default:
		// Fetch the original. Concurrent misses on one URL coalesce into
		// a single origin fetch: the leader fetches and populates the
		// cache, followers share the result.
		if fe.cfg.Origin == nil {
			fe.stats.errors.Add(1)
			return Response{}, fmt.Errorf("frontend: no origin configured for %s", req.URL)
		}
		fetched, err, shared := fe.origFlight.Do(ctx, origKey, func() (tacc.Blob, error) {
			fctx, cancel := context.WithTimeout(life, fetchTimeout)
			defer cancel()
			blob, err := fe.cfg.Origin.Fetch(fctx, req.URL)
			if err != nil {
				return tacc.Blob{}, err
			}
			fe.stats.originFetches.Add(1)
			fe.cache.Put(ctx, origKey, blob.Data, blob.MIME, fe.cfg.CacheTTL) // one-way: ctx only lends its trace id
			return blob, nil
		})
		if shared {
			fe.stats.coalescedOrigin.Add(1)
		}
		if err != nil {
			fe.stats.errors.Add(1)
			return Response{}, fmt.Errorf("frontend: fetch %s: %w", req.URL, err)
		}
		orig = fetched
	}

	// 5. Pass small or rule-less content through unmodified.
	if len(pipeline) == 0 || orig.Size() <= fe.cfg.MinDistillSize {
		fe.stats.passedThrough.Add(1)
		return Response{Blob: orig, Source: "original"}, nil
	}

	// 6. Dispatch the pipeline, coalescing concurrent requests for
	// the same distilled variant into one dispatch (and one inject).
	// Failure means a degraded but fast answer, never an error page
	// with nothing in it: "in all cases, an approximate answer
	// delivered quickly is more useful than the exact answer
	// delivered slowly" (§3.1.8).
	out, err, shared := fe.distillFlight.Do(ctx, distillKey, func() (tacc.Blob, error) {
		// Detached like the origin flight; dispatch is already
		// bounded by the stub's per-attempt CallTimeout and retry
		// budget. The flight leader's deadline still rides along so
		// the stub stamps it into TaskMsg and workers can drop the
		// task once nobody awaits it — and so does its trace id, so
		// the dispatch and worker hops join the leader's span tree.
		dctx := life
		if trace.Valid() {
			dctx = obs.WithTrace(dctx, trace)
		}
		if dl, ok := ctx.Deadline(); ok {
			var cancel context.CancelFunc
			dctx, cancel = context.WithDeadline(dctx, dl)
			defer cancel()
		}
		task := &tacc.Task{Key: req.URL, Input: orig, Profile: profile}
		blob, err := fe.mstub.DispatchPipeline(dctx, pipeline, task)
		if err != nil {
			return tacc.Blob{}, err
		}
		// 7. Inject the distilled variant for future hits: a datagram,
		// like the Put above. This process's next probe of the key is
		// staged behind it on the same connection, so it still hits.
		fe.cache.Inject(dctx, distillKey, blob.Data, blob.MIME, fe.cfg.CacheTTL)
		return blob, nil
	})
	if shared {
		fe.stats.coalescedDistill.Add(1)
	}
	if err != nil {
		fe.stats.fallbacks.Add(1)
		return Response{
			Blob:   orig.WithMeta("degraded", err.Error()),
			Source: "fallback-original",
		}, nil
	}
	fe.stats.distilled.Add(1)
	return Response{Blob: out, Source: "distilled"}, nil
}

// plan pairs a request with its user profile and lets the dispatch
// rules pick the pipeline — the first two steps of every request,
// shared by the full handle path and the degraded-serve path.
func (fe *FrontEnd) plan(req Request) (tacc.Pipeline, map[string]string) {
	var profile map[string]string
	if fe.cfg.Profiles != nil && req.User != "" {
		profile = fe.cfg.Profiles.Get(req.User)
	}
	var pipeline tacc.Pipeline
	if fe.cfg.Rules != nil && !req.Raw {
		pipeline = fe.cfg.Rules(req.URL, mimeHint(req.URL), profile)
	}
	return pipeline, profile
}

// mimeHint guesses the MIME type from the URL extension so dispatch
// rules can run before the content arrives; rules that need certainty
// can re-check after fetch (our distillers verify magic bytes anyway).
func mimeHint(url string) string {
	switch {
	case strings.HasSuffix(url, ".sgif"):
		return "image/sgif"
	case strings.HasSuffix(url, ".sjpg"):
		return "image/sjpg"
	case strings.HasSuffix(url, ".html"), strings.HasSuffix(url, "/"):
		return "text/html"
	default:
		return "application/octet-stream"
	}
}
