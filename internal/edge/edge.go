// Package edge is the cluster's L7 front door: one HTTP listener that
// makes the replicated front ends look like a single service. The
// paper's clients reached FE replicas through round-robin DNS and a
// client-side applet (§3.1.2); the edge is the in-cluster successor —
// FEs are clones (RACS farm), so all the front door does is spread
// load, eject unhealthy replicas, and retry transparently.
//
// The edge joins the SAN as a first-class role and learns the FE pool
// the same way the manager does: the member.announce multicasts
// (supervisor.Member) front ends send on the control group, aged by TTL
// (soft state; losing the table costs one rediscovery round, never
// correctness). Each announcement carries the FE's HTTP adapter address
// and its state — a front end that is stopping announces itself
// draining and gets no new picks, and a request that raced the drain is
// refused and sent to another replica, which is what makes rolling
// restarts zero-downtime through the edge.
//
// Routing is least-inflight power-of-two-choices across healthy
// replicas. A backend is ejected after consecutive failures and
// readmitted through a half-open probe: one idempotent request is
// risked against it, success readmits, failure re-arms the timer.
// Idempotent requests (GET/HEAD) that fail are retried once on a
// different replica under a retry budget, so a SIGKILLed FE costs
// clients nothing. Deadlines (X-Deadline-Ns) and trace ids
// (X-Trace-Id) propagate both ways.
package edge

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
)

// Header names shared between the edge, the per-FE HTTP adapters, and
// cmd/node's debug endpoint.
const (
	// HeaderDeadline carries an absolute request deadline in unix
	// nanoseconds; every hop that sees it re-arms its context from it.
	HeaderDeadline = "X-Deadline-Ns"
	// HeaderTraceID carries the end-to-end trace id both ways.
	HeaderTraceID = "X-Trace-Id"
	// HeaderSource reports how the FE produced the response.
	HeaderSource = "X-TranSend-Source"
	// HeaderError classifies a refusal ("overloaded", "disabled",
	// "no-backends") so load generators can tell shed from failure.
	HeaderError = "X-TranSend-Error"
	// HeaderDegraded marks a BASE harvest-reduced answer.
	HeaderDegraded = "X-TranSend-Degraded"
	// HeaderEdge names the edge instance that proxied the response.
	HeaderEdge = "X-TranSend-Edge"
)

// ErrNoBackends is returned when no healthy, non-draining FE is in the
// pool.
var ErrNoBackends = errors.New("edge: no healthy backends")

// ErrUpstream is the sentinel every transport-level upstream failure
// matches via errors.Is — returned (wrapped in *UpstreamError) when
// the retry budget is exhausted or the request was not retryable.
var ErrUpstream = errors.New("edge: upstream failure")

// UpstreamError is the typed upstream failure: which backend, how many
// attempts, and the underlying transport error.
type UpstreamError struct {
	Backend  string
	Attempts int
	Cause    error
}

func (e *UpstreamError) Error() string {
	return fmt.Sprintf("edge: upstream %s failed (attempt %d): %v", e.Backend, e.Attempts, e.Cause)
}

func (e *UpstreamError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrUpstream) match.
func (e *UpstreamError) Is(target error) bool { return target == ErrUpstream }

// Config assembles an edge.
type Config struct {
	// Name is the edge's component name (default "edge").
	Name string
	// Node is the cluster node hosting the edge process.
	Node string
	// Net is the SAN the edge listens to FE announcements on.
	Net *san.Network
	// Listen is the public HTTP listener address ("host:port"; port 0
	// picks a free port). Required.
	Listen string
	// Pool tunes the backend health model.
	Pool PoolConfig
	// RetryBudget bounds retries as a fraction of requests (§retry
	// storms): a retry is spent only while
	// retries+1 <= RetryBudget*requests+1. Zero disables retries.
	RetryBudget float64
	// RequestTimeout bounds requests that arrive without their own
	// X-Deadline-Ns. Default 30s.
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "edge"
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Edge implements cluster.Process: the front-door proxy.
type Edge struct {
	cfg  Config
	ep   *san.Endpoint
	pool *Pool

	httpAddr string
	ln       net.Listener
	client   *http.Client
	latency  *obs.Histogram // edge.<name>.latency_ns, resolved once by name

	running atomic.Bool
	stats   struct {
		requests, proxied, retries              atomic.Uint64
		retryDenied, noBackends, upstreamErrors atomic.Uint64
		relayed5xx                              atomic.Uint64
	}
}

// New creates an edge, binds its HTTP listener (so HTTPAddr is known
// immediately), and eagerly registers its SAN endpoint.
func New(cfg Config) (*Edge, error) {
	cfg = cfg.withDefaults()
	if cfg.Listen == "" {
		return nil, fmt.Errorf("edge: no listen address")
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("edge: listen %s: %w", cfg.Listen, err)
	}
	e := &Edge{
		cfg:      cfg,
		pool:     NewPool(cfg.Pool),
		ln:       ln,
		httpAddr: ln.Addr().String(),
		latency:  cfg.Net.Registry().Histogram("edge."+cfg.Name+".latency_ns", nil),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     30 * time.Second,
			},
		},
	}
	e.ep = cfg.Net.Endpoint(e.addr(), san.InboxSize)
	return e, nil
}

func (e *Edge) addr() san.Addr { return san.Addr{Node: e.cfg.Node, Proc: e.cfg.Name} }

// Addr returns the edge's SAN address.
func (e *Edge) Addr() san.Addr { return e.addr() }

// ID implements cluster.Process.
func (e *Edge) ID() string { return e.cfg.Name }

// HTTPAddr returns the bound public listener address.
func (e *Edge) HTTPAddr() string { return e.httpAddr }

// Running reports whether the edge's Run loop is live.
func (e *Edge) Running() bool { return e.running.Load() }

// PoolStats returns the backend pool's counters.
func (e *Edge) PoolStats() PoolStats { return e.pool.Stats() }

// ObserveBackend folds a backend into the pool directly — the test and
// benchmark hook that stands in for a front end's announcement.
func (e *Edge) ObserveBackend(key, name, httpAddr string, draining bool) {
	e.pool.Observe(key, name, httpAddr, draining)
}

// Close releases the HTTP listener. Only needed when the edge was
// created but never run (Run's shutdown path closes it otherwise).
func (e *Edge) Close() error {
	if e.running.Load() || e.ln == nil {
		return nil
	}
	return e.ln.Close()
}

// Stats is the edge's externally visible counter snapshot.
type Stats struct {
	Requests       uint64 `json:"requests"`
	Proxied        uint64 `json:"proxied"`
	Retries        uint64 `json:"retries"`
	RetryDenied    uint64 `json:"retry_denied"`
	NoBackends     uint64 `json:"no_backends"`
	UpstreamErrors uint64 `json:"upstream_errors"`
	Relayed5xx     uint64 `json:"relayed_5xx"`
}

// Stats returns a snapshot of counters.
func (e *Edge) Stats() Stats {
	return Stats{
		Requests:       e.stats.requests.Load(),
		Proxied:        e.stats.proxied.Load(),
		Retries:        e.stats.retries.Load(),
		RetryDenied:    e.stats.retryDenied.Load(),
		NoBackends:     e.stats.noBackends.Load(),
		UpstreamErrors: e.stats.upstreamErrors.Load(),
		Relayed5xx:     e.stats.relayed5xx.Load(),
	}
}

// Run implements cluster.Process: consume FE announcements into the pool
// and serve the public listener until the context ends.
func (e *Edge) Run(ctx context.Context) error {
	if e.ep == nil || !e.cfg.Net.Lookup(e.addr()) {
		e.ep = e.cfg.Net.Endpoint(e.addr(), san.InboxSize)
	}
	ep := e.ep
	defer ep.Close()
	ep.Join(stub.GroupControl)

	if e.ln == nil {
		// A respawn after Run's shutdown closed the listener: rebind
		// the same (now concrete) address.
		ln, err := net.Listen("tcp", e.httpAddr)
		if err != nil {
			return fmt.Errorf("edge: relisten %s: %w", e.httpAddr, err)
		}
		e.ln = ln
	}

	e.running.Store(true)
	defer e.running.Store(false)

	reg := e.cfg.Net.Registry()
	reg.SetCollector("edge."+e.cfg.Name, func(emit func(string, float64)) {
		st := e.Stats()
		emit("requests", float64(st.Requests))
		emit("proxied", float64(st.Proxied))
		emit("retries", float64(st.Retries))
		emit("retry_denied", float64(st.RetryDenied))
		emit("no_backends", float64(st.NoBackends))
		emit("upstream_errors", float64(st.UpstreamErrors))
		emit("relayed_5xx", float64(st.Relayed5xx))
		ps := e.pool.Stats()
		emit("backends", float64(ps.Backends))
		emit("healthy", float64(ps.Healthy))
		emit("draining", float64(ps.Draining))
		emit("ejected", float64(ps.Ejected))
		emit("ejects", float64(ps.Ejects))
		emit("readmits", float64(ps.Readmits))
	})

	mux := http.NewServeMux()
	// /status is the registry snapshot, the same report cmd/node serves.
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(reg.Snapshot()) // a client that hung up is not the edge's error
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/", e.handleProxy)
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	ln := e.ln // the shutdown below clears the field, possibly before Serve starts
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		shctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(shctx)
		e.ln = nil
	}()

	for {
		select {
		case <-ctx.Done():
			return nil
		case err := <-serveErr:
			if err != nil && err != http.ErrServerClosed {
				return fmt.Errorf("edge: %s: %w", e.cfg.Name, err)
			}
			return nil
		case msg, ok := <-ep.Inbox():
			if !ok {
				return fmt.Errorf("edge: %s endpoint closed", e.cfg.Name)
			}
			if m, ok := msg.Body.(supervisor.Member); ok && m.Kind == supervisor.KindFrontEnd {
				e.pool.Observe(m.Addr.String(), m.Addr.Proc, m.HTTPAddr, m.State == supervisor.StateDraining)
			}
			msg.Release()
		}
	}
}

// handleProxy is the front door: pick a backend, forward, retry once
// on a different replica when the request is idempotent and the
// budget allows, relay the response.
func (e *Edge) handleProxy(w http.ResponseWriter, r *http.Request) {
	e.stats.requests.Add(1)
	start := time.Now()
	ctx := r.Context()
	if h := r.Header.Get(HeaderDeadline); h != "" {
		if ns, err := strconv.ParseInt(h, 10, 64); err == nil {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, time.Unix(0, ns))
			defer cancel()
		}
	} else {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.RequestTimeout)
		defer cancel()
	}

	resp, err := e.forward(ctx, r)
	e.latency.Observe(float64(time.Since(start)))
	if err != nil {
		w.Header().Set(HeaderEdge, e.cfg.Name)
		switch {
		case errors.Is(err, ErrNoBackends):
			w.Header().Set(HeaderError, "no-backends")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		case ctx.Err() != nil:
			http.Error(w, err.Error(), http.StatusGatewayTimeout)
		default:
			http.Error(w, err.Error(), http.StatusBadGateway)
		}
		return
	}
	defer resp.Body.Close()
	hdr := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			hdr.Add(k, v)
		}
	}
	hdr.Set(HeaderEdge, e.cfg.Name)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	if resp.StatusCode >= 500 {
		e.stats.relayed5xx.Add(1)
	} else {
		e.stats.proxied.Add(1)
	}
}

// allowRetry spends from the retry budget: a retry is permitted only
// while retries stay under RetryBudget per request (plus one so a
// cold edge can retry its very first request).
func (e *Edge) allowRetry() bool {
	if e.cfg.RetryBudget <= 0 {
		return false
	}
	retries := float64(e.stats.retries.Load())
	requests := float64(e.stats.requests.Load())
	return retries+1 <= e.cfg.RetryBudget*requests+1
}

// forward runs the pick/roundtrip/outcome loop. The returned response
// may carry an upstream 5xx — it is relayed verbatim so the FE's
// classification headers (X-TranSend-Error) survive the edge; a
// transport-level failure surfaces as *UpstreamError instead.
func (e *Edge) forward(ctx context.Context, r *http.Request) (*http.Response, error) {
	idempotent := r.Method == http.MethodGet || r.Method == http.MethodHead
	exclude := ""
	// The first attempt's 5xx is kept open while a retry runs: if the
	// retry can do no better (no other backend, transport error), the
	// original upstream reply — with its classification headers — beats
	// a synthesized edge error.
	var prev *http.Response
	for attempt := 1; ; attempt++ {
		pk, err := e.pool.Pick(idempotent, exclude)
		if err != nil {
			if prev != nil {
				return prev, nil
			}
			e.stats.noBackends.Add(1)
			return nil, err
		}
		resp, err := e.roundTrip(ctx, r, pk.HTTPAddr())
		if err != nil {
			pk.Done(false)
			if prev != nil {
				return prev, nil
			}
			uerr := &UpstreamError{Backend: pk.Key(), Attempts: attempt, Cause: err}
			if !idempotent || attempt > 1 || ctx.Err() != nil {
				e.stats.upstreamErrors.Add(1)
				return nil, uerr
			}
			if !e.allowRetry() {
				e.stats.retryDenied.Add(1)
				e.stats.upstreamErrors.Add(1)
				return nil, uerr
			}
			e.stats.retries.Add(1)
			exclude = pk.Key()
			continue
		}
		if resp.StatusCode >= 500 {
			if he := resp.Header.Get(HeaderError); he == "overloaded" || he == "disabled" {
				// A policy refusal from an alive backend — admission
				// control shedding, or a request racing a drain. Not a
				// health signal (ejecting a shedding replica collapses
				// the pool exactly when the cluster is saturated) and
				// not worth spending retry budget on. A shed is relayed
				// for the client's degrade path to decide; a drain's
				// refusal, of a request it never admitted, goes to one
				// other replica first.
				pk.Done(true)
				if he == "disabled" && prev == nil {
					prev, exclude = resp, pk.Key()
					continue
				}
				if prev != nil {
					_ = prev.Body.Close()
				}
				return resp, nil
			}
			pk.Done(false)
			if prev == nil && idempotent && ctx.Err() == nil && e.allowRetry() {
				prev = resp
				e.stats.retries.Add(1)
				exclude = pk.Key()
				continue
			}
			if prev != nil {
				_ = prev.Body.Close()
			}
			return resp, nil
		}
		pk.Done(true)
		if prev != nil {
			_ = prev.Body.Close()
		}
		return resp, nil
	}
}

// roundTrip forwards one attempt to one backend, stamping the
// context's deadline into X-Deadline-Ns (X-Trace-Id rides along in the
// cloned headers untouched).
func (e *Edge) roundTrip(ctx context.Context, r *http.Request, backend string) (*http.Response, error) {
	out := r.Clone(ctx)
	out.URL.Scheme = "http"
	out.URL.Host = backend
	out.RequestURI = ""
	out.Host = ""
	out.Header.Del("Connection")
	if dl, ok := ctx.Deadline(); ok {
		out.Header.Set(HeaderDeadline, strconv.FormatInt(dl.UnixNano(), 10))
	}
	return e.client.Do(out)
}
