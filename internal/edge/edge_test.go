package edge

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/san"
)

func newTestEdge(t *testing.T, retryBudget float64) *Edge {
	t.Helper()
	return startTestEdge(t, Config{RetryBudget: retryBudget})
}

// startTestEdge runs an edge of cfg on a fresh network, listening on a
// free loopback port.
func startTestEdge(t *testing.T, cfg Config) *Edge {
	t.Helper()
	// A 25 ms beat: an ejected backend is probed after 50 ms.
	net := san.NewNetwork(1, san.WithBeacon(25*time.Millisecond))
	t.Cleanup(net.Close)
	cfg.Name, cfg.Node, cfg.Net, cfg.Listen = "edge", "edgenode", net, "127.0.0.1:0"
	cfg.Pool = PoolConfig{Seed: 1}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = e.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	deadline := time.Now().Add(5 * time.Second)
	for !e.Running() {
		if time.Now().After(deadline) {
			t.Fatal("edge did not start")
		}
		time.Sleep(time.Millisecond)
	}
	return e
}

func TestEdgeProxiesHeadersAndDeadline(t *testing.T) {
	var sawDeadline, sawTrace bool
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawDeadline = r.Header.Get(HeaderDeadline) != ""
		sawTrace = r.Header.Get(HeaderTraceID) == "00000000000000ff"
		w.Header().Set(HeaderSource, "cache-distilled")
		w.Header().Set(HeaderTraceID, "00000000000000ff")
		fmt.Fprint(w, "body")
	}))
	defer backend.Close()

	e := newTestEdge(t, 0)
	e.ObserveBackend("n/fe0", "fe0", backend.Listener.Addr().String(), false)

	req, _ := http.NewRequest(http.MethodGet, "http://"+e.HTTPAddr()+"/fetch?url=x", nil)
	req.Header.Set(HeaderTraceID, "00000000000000ff")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "body" {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
	if !sawDeadline {
		t.Error("backend did not receive X-Deadline-Ns")
	}
	if !sawTrace {
		t.Error("backend did not receive the propagated X-Trace-Id")
	}
	if got := resp.Header.Get(HeaderSource); got != "cache-distilled" {
		t.Errorf("response lost upstream headers: source=%q", got)
	}
	if resp.Header.Get(HeaderTraceID) != "00000000000000ff" {
		t.Error("response lost the trace id")
	}
	if resp.Header.Get(HeaderEdge) != "edge" {
		t.Error("response missing the edge marker header")
	}
	if st := e.Stats(); st.Proxied != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestEdgeMalformedDeadlineGetsRequestTimeout: a junk X-Deadline-Ns is
// treated as absent — the edge applies RequestTimeout and forwards a
// deadline of its own instead of the junk.
func TestEdgeMalformedDeadlineGetsRequestTimeout(t *testing.T) {
	var forwarded atomic.Value
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		forwarded.Store(r.Header.Get(HeaderDeadline))
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
			fmt.Fprint(w, "late")
		}
	}))
	defer backend.Close()

	e := startTestEdge(t, Config{RequestTimeout: 100 * time.Millisecond})
	e.ObserveBackend("n/fe0", "fe0", backend.Listener.Addr().String(), false)

	req, _ := http.NewRequest(http.MethodGet, "http://"+e.HTTPAddr()+"/fetch?url=x", nil)
	req.Header.Set(HeaderDeadline, "junk")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if took := time.Since(start); resp.StatusCode != http.StatusGatewayTimeout || took > time.Second {
		t.Fatalf("status %d after %v, want 504 within 1 s", resp.StatusCode, took)
	}
	if h, _ := forwarded.Load().(string); h == "junk" {
		t.Fatal("the junk deadline header was forwarded as-is")
	}
}

func TestEdgeRetriesIdempotentOnOtherReplica(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer good.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()

	e := newTestEdge(t, 1.0)
	e.ObserveBackend("n/fe0", "fe0", bad.Listener.Addr().String(), false)
	e.ObserveBackend("n/fe1", "fe1", good.Listener.Addr().String(), false)

	// Every GET must come back 200: first-attempt 5xxs are retried on
	// the other replica under the (ample) budget.
	for i := 0; i < 8; i++ {
		resp, err := http.Get("http://" + e.HTTPAddr() + "/fetch?url=x")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "ok" {
			t.Fatalf("request %d: status %d body %q", i, resp.StatusCode, body)
		}
	}
	if st := e.Stats(); st.Proxied != 8 {
		t.Errorf("stats: %+v", st)
	}
}

func TestEdgeRetryBudgetExhaustionReturnsTypedError(t *testing.T) {
	// The edge binds first: the port the dead server frees must not be
	// handed to the edge's own listener, or it would proxy to itself.
	e := newTestEdge(t, 0) // no budget: first failure is final
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on
	e.ObserveBackend("n/fe0", "fe0", dead.Listener.Addr().String(), false)

	req, _ := http.NewRequest(http.MethodGet, "http://127.0.0.1/fetch?url=x", nil)
	_, err := e.forward(context.Background(), req)
	if err == nil {
		t.Fatal("forward against a dead backend succeeded")
	}
	if !errors.Is(err, ErrUpstream) {
		t.Fatalf("err=%v, want errors.Is(_, ErrUpstream)", err)
	}
	var uerr *UpstreamError
	if !errors.As(err, &uerr) || uerr.Backend != "n/fe0" {
		t.Fatalf("err=%#v, want *UpstreamError naming the backend", err)
	}
	st := e.Stats()
	if st.RetryDenied != 1 || st.UpstreamErrors != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestEdgeNoBackendsIs503(t *testing.T) {
	e := newTestEdge(t, 0)
	resp, err := http.Get("http://" + e.HTTPAddr() + "/fetch?url=x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(HeaderError) != "no-backends" {
		t.Fatalf("error header %q", resp.Header.Get(HeaderError))
	}
}

func TestEdgeRelays5xxVerbatim(t *testing.T) {
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderError, "overloaded")
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer shed.Close()

	e := newTestEdge(t, 0) // no retry: the 5xx is relayed as-is
	e.ObserveBackend("n/fe0", "fe0", shed.Listener.Addr().String(), false)

	resp, err := http.Get("http://" + e.HTTPAddr() + "/fetch?url=x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(HeaderError) != "overloaded" {
		t.Fatalf("classification header lost: %q", resp.Header.Get(HeaderError))
	}
	if st := e.Stats(); st.Relayed5xx != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestEdgeShedDoesNotEject: an FE refusing by policy (typed
// "overloaded"/"disabled" 503) is alive — the refusal must not count
// toward ejection or spend retry budget, or admission control would
// collapse the pool exactly when the cluster saturates.
func TestEdgeShedDoesNotEject(t *testing.T) {
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderError, "overloaded")
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer shed.Close()

	e := newTestEdge(t, 1.0)
	e.ObserveBackend("n/fe0", "fe0", shed.Listener.Addr().String(), false)

	for i := 0; i < 8; i++ { // far past ejectAfter
		resp, err := http.Get("http://" + e.HTTPAddr() + "/fetch?url=x")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get(HeaderError) != "overloaded" {
			t.Fatalf("request %d: error header %q, want the typed shed", i, resp.Header.Get(HeaderError))
		}
	}
	if st := e.PoolStats(); st.Ejects != 0 || st.Healthy != 1 {
		t.Fatalf("shedding ejected the backend: %+v", st)
	}
	if st := e.Stats(); st.Retries != 0 {
		t.Fatalf("shed responses spent retry budget: %+v", st)
	}
}

// TestEdgeRetriesDrainRefusal: a request that raced a front end's drain
// was never admitted there, so the edge sends it to the other replica —
// at no cost to the retry budget, and without a mark against the
// draining one. With nowhere else to go, the typed refusal is relayed.
func TestEdgeRetriesDrainRefusal(t *testing.T) {
	var refused atomic.Int64
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		refused.Add(1)
		w.Header().Set(HeaderError, "disabled")
		http.Error(w, "disabled", http.StatusServiceUnavailable)
	}))
	defer draining.Close()
	serving := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer serving.Close()

	e := newTestEdge(t, 0)
	e.ObserveBackend("n/fe0", "fe0", draining.Listener.Addr().String(), false)
	e.ObserveBackend("n/fe1", "fe1", serving.Listener.Addr().String(), false)
	for i := 0; refused.Load() == 0; i++ { // until a pick lands on the draining one
		if i == 100 {
			t.Fatal("100 picks and none on fe0")
		}
		resp, err := http.Get("http://" + e.HTTPAddr() + "/fetch?url=x")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (%s), want the other replica's answer", resp.StatusCode, resp.Header.Get(HeaderError))
		}
	}
	if st := e.PoolStats(); st.Ejects != 0 || st.Healthy != 2 {
		t.Fatalf("a drain refusal counted against the backend: %+v", st)
	}

	e.ObserveBackend("n/fe1", "fe1", serving.Listener.Addr().String(), true)
	resp, err := http.Get("http://" + e.HTTPAddr() + "/fetch?url=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(HeaderError) != "disabled" {
		t.Fatalf("status %d error %q, want the typed refusal relayed", resp.StatusCode, resp.Header.Get(HeaderError))
	}
}

// TestEdgeRelaysFirst5xxWhenRetryFindsNoBackend: with a single (bad)
// replica, a retried 5xx has nowhere to go — the client must get the
// original upstream reply back, not a synthesized no-backends error.
func TestEdgeRelaysFirst5xxWhenRetryFindsNoBackend(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "frontend: fe0 stopped", http.StatusBadGateway)
	}))
	defer bad.Close()

	e := newTestEdge(t, 1.0)
	e.ObserveBackend("n/fe0", "fe0", bad.Listener.Addr().String(), false)

	resp, err := http.Get("http://" + e.HTTPAddr() + "/fetch?url=x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d body %q, want the upstream 502 relayed", resp.StatusCode, body)
	}
	if st := e.Stats(); st.NoBackends != 0 {
		t.Fatalf("retry dead-end surfaced as no-backends: %+v", st)
	}
}

func TestEdgeStatusEndpoint(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer backend.Close()

	e := newTestEdge(t, 0.5)
	e.ObserveBackend("n/fe0", "fe0", backend.Listener.Addr().String(), false)
	if _, err := http.Get("http://" + e.HTTPAddr() + "/fetch?url=x"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + e.HTTPAddr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The registry snapshot, like every other /status in the tree: the
	// edge's own numbers are its collector's keys.
	var status map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status["edge.edge.requests"] < 1 || status["edge.edge.healthy"] != 1 || status["edge.edge.backends"] != 1 {
		t.Fatalf("status: %v", status)
	}
}
