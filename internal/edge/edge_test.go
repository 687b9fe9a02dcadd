package edge

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
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

// fakeFE is a front end as the edge sees it: an endpoint on the edge's
// network that announces itself on the control group as a real one
// does (a supervisor.Member, once a beat) and answers each fe.request
// Call with what serve returns — or, when serve says no, not at all.
type fakeFE struct {
	ep       *san.Endpoint
	draining atomic.Bool
	requests atomic.Int64
	stop     chan struct{}
}

type serveFunc func(msg san.Message, req frontend.RequestMsg) (frontend.ReplyMsg, bool)

// startFakeFE starts front end name ("n/<name>") on e's network and
// waits until e's pool holds it.
func startFakeFE(t *testing.T, e *Edge, name string, serve serveFunc) *fakeFE {
	t.Helper()
	return startFakeFEInbox(t, e, name, san.ServerInboxSize, serve)
}

func startFakeFEInbox(t *testing.T, e *Edge, name string, inbox int, serve serveFunc) *fakeFE {
	t.Helper()
	f := &fakeFE{ep: e.cfg.Net.Endpoint(san.Addr{Node: "n", Proc: name}, inbox), stop: make(chan struct{})}
	backends := e.PoolStats().Backends
	f.announce()
	go func() {
		tick := time.NewTicker(e.cfg.Net.Beacon())
		defer tick.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-tick.C:
				f.announce()
			}
		}
	}()
	if serve != nil {
		go func() {
			for msg := range f.ep.Inbox() {
				f.requests.Add(1)
				go func(msg san.Message) {
					if rep, ok := serve(msg, msg.Body.(frontend.RequestMsg)); ok {
						_ = f.ep.Respond(msg, frontend.MsgReply, rep, 0)
					}
				}(msg)
			}
		}()
	}
	t.Cleanup(f.close)
	waitPool(t, e, func(st PoolStats) bool { return st.Backends > backends })
	return f
}

func (f *fakeFE) announce() {
	m := supervisor.Member{Addr: f.ep.Addr(), Kind: supervisor.KindFrontEnd, State: supervisor.StateUp}
	if f.draining.Load() {
		m.State = supervisor.StateDraining
	}
	f.ep.Multicast(stub.GroupControl, supervisor.MsgAnnounce, m, 0)
}

// close silences the front end and drops its endpoint: a Call to it
// fails at once from here on.
func (f *fakeFE) close() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
		f.ep.Close()
	}
}

func waitPool(t *testing.T, e *Edge, cond func(PoolStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(e.PoolStats()) {
		if time.Now().After(deadline) {
			t.Fatalf("pool never reached the wanted state: %+v", e.PoolStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// answer serves every request with body, a cache-distilled text/plain answer.
func answer(body string) serveFunc {
	return func(san.Message, frontend.RequestMsg) (frontend.ReplyMsg, bool) {
		return frontend.ReplyMsg{MIME: "text/plain", Source: "cache-distilled", Data: []byte(body)}, true
	}
}

// refuse refuses every request with class and text.
func refuse(class, text string) serveFunc {
	return func(san.Message, frontend.RequestMsg) (frontend.ReplyMsg, bool) {
		return frontend.ReplyMsg{Refusal: class, Data: []byte(text)}, true
	}
}

func get(t *testing.T, e *Edge, path string) *http.Response {
	t.Helper()
	resp, err := http.Get("http://" + e.HTTPAddr() + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestEdgeProxiesHeadersAndDeadline(t *testing.T) {
	var seen atomic.Value
	e := newTestEdge(t, 0)
	startFakeFE(t, e, "fe0", func(msg san.Message, req frontend.RequestMsg) (frontend.ReplyMsg, bool) {
		seen.Store([2]any{req, msg.Trace})
		return frontend.ReplyMsg{MIME: "text/plain", Source: "cache-distilled", Degraded: true, Data: []byte("body")}, true
	})

	req, _ := http.NewRequest(http.MethodGet, "http://"+e.HTTPAddr()+"/fetch?url=x&user=alice&raw=1", nil)
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
	got, _ := seen.Load().([2]any)
	if fr, _ := got[0].(frontend.RequestMsg); fr.Request != (frontend.Request{URL: "x", User: "alice", Raw: true}) || fr.Deadline == 0 {
		t.Errorf("the front end got %+v, want the request with its deadline", fr)
	}
	if tr, _ := got[1].(obs.TraceID); tr != 0xff {
		t.Errorf("the front end's Call carried trace %v, want the propagated X-Trace-Id", tr)
	}
	for h, want := range map[string]string{
		HeaderSource: "cache-distilled", HeaderDegraded: "1", HeaderTraceID: "00000000000000ff",
		HeaderEdge: "edge", "Content-Type": "text/plain", "Content-Length": "4",
	} {
		if v := resp.Header.Get(h); v != want {
			t.Errorf("%s = %q, want %q", h, v, want)
		}
	}
	if st := e.Stats(); st.Proxied != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestEdgeMalformedDeadlineGetsRequestTimeout: a junk X-Deadline-Ns is
// treated as absent — the edge applies RequestTimeout, which is the
// deadline its Call carries and ends at.
func TestEdgeMalformedDeadlineGetsRequestTimeout(t *testing.T) {
	var forwarded atomic.Int64
	e := startTestEdge(t, Config{RequestTimeout: 100 * time.Millisecond})
	startFakeFE(t, e, "fe0", func(_ san.Message, req frontend.RequestMsg) (frontend.ReplyMsg, bool) {
		forwarded.Store(req.Deadline)
		return frontend.ReplyMsg{}, false // never answers
	})

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
	if dl := time.Unix(0, forwarded.Load()); dl.Before(start) || dl.After(start.Add(time.Second)) {
		t.Fatalf("forwarded deadline %v, want start + RequestTimeout (start %v)", dl, start)
	}
}

func TestEdgeRetriesIdempotentOnOtherReplica(t *testing.T) {
	e := newTestEdge(t, 1.0)
	startFakeFE(t, e, "fe0", refuse(frontend.RefusedError, "boom"))
	startFakeFE(t, e, "fe1", answer("ok"))

	// Every GET must come back 200: first-attempt failures are retried
	// on the other replica under the (ample) budget.
	for i := 0; i < 8; i++ {
		resp := get(t, e, "/fetch?url=x")
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

// TestEdgeRetriesFullInboxElsewhere: a replica whose inbox is full
// refuses the Call at once, and the request goes to the other replica
// instead of waiting out its deadline.
func TestEdgeRetriesFullInboxElsewhere(t *testing.T) {
	e := newTestEdge(t, 1.0)
	full := startFakeFEInbox(t, e, "fe0", 1, nil) // never reads its inbox
	if err := full.ep.Send(full.ep.Addr(), frontend.MsgRequest, frontend.RequestMsg{}, 0); err != nil {
		t.Fatal(err) // the one slot, taken
	}
	startFakeFE(t, e, "fe1", answer("ok"))
	for i := 0; i < 4; i++ {
		start := time.Now()
		resp := get(t, e, "/fetch?url=x")
		resp.Body.Close()
		if took := time.Since(start); resp.StatusCode != http.StatusOK || took > time.Second {
			t.Fatalf("request %d: status %d after %v, want 200 at once", i, resp.StatusCode, took)
		}
	}
}

func TestEdgeRetryBudgetExhaustionReturnsTypedError(t *testing.T) {
	e := newTestEdge(t, 0) // no budget: first failure is final
	startFakeFE(t, e, "fe0", nil).close()

	_, err := e.forward(context.Background(), frontend.RequestMsg{Request: frontend.Request{URL: "x"}}, true)
	if err == nil {
		t.Fatal("forward against a dead backend succeeded")
	}
	if !errors.Is(err, ErrUpstream) {
		t.Fatalf("err=%v, want errors.Is(_, ErrUpstream)", err)
	}
	var uerr *UpstreamError
	if !errors.As(err, &uerr) || uerr.Backend != "n/fe0" || !errors.Is(err, san.ErrUnknownAddr) {
		t.Fatalf("err=%#v, want *UpstreamError naming the backend and the Call's error", err)
	}
	st := e.Stats()
	if st.RetryDenied != 1 || st.UpstreamErrors != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestEdgeNoBackendsIs503(t *testing.T) {
	e := newTestEdge(t, 0)
	resp := get(t, e, "/fetch?url=x")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get(HeaderError) != "no-backends" {
		t.Fatalf("error header %q", resp.Header.Get(HeaderError))
	}
}

func TestEdgeRelays5xxVerbatim(t *testing.T) {
	e := newTestEdge(t, 0) // no retry: the refusal is relayed as-is
	startFakeFE(t, e, "fe0", refuse(frontend.RefusedOverloaded, "overloaded"))

	resp := get(t, e, "/fetch?url=x")
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
// "overloaded"/"disabled") is alive — the refusal must not count toward
// ejection or spend retry budget, or admission control would collapse
// the pool exactly when the cluster saturates.
func TestEdgeShedDoesNotEject(t *testing.T) {
	e := newTestEdge(t, 1.0)
	startFakeFE(t, e, "fe0", refuse(frontend.RefusedOverloaded, "overloaded"))

	for i := 0; i < 8; i++ { // far past ejectAfter
		resp := get(t, e, "/fetch?url=x")
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
	e := newTestEdge(t, 0)
	draining := startFakeFE(t, e, "fe0", refuse(frontend.RefusedDisabled, "disabled"))
	serving := startFakeFE(t, e, "fe1", answer("ok"))
	for i := 0; draining.requests.Load() == 0; i++ { // until a pick lands on the draining one
		if i == 100 {
			t.Fatal("100 picks and none on fe0")
		}
		resp := get(t, e, "/fetch?url=x")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (%s), want the other replica's answer", resp.StatusCode, resp.Header.Get(HeaderError))
		}
	}
	if st := e.PoolStats(); st.Ejects != 0 || st.Healthy != 2 {
		t.Fatalf("a drain refusal counted against the backend: %+v", st)
	}

	serving.draining.Store(true)
	serving.announce()
	waitPool(t, e, func(st PoolStats) bool { return st.Draining == 1 })
	resp := get(t, e, "/fetch?url=x")
	resp.Body.Close()
	if resp.Header.Get(HeaderError) != "disabled" {
		t.Fatalf("status %d error %q, want the typed refusal relayed", resp.StatusCode, resp.Header.Get(HeaderError))
	}
}

// TestEdgeRelaysFirst5xxWhenRetryFindsNoBackend: with a single (bad)
// replica, a retried failure has nowhere to go — the client must get
// the front end's own reply back, not a synthesized no-backends error.
func TestEdgeRelaysFirst5xxWhenRetryFindsNoBackend(t *testing.T) {
	e := newTestEdge(t, 1.0)
	startFakeFE(t, e, "fe0", refuse(frontend.RefusedError, "frontend: fe0 stopped"))

	resp := get(t, e, "/fetch?url=x")
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadGateway || string(body) != "frontend: fe0 stopped\n" {
		t.Fatalf("status %d body %q, want the front end's 502 relayed", resp.StatusCode, body)
	}
	if st := e.Stats(); st.NoBackends != 0 {
		t.Fatalf("retry dead-end surfaced as no-backends: %+v", st)
	}
}

func TestEdgeStatusEndpoint(t *testing.T) {
	e := newTestEdge(t, 0.5)
	startFakeFE(t, e, "fe0", answer("ok"))
	get(t, e, "/fetch?url=x").Body.Close()

	resp := get(t, e, "/status")
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

// fetchLength GETs url and checks the body arrives whole,
// with its length and unchunked.
func fetchLength(t *testing.T, hop, url string, want int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(got) != want {
		t.Fatalf("%s: read %d of %d bytes: %v", hop, len(got), want, err)
	}
	if resp.ContentLength != int64(want) || len(resp.TransferEncoding) != 0 || resp.Header.Get("Content-Length") != strconv.Itoa(want) {
		t.Errorf("%s: Content-Length %d, Transfer-Encoding %v; want %d and none", hop, resp.ContentLength, resp.TransferEncoding, want)
	}
}
