package edge

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/tacc"
)

// TestFetchHandlerSendsLength: a body far past the server's chunking
// buffer still goes out with its length and unchunked — from FetchHandler,
// and from the edge relaying a front end's reply.
func TestFetchHandlerSendsLength(t *testing.T) {
	body := make([]byte, 256<<10)
	adapter := httptest.NewServer(FetchHandler(func(context.Context, frontend.Request) (frontend.Response, error) {
		return frontend.Response{Blob: tacc.Blob{MIME: "application/octet-stream", Data: body}, Source: "original"}, nil
	}))
	defer adapter.Close()
	fetchLength(t, "adapter", adapter.URL+"/fetch?url=u", len(body))

	e := newTestEdge(t, 0)
	startFakeFE(t, e, "fe0", func(san.Message, frontend.RequestMsg) (frontend.ReplyMsg, bool) {
		return frontend.ReplyMsg{MIME: "application/octet-stream", Source: "original", Data: body}, true
	})
	fetchLength(t, "edge", "http://"+e.HTTPAddr()+"/fetch?url=u", len(body))
}

// TestFEServerCloseDoesNotDrain: an adapter is retired after its front
// end is gone, so Close returns at once with a request still in flight
// rather than waiting for it to finish.
func TestFEServerCloseDoesNotDrain(t *testing.T) {
	s, err := NewFEServer("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	s.Serve(func(context.Context, frontend.Request) (frontend.Response, error) {
		close(entered)
		<-release
		return frontend.Response{}, errors.New("released")
	})
	go func() {
		if resp, err := http.Get("http://" + s.Addr() + "/fetch?url=u"); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Fatalf("Close took %s with a request in flight, want < 100ms", took)
	}
}

// TestFetchHandler drives the one HTTP ↔ frontend.Request adapter
// against a fake front end: how each query/header reaches the request
// and its context, and how each outcome maps back onto status and
// headers.
func TestFetchHandler(t *testing.T) {
	okResp := frontend.Response{
		Blob:   tacc.Blob{MIME: "image/sjpg", Data: []byte("body")},
		Source: "cache-distilled",
	}
	for _, tc := range []struct {
		name   string
		target string
		header map[string]string
		resp   frontend.Response
		err    error

		wantCalls    int
		wantStatus   int
		wantError    string // X-TranSend-Error
		wantRaw      bool
		wantUser     string
		wantDegraded string
		wantTrace    string        // inbound id adopted by the context and echoed back
		wantBudget   time.Duration // upper bound on the context's time to deadline (0 = already past)
	}{
		{name: "ok", target: "/fetch?url=u&user=alice", resp: okResp,
			wantCalls: 1, wantStatus: 200, wantUser: "alice", wantBudget: fetchTimeout},
		{name: "raw=1 reaches the request", target: "/fetch?url=u&raw=1", resp: okResp,
			wantCalls: 1, wantStatus: 200, wantRaw: true, wantBudget: fetchTimeout},
		{name: "raw=0 is not raw", target: "/fetch?url=u&raw=0", resp: okResp,
			wantCalls: 1, wantStatus: 200, wantBudget: fetchTimeout},
		{name: "degraded", target: "/fetch?url=u",
			resp:      frontend.Response{Blob: okResp.Blob, Source: "fallback-stale", Degraded: true},
			wantCalls: 1, wantStatus: 200, wantDegraded: "1", wantBudget: fetchTimeout},
		{name: "trace adopted and echoed", target: "/fetch?url=u", resp: okResp,
			header:    map[string]string{HeaderTraceID: "00000000000000ff"},
			wantCalls: 1, wantStatus: 200, wantTrace: "00000000000000ff", wantBudget: fetchTimeout},
		{name: "propagated deadline", target: "/fetch?url=u", resp: okResp,
			header:    map[string]string{HeaderDeadline: strconv.FormatInt(time.Now().Add(time.Minute).UnixNano(), 10)},
			wantCalls: 1, wantStatus: 200, wantBudget: time.Minute},
		{name: "malformed deadline falls back to the default", target: "/fetch?url=u", resp: okResp,
			header:    map[string]string{HeaderDeadline: "soon"},
			wantCalls: 1, wantStatus: 200, wantBudget: fetchTimeout},
		{name: "missing url", target: "/fetch?user=alice",
			wantCalls: 0, wantStatus: 400},
		{name: "disabled", target: "/fetch?url=u", err: fmt.Errorf("fe0: %w", frontend.ErrDisabled),
			wantCalls: 1, wantStatus: 503, wantError: "disabled", wantBudget: fetchTimeout},
		{name: "overloaded", target: "/fetch?url=u", err: fmt.Errorf("fe0: %w", frontend.ErrOverloaded),
			wantCalls: 1, wantStatus: 503, wantError: "overloaded", wantBudget: fetchTimeout},
		{name: "deadline", target: "/fetch?url=u", err: context.DeadlineExceeded,
			header:    map[string]string{HeaderDeadline: strconv.FormatInt(time.Now().Add(-time.Second).UnixNano(), 10)},
			wantCalls: 1, wantStatus: 504, wantError: "deadline"},
		{name: "other error", target: "/fetch?url=u", err: errors.New("origin unreachable"),
			wantCalls: 1, wantStatus: 502, wantBudget: fetchTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls, releases int
			h := FetchHandler(func(ctx context.Context, req frontend.Request) (frontend.Response, error) {
				calls++
				if req.URL != "u" || req.User != tc.wantUser || req.Raw != tc.wantRaw {
					t.Errorf("request = %+v, want url u, user %q, raw %v", req, tc.wantUser, tc.wantRaw)
				}
				dl, ok := ctx.Deadline()
				if !ok {
					t.Error("request ran with no deadline")
				}
				if left := time.Until(dl); tc.wantBudget > 0 && (left <= 0 || left > tc.wantBudget) {
					t.Errorf("time to deadline = %s, want in (0, %s]", left, tc.wantBudget)
				}
				if got := obs.TraceFrom(ctx); tc.wantTrace != "" && got.String() != tc.wantTrace {
					t.Errorf("context trace = %s, want %s", got, tc.wantTrace)
				}
				if tc.err != nil {
					return frontend.Response{}, tc.err
				}
				resp := tc.resp.WithRelease(func() { releases++ })
				resp.Trace = obs.TraceFrom(ctx)
				return resp, nil
			})
			r := httptest.NewRequest(http.MethodGet, tc.target, nil)
			for k, v := range tc.header {
				r.Header.Set(k, v)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)

			if calls != tc.wantCalls {
				t.Fatalf("do called %d times, want %d", calls, tc.wantCalls)
			}
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %q)", w.Code, tc.wantStatus, w.Body)
			}
			if got := w.Header().Get(HeaderError); got != tc.wantError {
				t.Errorf("%s = %q, want %q", HeaderError, got, tc.wantError)
			}
			if w.Code != http.StatusOK {
				if releases != 0 {
					t.Errorf("Release called %d times on a refusal", releases)
				}
				return
			}
			if releases != 1 {
				t.Errorf("Release called %d times, want exactly 1", releases)
			}
			if got := w.Body.String(); got != string(tc.resp.Blob.Data) {
				t.Errorf("body = %q, want %q", got, tc.resp.Blob.Data)
			}
			for k, want := range map[string]string{
				"Content-Type": tc.resp.Blob.MIME,
				HeaderSource:   tc.resp.Source,
				HeaderDegraded: tc.wantDegraded,
				HeaderTraceID:  tc.wantTrace,
			} {
				if got := w.Header().Get(k); got != want {
					t.Errorf("%s = %q, want %q", k, got, want)
				}
			}
		})
	}
}
