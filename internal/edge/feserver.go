package edge

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/frontend"
	"repro/internal/obs"
)

// FEServer is the per-front-end HTTP adapter: the listener whose
// address an FE advertises in its heartbeats and the edge routes to.
// It lives in this package so edge→frontend is the only new dependency
// direction — the frontend package itself stays free of net/http.
//
// Construction is two-step (NewFEServer binds, Serve attaches the
// front end) because the bound address must be known before the front
// end is built: it goes into frontend.Config.HTTPAddr so the very
// first heartbeat already advertises it.
type FEServer struct {
	ln  net.Listener
	srv *http.Server
}

// fetchTimeout bounds a /fetch that arrives without a usable
// X-Deadline-Ns.
const fetchTimeout = 30 * time.Second

// NewFEServer binds a listener on host:0 (or any explicit host:port).
func NewFEServer(listen string) (*FEServer, error) {
	if _, _, err := net.SplitHostPort(listen); err != nil {
		listen = net.JoinHostPort(listen, "0")
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("edge: fe listen %s: %w", listen, err)
	}
	return &FEServer{ln: ln}, nil
}

// Addr returns the bound host:port.
func (s *FEServer) Addr() string { return s.ln.Addr().String() }

// Serve attaches the front end (its Do) and starts serving. Call once.
func (s *FEServer) Serve(do func(context.Context, frontend.Request) (frontend.Response, error)) {
	mux := http.NewServeMux()
	mux.Handle("/fetch", FetchHandler(do))
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = s.srv.Serve(s.ln) }()
}

// Close shuts the adapter down at once, connections in flight included:
// it is closed after its front end is gone (a restart's replacement has
// its own adapter), so there is nothing left to drain.
func (s *FEServer) Close() error {
	if s.srv == nil {
		return s.ln.Close()
	}
	return s.srv.Close()
}

// requestHeaders reads the deadline and trace id a request carries: the
// X-Deadline-Ns instant, or now plus fallback when the header is absent
// or malformed, and the X-Trace-Id (zero when absent or malformed). The
// edge and every front end's HTTP entry read them here, alike. An absent
// header is not parsed, since a failed parse allocates its error.
func requestHeaders(h http.Header, fallback time.Duration) (deadline time.Time, trace obs.TraceID) {
	deadline = time.Now().Add(fallback)
	if v := h.Get(HeaderDeadline); v != "" {
		if ns, err := strconv.ParseInt(v, 10, 64); err == nil {
			deadline = time.Unix(0, ns)
		}
	}
	if v := h.Get(HeaderTraceID); v != "" {
		trace, _ = obs.ParseTraceID(v)
	}
	return deadline, trace
}

// FetchHandler is the one HTTP ↔ frontend.Request adapter, mounted on
// every HTTP entry to a front end (the per-FE listeners above and
// cmd/node -http). GET /fetch?url=<u>&user=<id>&raw=1: the deadline
// comes from X-Deadline-Ns (else, or if malformed, fetchTimeout), the
// trace id is adopted from X-Trace-Id, and refusals are classified via
// X-TranSend-Error so the edge and load generators can tell shed from
// failure.
func FetchHandler(do func(context.Context, frontend.Request) (frontend.Response, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		url := q.Get("url")
		if url == "" {
			http.Error(w, "missing url", http.StatusBadRequest)
			return
		}
		deadline, trace := requestHeaders(r.Header, fetchTimeout)
		ctx, cancel := context.WithDeadline(r.Context(), deadline)
		defer cancel()
		ctx = obs.WithTrace(ctx, trace)

		resp, err := do(ctx, frontend.Request{
			URL:  url,
			User: q.Get("user"),
			Raw:  q.Get("raw") == "1",
		})
		if err != nil {
			switch {
			case errors.Is(err, frontend.ErrDisabled):
				w.Header().Set(HeaderError, "disabled")
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
			case errors.Is(err, frontend.ErrOverloaded):
				w.Header().Set(HeaderError, "overloaded")
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
			case ctx.Err() != nil:
				w.Header().Set(HeaderError, "deadline")
				http.Error(w, err.Error(), http.StatusGatewayTimeout)
			default:
				http.Error(w, err.Error(), http.StatusBadGateway)
			}
			return
		}
		defer resp.Release()
		// A known length: no chunk framing here, nor at the edge relaying it.
		w.Header().Set("Content-Length", strconv.Itoa(len(resp.Blob.Data)))
		w.Header().Set("Content-Type", resp.Blob.MIME)
		w.Header().Set(HeaderSource, resp.Source)
		if resp.Degraded {
			w.Header().Set(HeaderDegraded, "1")
		}
		if resp.Trace.Valid() {
			w.Header().Set(HeaderTraceID, resp.Trace.String())
		}
		_, _ = w.Write(resp.Blob.Data)
	})
}
