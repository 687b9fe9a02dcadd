package edge

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/frontend"
	"repro/internal/obs"
)

// FEServer is a per-front-end HTTP listener serving FetchHandler. The
// edge does not use it (it Calls front ends over the SAN): it is the
// direct front-end probe of bench/'s --trace peel (core.Config.FEHTTP),
// and it goes with ROADMAP item 20.
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
// edge and FetchHandler read them here, alike. An absent
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

// FetchHandler is the HTTP ↔ frontend.Request adapter of a front end's
// own process (cmd/node -http's /fetch, and FEServer). GET
// /fetch?url=<u>&user=<id>&raw=1: the deadline comes from X-Deadline-Ns
// (else, or if malformed, fetchTimeout), the trace id is adopted from
// X-Trace-Id, and the outcome is written as the edge writes a front
// end's reply (writeReply).
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
		defer resp.Release()
		writeReply(w, frontend.Reply(ctx, resp, err), resp.Trace)
	})
}

// writeReply writes a front end's reply as HTTP, the one place its
// fields become a status and headers. A refusal is classified via
// X-TranSend-Error so load generators can tell shed from failure:
// disabled and overloaded are 503, a passed deadline 504, anything else
// a 502. An answer goes out with a known length (no chunk framing),
// its MIME type, source and degraded mark.
func writeReply(w http.ResponseWriter, rep frontend.ReplyMsg, trace obs.TraceID) {
	h := w.Header()
	if trace.Valid() {
		h.Set(HeaderTraceID, trace.String())
	}
	if rep.Refusal != "" {
		status := http.StatusBadGateway
		switch rep.Refusal {
		case frontend.RefusedDisabled, frontend.RefusedOverloaded:
			status = http.StatusServiceUnavailable
		case frontend.RefusedDeadline:
			status = http.StatusGatewayTimeout
		}
		if status != http.StatusBadGateway {
			h.Set(HeaderError, rep.Refusal)
		}
		http.Error(w, string(rep.Data), status)
		return
	}
	h.Set("Content-Length", strconv.Itoa(len(rep.Data)))
	h.Set("Content-Type", rep.MIME)
	h.Set(HeaderSource, rep.Source)
	if rep.Degraded {
		h.Set(HeaderDegraded, "1")
	}
	_, _ = w.Write(rep.Data)
}
