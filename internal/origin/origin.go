// Package origin simulates the Internet content servers TranSend
// proxies for. Content is a deterministic function of the URL, so any
// component fetching the same URL sees identical bytes, and the
// configurable fetch delay reproduces the paper's measured miss
// penalty ("the time to fetch data from the Internet varies widely,
// from 100 ms through 100 seconds", §4.4).
package origin

import (
	"context"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/media"
	"repro/internal/tacc"
	"repro/internal/trace"
)

// Fetcher fetches original content for a URL.
type Fetcher interface {
	Fetch(ctx context.Context, url string) (tacc.Blob, error)
}

// Simulated is a deterministic origin-server universe.
type Simulated struct {
	// Seed fixes the content universe.
	Seed int64
	// Delay, if non-nil, returns the per-fetch miss penalty.
	Delay func(rng *rand.Rand) time.Duration

	model     *trace.ContentModel
	modelOnce sync.Once
	rngMu     sync.Mutex
	rng       *rand.Rand
	fetches   atomic.Uint64
}

// NewSimulated creates an origin universe.
func NewSimulated(seed int64) *Simulated {
	return &Simulated{Seed: seed}
}

// Fetches reports how many fetches have been served.
func (s *Simulated) Fetches() uint64 { return s.fetches.Load() }

// Fetch implements Fetcher: it synthesizes the URL's content (size and
// type drawn from the Figure 5 model, keyed by the URL) after the miss
// penalty elapses.
func (s *Simulated) Fetch(ctx context.Context, url string) (tacc.Blob, error) {
	s.modelOnce.Do(func() {
		s.model = trace.NewContentModel()
		s.rng = rand.New(rand.NewSource(s.Seed ^ 0x0f0f0f0f))
	})
	s.fetches.Add(1)
	if s.Delay != nil {
		s.rngMu.Lock()
		d := s.Delay(s.rng)
		s.rngMu.Unlock()
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return tacc.Blob{}, ctx.Err()
		}
	}
	h := fnv.New64a()
	h.Write([]byte(url))
	urlSeed := int64(h.Sum64())
	rng := rand.New(rand.NewSource(s.Seed ^ urlSeed))

	mime := mimeFromURL(url)
	var size int
	if mime == "" {
		mime, size = s.model.Sample(rng)
	} else {
		size = s.model.SampleMIME(rng, mime)
	}
	data := media.GenerateContent(rng, mime, size)
	return tacc.Blob{MIME: mime, Data: data}, nil
}

// mimeFromURL infers the type from the synthetic URL extension,
// falling back to "" (sample from the mix) for unknown paths.
func mimeFromURL(url string) string {
	switch {
	case strings.HasSuffix(url, ".sgif"):
		return media.MIMESGIF
	case strings.HasSuffix(url, ".sjpg"):
		return media.MIMESJPG
	case strings.HasSuffix(url, ".html"):
		return media.MIMEHTML
	case strings.HasSuffix(url, ".bin"):
		return media.MIMEOther
	default:
		return ""
	}
}

// Static is a Fetcher serving a fixed table — handy for examples and
// aggregators whose upstream pages are prepared in advance.
type Static struct {
	mu    sync.RWMutex
	pages map[string]tacc.Blob
}

// NewStatic creates an empty static origin.
func NewStatic() *Static {
	return &Static{pages: make(map[string]tacc.Blob)}
}

// Put installs a page.
func (s *Static) Put(url string, blob tacc.Blob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages[url] = blob
}

// Fetch implements Fetcher.
func (s *Static) Fetch(ctx context.Context, url string) (tacc.Blob, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	blob, ok := s.pages[url]
	if !ok {
		return tacc.Blob{}, &NotFoundError{URL: url}
	}
	return blob, nil
}

// NotFoundError reports a missing page.
type NotFoundError struct{ URL string }

// Error implements error.
func (e *NotFoundError) Error() string { return "origin: not found: " + e.URL }
