package frontend

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/origin"
	"repro/internal/tacc"
)

// countingFetcher wraps a Fetcher, counting fetches and holding each
// one long enough for concurrent requests to pile up.
type countingFetcher struct {
	inner   origin.Fetcher
	delay   time.Duration
	fetches atomic.Int64
}

func (c *countingFetcher) Fetch(ctx context.Context, url string) (tacc.Blob, error) {
	c.fetches.Add(1)
	select {
	case <-time.After(c.delay):
	case <-ctx.Done():
		return tacc.Blob{}, ctx.Err()
	}
	return c.inner.Fetch(ctx, url)
}

func TestConcurrentMissesCoalesceToOneFetch(t *testing.T) {
	static := origin.NewStatic()
	counter := &countingFetcher{inner: static, delay: 50 * time.Millisecond}
	fe, _, _ := startFE(t, func(cfg *Config) {
		cfg.Origin = counter
	})
	static.Put("http://a/hot.bin", tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 5000)})

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := fe.Do(context.Background(), Request{URL: "http://a/hot.bin"})
			if err != nil {
				errs <- err
				return
			}
			if resp.Blob.Size() != 5000 {
				t.Errorf("short response: %d bytes", resp.Blob.Size())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := counter.fetches.Load(); got != 1 {
		t.Fatalf("origin fetched %d times for one hot key, want 1", got)
	}
	st := fe.Stats()
	if st.OriginFetches != 1 {
		t.Fatalf("stats.OriginFetches = %d, want 1", st.OriginFetches)
	}
	if st.CoalescedOrigin != clients-1 {
		t.Fatalf("stats.CoalescedOrigin = %d, want %d", st.CoalescedOrigin, clients-1)
	}
}

func TestConcurrentDistillMissesCoalesce(t *testing.T) {
	// No workers exist, so every dispatch fails over to the original —
	// but concurrent requests for one distilled variant must still
	// share a single dispatch attempt.
	static := origin.NewStatic()
	counter := &countingFetcher{inner: static, delay: 20 * time.Millisecond}
	fe, _, _ := startFE(t, func(cfg *Config) {
		cfg.Origin = counter
		cfg.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
			return tacc.Pipeline{{Class: "distill-sjpg"}}
		}
	})
	static.Put("http://a/big.sjpg", tacc.Blob{MIME: media.MIMESJPG, Data: make([]byte, 9000)})

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := fe.Do(context.Background(), Request{URL: "http://a/big.sjpg"})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			if resp.Source != "fallback-original" {
				t.Errorf("source = %s", resp.Source)
			}
		}()
	}
	wg.Wait()
	if got := fe.ManagerStub().Stats().Dispatches; got != 1 {
		t.Fatalf("dispatches = %d for one hot variant, want 1", got)
	}
	st := fe.Stats()
	if st.CoalescedDistill != clients-1 {
		t.Fatalf("stats.CoalescedDistill = %d, want %d", st.CoalescedDistill, clients-1)
	}
	if st.Fallbacks != clients {
		t.Fatalf("stats.Fallbacks = %d, want %d", st.Fallbacks, clients)
	}
}
