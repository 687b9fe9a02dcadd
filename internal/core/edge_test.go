package core

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/edge"
	"repro/internal/frontend"
	"repro/internal/obs"
)

// edgeGet fetches url through s's edge and returns the response with
// its body read.
func edgeGet(s *System, url string) (*http.Response, error) {
	resp, err := http.Get("http://" + s.Edge().HTTPAddr() + "/fetch?user=alice&url=" + url)
	if err != nil {
		return nil, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp, err
}

// TestEdgeOverloadEndsAtOnce: with each front end admitting 4 requests
// at a time, 32 concurrent misses through the edge each end as a 200 or
// as the front end's typed shed (a 503 marked overloaded) relayed over
// the SAN — none waits for its deadline.
func TestEdgeOverloadEndsAtOnce(t *testing.T) {
	const deadline = 10 * time.Second
	s := startTranSend(t, func(c *Config) {
		c.FrontEnds = 2
		c.FEMaxInflight = 4
		c.EdgeListen = "127.0.0.1:0"
		c.RequestDeadline = deadline
	})
	if !s.WaitReady(10 * time.Second) {
		t.Fatal("system not ready")
	}
	waitFor(t, "both front ends in the edge's pool", func() bool { return s.Edge().PoolStats().Healthy == 2 })

	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[string]int{}
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, err := edgeGet(s, fmt.Sprintf("http://origin%d.example/shed%d.sjpg", i%4, i))
			took := time.Since(start)
			outcome := "error"
			switch {
			case err != nil:
				t.Errorf("request %d: %v", i, err)
			case resp.StatusCode == http.StatusOK:
				outcome = "ok"
			case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get(edge.HeaderError) == "overloaded":
				outcome = "shed"
			default:
				t.Errorf("request %d: status %d (%s) after %v, want 200 or an overloaded 503", i, resp.StatusCode, resp.Header.Get(edge.HeaderError), took)
			}
			if took >= deadline/2 {
				t.Errorf("request %d took %v of its %v deadline", i, took, deadline)
			}
			mu.Lock()
			outcomes[outcome]++
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	t.Logf("outcomes %v; edge %+v", outcomes, s.Edge().Stats())
}

// TestFrontEndReplyWritesAtOnce: a front end's reply leaves its process
// by the responder's own write, not the flush timer's, because the
// edge's client waits on it (frontend.ReplyMsg is a san.Prompter). With
// the edge in the other process from the front end, over 160
// sequential hits through it on 16 warmed URLs, every one traced, the
// transport.flush spans the front end's process records for fe.reply
// read a p50 under 300 µs; a reply that waits for the timer reads
// ≈ 1.1 ms.
func TestFrontEndReplyWritesAtOnce(t *testing.T) {
	sysA, sysB := startPair(t, func(a, b *Config) {
		a.TraceSampleRate = 1
		b.TraceSampleRate = 1
		b.Roles.Edge = true
		b.EdgeListen = "127.0.0.1:0"
	})
	waitFor(t, "the front end in the edge's pool", func() bool { return sysB.Edge().PoolStats().Healthy == 1 })
	url := func(i int) string { return fmt.Sprintf("http://origin%d.example/reply%d.sjpg", i%4, i%16) }
	var traces []obs.TraceID
	for i := 0; i < 16+160; i++ { // the first 16 are the misses that warm the cache
		resp, err := edgeGet(sysB, url(i))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %v %v", i, resp, err)
		}
		if i < 16 {
			continue
		}
		id, err := obs.ParseTraceID(resp.Header.Get(edge.HeaderTraceID))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		traces = append(traces, id)
	}
	if p50 := flushP50(t, sysA.Tracer(), traces, frontend.MsgReply); p50 >= 300*time.Microsecond {
		t.Fatalf("fe.reply flush p50 %v, want < 300µs: the reply waited for the flush timer", p50)
	}
}
