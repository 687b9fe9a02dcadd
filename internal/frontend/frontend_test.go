package frontend

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/media"
	"repro/internal/origin"
	"repro/internal/profiledb"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// startFE boots a front end with a static origin, optional cache
// nodes, and no manager (pass-through paths only unless a rules+worker
// harness is added by the test).
func startFE(t *testing.T, mutate func(*Config)) (*FrontEnd, *cluster.Cluster, *origin.Static) {
	t.Helper()
	return startFEOn(t, san.NewNetwork(1, san.WithCodec(stub.WireCodec{})), mutate)
}

// startFEOn is startFE over a caller-built network (e.g. one with the
// wire codec installed).
func startFEOn(t *testing.T, net *san.Network, mutate func(*Config)) (*FrontEnd, *cluster.Cluster, *origin.Static) {
	t.Helper()
	cl := cluster.New(net)
	cl.AddNode("fe-node", false)
	cl.AddNode("c-node", false)

	static := origin.NewStatic()
	db, err := profiledb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	// One cache partition.
	svc := vcache.NewService("cache0", net, "c-node", vcache.NewPartition(1<<20, nil))
	if _, err := cl.Spawn("c-node", svc); err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		Name:           "fe0",
		Node:           "fe-node",
		Net:            net,
		Profiles:       profiledb.NewReadCache(db),
		Origin:         static,
		CacheNodes:     map[string]san.Addr{"cache0": svc.Addr()},
		MinDistillSize: 100,
		ManagerStub:    stub.ManagerStubConfig{CallTimeout: 50 * time.Millisecond},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	fe := New(cfg)
	if _, err := cl.Spawn("fe-node", fe); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.StopAll)
	waitFor(t, "fe running", fe.Running)
	return fe, cl, static
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestPassThroughAndOriginCaching(t *testing.T) {
	fe, _, static := startFE(t, nil)
	static.Put("http://a/x.bin", tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 5000)})
	ctx := context.Background()

	resp, err := fe.Do(ctx, Request{URL: "http://a/x.bin", User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "original" || resp.Blob.Size() != 5000 {
		t.Fatalf("resp = %+v", resp)
	}
	// Second request: original served from the virtual cache.
	resp2, err := fe.Do(ctx, Request{URL: "http://a/x.bin", User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Source != "original" {
		t.Fatalf("source = %s", resp2.Source)
	}
	st := fe.Stats()
	if st.OriginFetches != 1 {
		t.Fatalf("origin fetches = %d, want 1 (cache absorbed the repeat)", st.OriginFetches)
	}
	if st.CacheOriginal != 1 {
		t.Fatalf("cache-original hits = %d", st.CacheOriginal)
	}
}

// TestLatencyHistogramSurvivesRespawn: Do observes into a histogram
// resolved once, by name, at construction — so a respawned instance
// keeps filling the one its predecessor published.
func TestLatencyHistogramSurvivesRespawn(t *testing.T) {
	fe, _, static := startFE(t, nil)
	static.Put("http://a/x.bin", tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 5000)})
	if _, err := fe.Do(context.Background(), Request{URL: "http://a/x.bin", User: "u"}); err != nil {
		t.Fatal(err)
	}
	if n := fe.cfg.Net.Registry().Snapshot()["fe.fe0.latency_ns.count"]; n != 1 {
		t.Fatalf("fe.fe0.latency_ns.count = %v after one request, want 1", n)
	}
	if again := New(fe.cfg); again.latency != fe.latency {
		t.Fatal("a respawned front end resolved a different latency histogram")
	}
}

func TestOriginErrorSurfaces(t *testing.T) {
	fe, _, _ := startFE(t, nil)
	_, err := fe.Do(context.Background(), Request{URL: "http://missing/x.bin", User: "u"})
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v", err)
	}
	if fe.Stats().Errors != 1 {
		t.Fatalf("errors = %d", fe.Stats().Errors)
	}
}

func TestFallbackWhenNoWorkers(t *testing.T) {
	// Rules demand distillation but there is no manager and no
	// workers: the front end returns the original (approximate
	// answer), not an error.
	fe, _, static := startFE(t, func(cfg *Config) {
		cfg.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
			return tacc.Pipeline{{Class: "distill-sjpg"}}
		}
	})
	static.Put("http://a/big.sjpg", tacc.Blob{MIME: media.MIMESJPG, Data: make([]byte, 9000)})
	resp, err := fe.Do(context.Background(), Request{URL: "http://a/big.sjpg", User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "fallback-original" {
		t.Fatalf("source = %s", resp.Source)
	}
	if resp.Blob.Meta["degraded"] == "" {
		t.Fatal("degraded marker missing")
	}
	if fe.Stats().Fallbacks != 1 {
		t.Fatalf("fallbacks = %d", fe.Stats().Fallbacks)
	}
}

func TestRawBypassesRules(t *testing.T) {
	called := false
	fe, _, static := startFE(t, func(cfg *Config) {
		cfg.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
			called = true
			return tacc.Pipeline{{Class: "x"}}
		}
	})
	static.Put("http://a/p.html", tacc.Blob{MIME: media.MIMEHTML, Data: make([]byte, 3000)})
	resp, err := fe.Do(context.Background(), Request{URL: "http://a/p.html", User: "u", Raw: true})
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("rules consulted for a raw request")
	}
	if resp.Source != "original" {
		t.Fatalf("source = %s", resp.Source)
	}
}

func TestSmallContentSkipsDistillation(t *testing.T) {
	fe, _, static := startFE(t, func(cfg *Config) {
		cfg.MinDistillSize = 1024
		cfg.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
			return tacc.Pipeline{{Class: "never-exists"}}
		}
	})
	static.Put("http://a/icon.sgif", tacc.Blob{MIME: media.MIMESGIF, Data: make([]byte, 300)})
	resp, err := fe.Do(context.Background(), Request{URL: "http://a/icon.sgif", User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "original" {
		t.Fatalf("source = %s (1KB threshold must bypass the pipeline)", resp.Source)
	}
	if fe.Stats().Fallbacks != 0 {
		t.Fatal("threshold bypass went through dispatch")
	}
}

// slowFetcher wraps a Fetcher with a fixed delay, standing in for the
// wide-area miss penalty.
type slowFetcher struct {
	inner origin.Fetcher
	delay time.Duration
}

func (s slowFetcher) Fetch(ctx context.Context, url string) (tacc.Blob, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return tacc.Blob{}, ctx.Err()
	}
	return s.inner.Fetch(ctx, url)
}

func TestOverload(t *testing.T) {
	// An inflight bound of two and a slow origin: fill both admission
	// slots with slow fetches, and the front end sheds further load
	// instead of blocking forever. MaxInflight alone decides.
	static := origin.NewStatic()
	fe, _, _ := startFE(t, func(cfg *Config) {
		cfg.MaxInflight = 2
		cfg.Origin = slowFetcher{inner: static, delay: time.Second}
	})
	for i := 0; i < 3; i++ {
		static.Put(fmt.Sprintf("http://a/x%d.bin", i),
			tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 200)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Occupy both inflight slots, each pinned to the origin for a full
	// second.
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			fe.Do(ctx, Request{URL: fmt.Sprintf("http://a/x%d.bin", i), User: "u"})
			done <- struct{}{}
		}(i)
	}
	waitFor(t, "both admission slots held", func() bool {
		return fe.inflight.Load() >= 2
	})
	// A saturated front end degrades to whatever the cache holds
	// before shedding, so only a never-cached probe is guaranteed to
	// reach the shed rung — and it must be the typed refusal, fast,
	// not a queued request waiting out the origin delay.
	if _, err := fe.Do(ctx, Request{URL: "http://a/x2.bin"}); err != ErrOverloaded {
		t.Fatalf("saturated probe: err = %v, want ErrOverloaded", err)
	}
	if st := fe.Stats(); st.Shed == 0 {
		t.Fatalf("stats = %+v, want Shed > 0", st)
	}
	<-done // each leader stays with its fetch to the end
	<-done
	waitFor(t, "inflight back to zero", func() bool { return fe.inflight.Load() == 0 })
}

// TestHitNeedsNoRunLoop: a request's cache answer goes from the SAN to
// the goroutine inside Do, so a hit completes while the front end's Run
// loop is stuck (here inside its own heartbeat's stats collection).
func TestHitNeedsNoRunLoop(t *testing.T) {
	net := san.NewNetwork(1, san.WithCodec(stub.WireCodec{}), san.WithBeacon(5*time.Millisecond))
	fe, _, static := startFEOn(t, net, nil)
	static.Put("http://a/x.bin", tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 5000)})
	if _, err := fe.Do(context.Background(), Request{URL: "http://a/x.bin"}); err != nil {
		t.Fatal(err)
	}
	stuck, gate := make(chan struct{}, 1), make(chan struct{})
	t.Cleanup(func() { close(gate) }) // before StopAll, which waits for Run
	fe.cfg.Net.Registry().SetCollector("fe.fe0", func(func(string, float64)) {
		select {
		case stuck <- struct{}{}:
		default:
		}
		<-gate
	})
	<-stuck
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, err := fe.Do(ctx, Request{URL: "http://a/x.bin"})
	if err != nil || resp.Source != "original" || fe.Stats().CacheOriginal != 1 {
		t.Fatalf("hit behind a stuck Run loop: resp %+v, err %v, stats %+v", resp, err, fe.Stats())
	}
}

// TestKillWhilePinned: a front end killed while a request waits — on a
// slow origin, or in a Call to a cache partition that never answers —
// returns it with the typed stopped error at once: every wait a request
// makes ends with the Run that admitted it. A kill detaches the endpoint
// before it cancels the Run, as core's System.Kill does, so the front
// end does not drain.
func TestKillWhilePinned(t *testing.T) {
	static := origin.NewStatic()
	static.Put("http://a/x.bin", tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 200)})
	for name, pin := range map[string]func(*Config){
		"origin": func(cfg *Config) { cfg.Origin = slowFetcher{inner: static, delay: time.Minute} },
		"cache": func(cfg *Config) {
			cfg.Origin = static
			cfg.CacheTimeout = time.Minute
			cfg.CacheNodes = map[string]san.Addr{"mute": cfg.Net.Endpoint(san.Addr{Node: "c-node", Proc: "mute"}, 8).Addr()}
		},
	} {
		t.Run(name, func(t *testing.T) {
			fe, cl, _ := startFE(t, pin)
			errc := make(chan error, 1)
			go func() {
				_, err := fe.Do(context.Background(), Request{URL: "http://a/x.bin"})
				errc <- err
			}()
			waitFor(t, "request pinned", func() bool { return fe.inflight.Load() == 1 })
			fe.cfg.Net.Drop(fe.Addr())
			_ = cl.KillProcess("fe-node", "fe0") // the drop may have ended Run already
			select {
			case err := <-errc:
				if err == nil || !strings.Contains(err.Error(), "fe0 stopped") {
					t.Fatalf("err = %v, want the typed stopped error", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Do still pinned 2 s after its front end was killed")
			}
			if n := fe.inflight.Load(); n != 0 {
				t.Fatalf("inflight = %d after the kill", n)
			}
		})
	}
}

// barrierFetcher holds every fetch until want of them are in it at
// once, or fails the fetch after a timeout.
type barrierFetcher struct {
	inner   origin.Fetcher
	want    int32
	arrived atomic.Int32
	all     chan struct{}
}

func (b *barrierFetcher) Fetch(ctx context.Context, url string) (tacc.Blob, error) {
	if b.arrived.Add(1) == b.want {
		close(b.all)
	}
	select {
	case <-b.all:
		return b.inner.Fetch(ctx, url)
	case <-time.After(5 * time.Second):
		return tacc.Blob{}, fmt.Errorf("only %d of %d fetches ever ran at once", b.arrived.Load(), b.want)
	}
}

// TestRequestsRunOnTheirOwnGoroutines: 100 concurrent requests on a slow
// origin are all at the origin at the same moment — none waits behind a
// pool narrower than the admission bound — and every slot comes back.
func TestRequestsRunOnTheirOwnGoroutines(t *testing.T) {
	const n = 100
	static := origin.NewStatic()
	fe, _, _ := startFE(t, func(cfg *Config) {
		cfg.Origin = &barrierFetcher{inner: static, want: n, all: make(chan struct{})}
	})
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://a/x%d.bin", i)
		static.Put(url, tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 200)})
		go func() {
			_, err := fe.Do(context.Background(), Request{URL: url})
			errc <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := fe.inflight.Load(); got != 0 {
		t.Fatalf("inflight = %d after every request returned", got)
	}
}

// TestDisabledFrontEndRejects: the hot upgrade's disable is a stop, and
// its enable the next Run (§2.1). A stopped front end refuses with the
// retryable ErrDisabled; run again, it serves.
func TestDisabledFrontEndRejects(t *testing.T) {
	fe, cl, static := startFE(t, nil)
	static.Put("http://a/x.bin", tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 200)})
	if err := cl.KillProcess("fe-node", "fe0"); err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Do(context.Background(), Request{URL: "http://a/x.bin"}); err != ErrDisabled {
		t.Fatalf("stopped front end answered %v, want %v", err, ErrDisabled)
	}
	if _, err := cl.Spawn("fe-node", fe); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "running again", fe.Running)
	if _, err := fe.Do(context.Background(), Request{URL: "http://a/x.bin"}); err != nil {
		t.Fatalf("restarted front end: %v", err)
	}
}

// gateFetcher holds every origin fetch until gate closes.
type gateFetcher struct {
	inner origin.Fetcher
	gate  chan struct{}
}

func (g gateFetcher) Fetch(ctx context.Context, url string) (tacc.Blob, error) {
	<-g.gate
	return g.inner.Fetch(ctx, url)
}

// TestStopDrainsAdmittedRequests: a stop announces the front end
// draining at once, refuses what arrives after that with ErrDisabled,
// and returns only when every request admitted before it has answered —
// each of them OK.
func TestStopDrainsAdmittedRequests(t *testing.T) {
	gate := make(chan struct{})
	static := origin.NewStatic()
	fe, cl, _ := startFE(t, func(cfg *Config) { cfg.Origin = gateFetcher{inner: static, gate: gate} })
	var draining atomic.Bool
	lis := fe.cfg.Net.Endpoint(san.Addr{Node: "edge", Proc: "edge"}, 64)
	lis.Join(stub.GroupControl)
	go func() {
		for msg := range lis.Inbox() {
			if m, ok := msg.Body.(supervisor.Member); ok && m.Addr == fe.Addr() && m.State == supervisor.StateDraining {
				draining.Store(true)
			}
		}
	}()
	t.Cleanup(lis.Close)

	const n = 3
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://a/held%d.bin", i)
		static.Put(url, tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 200)})
		go func() {
			resp, err := fe.Do(context.Background(), Request{URL: url})
			if err == nil && resp.Source != "original" {
				err = fmt.Errorf("source %q", resp.Source)
			}
			errc <- err
		}()
	}
	waitFor(t, "requests admitted", func() bool { return fe.inflight.Load() == n })

	stopped := make(chan error, 1)
	go func() { stopped <- cl.KillProcess("fe-node", "fe0") }()
	waitFor(t, "draining announced", draining.Load)
	if _, err := fe.Do(context.Background(), Request{URL: "http://a/held0.bin"}); err != ErrDisabled {
		t.Fatalf("request after the draining announcement: %v, want %v", err, ErrDisabled)
	}
	if !fe.Running() {
		t.Fatal("Run returned with requests still in flight")
	}
	close(gate)
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("admitted request: %v", err)
		}
	}
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	if fe.Running() {
		t.Fatal("still running after the stop returned")
	}
}

func TestProfilePairing(t *testing.T) {
	var gotProfile map[string]string
	fe, _, static := startFE(t, func(cfg *Config) {
		cfg.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
			gotProfile = profile
			return nil
		}
	})
	if err := fe.cfg.Profiles.Set("alice", "quality", "10"); err != nil {
		t.Fatal(err)
	}
	static.Put("http://a/x.html", tacc.Blob{MIME: media.MIMEHTML, Data: make([]byte, 2000)})
	if _, err := fe.Do(context.Background(), Request{URL: "http://a/x.html", User: "alice"}); err != nil {
		t.Fatal(err)
	}
	if gotProfile["quality"] != "10" {
		t.Fatalf("profile not paired with request: %v", gotProfile)
	}
}

func TestMimeHint(t *testing.T) {
	cases := map[string]string{
		"http://x/a.sgif": "image/sgif",
		"http://x/a.sjpg": "image/sjpg",
		"http://x/a.html": "text/html",
		"http://x/dir/":   "text/html",
		"http://x/a.zip":  "application/octet-stream",
	}
	for url, want := range cases {
		if got := mimeHint(url); got != want {
			t.Fatalf("mimeHint(%s) = %s, want %s", url, got, want)
		}
	}
}

func TestDoOnStoppedFrontEnd(t *testing.T) {
	fe, cl, _ := startFE(t, nil)
	cl.StopAll()
	waitFor(t, "stopped", func() bool { return !fe.Running() })
	if _, err := fe.Do(context.Background(), Request{URL: "http://a/x"}); err == nil {
		t.Fatal("Do succeeded on stopped front end")
	}
}
