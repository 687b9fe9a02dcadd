package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/distiller"
	"repro/internal/manager"
	"repro/internal/media"
	"repro/internal/softstate"
	"repro/internal/tacc"
	"repro/internal/trace"
)

const tick = 15 * time.Millisecond

// startTranSend boots a small TranSend deployment with compressed
// timers suitable for tests.
func startTranSend(t *testing.T, mutate func(*Config)) *System {
	t.Helper()
	reg := tacc.NewRegistry()
	distiller.RegisterAll(reg)
	cfg := Config{
		Seed:           1,
		DedicatedNodes: 6,
		OverflowNodes:  2,
		FrontEnds:      1,
		CacheParts:     2,
		Workers: map[string]int{
			distiller.ClassSGIF: 1,
			distiller.ClassSJPG: 1,
			distiller.ClassHTML: 1,
		},
		Registry:       reg,
		Rules:          distiller.TranSendRules(),
		ProfileDir:     t.TempDir(),
		BeaconInterval: tick,
		CallTimeout:    2 * time.Second,
		Policy: manager.Policy{
			SpawnThreshold: 1e9, // no autoscaling unless a test wants it
			Damping:        time.Hour,
			ReapThreshold:  -1,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// spawnExtra starts one more worker of class the way OpSpawnWorker does
// and returns its id.
func spawnExtra(t *testing.T, s *System, class string) string {
	t.Helper()
	before := s.Workers()
	if err := s.SpawnWorker(class); err != nil {
		t.Fatal(err)
	}
	for _, id := range s.Workers() {
		if !slices.Contains(before, id) {
			return id
		}
	}
	t.Fatalf("no new worker of class %s in %v", class, s.Workers())
	return ""
}

func waitForWorkers(t *testing.T, s *System, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d workers registered", n), func() bool {
		return s.Manager().Stats().Workers >= n
	})
	// Front ends learn about workers from beacons, and the manager
	// must be tracking the front ends (process-peer coverage).
	waitFor(t, "front ends see workers", func() bool {
		for _, fe := range s.FrontEnds() {
			if fe.ManagerStub().Stats().BeaconsSeen == 0 {
				return false
			}
		}
		return s.Manager().Stats().FrontEnds >= len(s.FrontEnds())
	})
}

// TestReadyAtShippedIntervals: at the shipped 500 ms interval a
// single-process system is serviceable in milliseconds — every worker
// registered, the front end holding the worker table — not after the two
// beacon intervals a rebuild of soft state once took. And ready means
// repairable: a worker killed the instant WaitReady returns has an owner
// the manager can command, and comes back by name with no failed command.
func TestReadyAtShippedIntervals(t *testing.T) {
	t.Parallel()
	s := startTranSend(t, func(c *Config) { c.BeaconInterval = 0 })
	if !s.WaitReady(10 * time.Second) {
		t.Fatal("never ready")
	}
	victim := s.Workers()[0]
	if err := s.Kill(victim); err != nil {
		t.Fatal(err)
	}
	ms := s.Registry().Snapshot()["core.ready_ms"]
	t.Logf("ready in %v ms", ms)
	if ms <= 0 || ms >= 250 {
		t.Errorf("core.ready_ms %v, want (0, 250) at a %v interval", ms, s.Net.Beacon())
	}
	waitFor(t, "the victim restarted by name", func() bool {
		st := s.Manager().Stats()
		return st.WorkerRestarts == 1 && st.Workers == 3 && slices.Contains(s.Workers(), victim)
	})
	if st := s.Manager().Stats(); st.DelegateFails != 0 {
		t.Fatalf("manager %+v: a command failed", st)
	}
}

// TestPairReadyAtShippedIntervals: the two-process split is ready in
// milliseconds on both sides at the shipped interval too — the worker
// registrations, the beacon greeting the front end, and the epoch every
// supervisor fences with all cross the bridge at once.
func TestPairReadyAtShippedIntervals(t *testing.T) {
	t.Parallel()
	sysA, sysB := startPair(t, func(a, b *Config) { a.BeaconInterval, b.BeaconInterval = 0, 0 })
	for name, sys := range map[string]*System{"A": sysA, "B": sysB} {
		ms := sys.Registry().Snapshot()["core.ready_ms"]
		t.Logf("process %s ready in %v ms", name, ms)
		if ms <= 0 || ms >= 250 {
			t.Errorf("process %s: core.ready_ms %v, want (0, 250)", name, ms)
		}
	}
}

// TestCrashedWorkerBackWithinTTL: at the shipped interval a crashed
// worker is registered again within WorkerTTL + 250 ms of the kill —
// detection is the whole cost, because its restart registers as it
// starts instead of waiting for a beacon — and the front end lists it
// again within 100 ms of that. The kill lands late in the victim's report
// period, so the bound holds whatever the phase of the reconcile tick.
func TestCrashedWorkerBackWithinTTL(t *testing.T) {
	t.Parallel()
	s := startTranSend(t, func(c *Config) { c.BeaconInterval = 0 })
	if !s.WaitReady(10 * time.Second) {
		t.Fatal("never ready")
	}
	victim := s.Workers()[0]
	class := victim[:strings.LastIndex(victim, ".")]
	lastReport := func() time.Time {
		for _, c := range s.Mon.Snapshot() {
			if c.Component == victim {
				return c.LastSeen
			}
		}
		return time.Time{}
	}
	seen := lastReport()
	waitFor(t, "a report from the victim", func() bool { return lastReport() != seen })
	time.Sleep(400*time.Millisecond - time.Since(lastReport()))

	regs := s.Manager().Stats().Registrations
	kill := time.Now()
	if err := s.Kill(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "re-registration", func() bool { return s.Manager().Stats().Registrations > regs })
	back := time.Since(kill)
	t.Logf("re-registered %v after the kill", back)
	if ttl := softstate.WorkerTTL.Of(s.Net.Beacon()); back > ttl+250*time.Millisecond {
		t.Errorf("re-registered %v after the kill, want within WorkerTTL %v + 250ms", back, ttl)
	}
	waitFor(t, "the front end lists it", func() bool {
		for _, w := range s.FrontEnds()[0].ManagerStub().Workers(class) {
			if w.ID == victim {
				return true
			}
		}
		return false
	})
	if lag := time.Since(kill) - back; lag > 100*time.Millisecond {
		t.Errorf("the front end listed the worker %v after its re-registration, want within 100ms", lag)
	}
}

func TestEndToEndDistillation(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)
	ctx := context.Background()

	// A large JPEG gets distilled.
	url := trace.ObjectURL(42, media.MIMESJPG)
	var resp = mustRequest(t, s, url, "user1")
	if resp.Source != "distilled" {
		t.Fatalf("source = %s, want distilled", resp.Source)
	}
	orig, err := s.cfg.Origin.Fetch(ctx, url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Blob.Size() >= orig.Size() {
		t.Fatalf("distilled %d >= original %d", resp.Blob.Size(), orig.Size())
	}

	// Same request again: served from the cache as a distilled hit.
	resp2 := mustRequest(t, s, url, "user1")
	if resp2.Source != "cache-distilled" {
		t.Fatalf("second source = %s, want cache-distilled", resp2.Source)
	}
	if string(resp2.Blob.Data) != string(resp.Blob.Data) {
		t.Fatal("cache returned different bytes")
	}
}

func mustRequest(t *testing.T, s *System, url, user string) (resp frontendResponse) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r, err := s.Request(ctx, url, user)
	if err != nil {
		t.Fatalf("request %s: %v", url, err)
	}
	return frontendResponse{Blob: r.Blob, Source: r.Source}
}

// frontendResponse avoids importing frontend in every assertion.
type frontendResponse struct {
	Blob   tacc.Blob
	Source string
}

func TestHTMLGetsMungedWithProfile(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)
	if err := s.SetProfile("alice", "quality", "10"); err != nil {
		t.Fatal(err)
	}
	url := trace.ObjectURL(7, media.MIMEHTML)
	resp := mustRequest(t, s, url, "alice")
	if resp.Source != "distilled" {
		t.Fatalf("source = %s", resp.Source)
	}
	body := string(resp.Blob.Data)
	if !strings.Contains(body, "transend-toolbar") {
		t.Fatal("toolbar missing from munged page")
	}
	if !strings.Contains(body, "quality=10") {
		t.Fatal("profile quality not propagated into munged links")
	}
}

func TestSmallContentPassesThrough(t *testing.T) {
	s := startTranSend(t, func(cfg *Config) {
		cfg.MinDistillSize = 1 << 20 // everything is "small"
	})
	waitForWorkers(t, s, 3)
	url := trace.ObjectURL(42, media.MIMESJPG)
	resp := mustRequest(t, s, url, "u")
	if resp.Source != "original" {
		t.Fatalf("source = %s, want original (1KB threshold)", resp.Source)
	}
}

func TestWorkerCrashFallsBackThenRecovers(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)

	// Find and crash the SJPG distiller.
	var victim string
	for _, id := range s.Workers() {
		if strings.HasPrefix(id, distiller.ClassSJPG) {
			victim = id
		}
	}
	if victim == "" {
		t.Fatal("no sjpg worker found")
	}
	if err := s.Kill(victim); err != nil {
		t.Fatal(err)
	}

	// Immediately after the crash the dispatch may fail over or
	// fall back to the original — but the user always gets bytes.
	url := trace.ObjectURL(1001, media.MIMESJPG)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := s.Request(ctx, url, "u")
	if err != nil {
		t.Fatalf("request during failure: %v", err)
	}
	if resp.Blob.Size() == 0 {
		t.Fatal("empty response during failure")
	}

	// The manager has the crashed worker restarted by name (TTL + roster).
	waitFor(t, "worker restarted", func() bool {
		for _, fe := range s.FrontEnds() {
			if len(fe.ManagerStub().Workers(distiller.ClassSJPG)) >= 1 {
				return true
			}
		}
		return false
	})
	// And distillation works again.
	waitFor(t, "distillation recovers", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r, err := s.Request(ctx, trace.ObjectURL(2002, media.MIMESJPG), "u")
		return err == nil && r.Source == "distilled"
	})
	// /metrics holds one worker.<id>.* family per live worker: the
	// restarted slot's under its old id, and none that outlives its
	// worker — an extra that is reaped takes its family with it.
	families := func() map[string]bool {
		out := make(map[string]bool)
		for key := range s.Registry().Snapshot() {
			if id, ok := strings.CutPrefix(key, "worker."); ok {
				out[id[:strings.LastIndex(id, ".")]] = true
			}
		}
		return out
	}
	waitFor(t, "one collector family per live worker", func() bool {
		got := families()
		return len(got) == 3 && got[victim] && len(s.Workers()) == 3
	})
	extra := spawnExtra(t, s, distiller.ClassSJPG)
	waitFor(t, "the extra publishes", func() bool { return families()[extra] })
	if err := s.ReapWorker(extra); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the reaped extra's family is dropped", func() bool {
		got := families()
		return len(got) == 3 && !got[extra]
	})
	if err := s.ReapWorker(victim); err == nil {
		t.Fatal("reaped a configured slot")
	}
}

func TestManagerCrashIsMaskedAndRepaired(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)

	epoch0 := s.Manager()
	if err := s.KillManager(); err != nil {
		t.Fatal(err)
	}

	// Requests keep working off cached beacon state while the
	// manager is dead (§3.1.8 stale load-balancing data).
	resp := mustRequest(t, s, trace.ObjectURL(55, media.MIMESJPG), "u")
	if resp.Blob.Size() == 0 {
		t.Fatal("no answer while manager down")
	}

	// The front end's watchdog restarts the manager; workers
	// re-register with the new epoch.
	waitFor(t, "manager restarted", func() bool {
		m := s.Manager()
		return m != epoch0 && m.Stats().Workers >= 3
	})
}

func TestFrontEndCrashIsRestartedByManager(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)
	if err := s.Kill("fe0"); err != nil {
		t.Fatal(err)
	}
	// The manager's FE TTL expires and it respawns fe0.
	waitFor(t, "front end restarted", func() bool {
		fes := s.FrontEnds()
		return len(fes) == 1 && fes[0].Running()
	})
	resp := mustRequest(t, s, trace.ObjectURL(9, media.MIMESJPG), "u")
	if resp.Blob.Size() == 0 {
		t.Fatal("restarted front end served nothing")
	}
}

func TestAutoscaleUnderLoadAndOverflow(t *testing.T) {
	s := startTranSend(t, func(cfg *Config) {
		cfg.DedicatedNodes = 2 // tiny dedicated pool
		cfg.OverflowNodes = 2
		cfg.ProcsPerNode = 4
		cfg.Workers = map[string]int{distiller.ClassSJPG: 1}
		cfg.Policy = manager.Policy{
			SpawnThreshold: 2,
			Damping:        5 * tick,
			ReapThreshold:  -1, // no reaping during the ramp
		}
	})
	waitForWorkers(t, s, 1)

	// Hammer with concurrent requests for distinct URLs (no cache
	// hits) so distiller queues grow.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for g := 0; g < 32; g++ {
		g := g
		go func() {
			for i := 0; ctx.Err() == nil; i++ {
				url := trace.ObjectURL(10000+g*10000+i, media.MIMESJPG)
				rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
				s.Request(rctx, url, "u")
				rcancel()
			}
		}()
	}
	waitFor(t, "autoscale spawn", func() bool {
		return s.Manager().Stats().Spawns >= 2
	})
	cancel()
}

func TestMonitorSeesComponentsAndAlertsOnSilence(t *testing.T) {
	s := startTranSend(t, nil)
	waitForWorkers(t, s, 3)
	waitFor(t, "monitor sees components", func() bool {
		snap := s.Mon.Snapshot()
		kinds := map[string]int{}
		for _, c := range snap {
			kinds[c.Kind]++
		}
		return kinds["worker"] >= 3 && kinds["frontend"] >= 1 && kinds["manager"] >= 1
	})
	if !strings.Contains(s.Mon.RenderTable(), "COMPONENT") {
		t.Fatal("render table broken")
	}
	// One metrics list per component: a row in the monitor's table
	// carries exactly the names the component publishes to /metrics,
	// plus its process's two san inbox keys.
	collector := map[string]string{"worker": "worker.", "frontend": "fe.", "manager": ""}
	for _, c := range s.Mon.Snapshot() {
		prefix, ok := collector[c.Kind]
		if !ok {
			continue
		}
		published := s.Registry().Collect(prefix + c.Component)
		if len(published) == 0 || len(published)+2 != len(c.Metrics) {
			t.Fatalf("%s reports %v, publishes %v", c.Component, c.Metrics, published)
		}
		for _, name := range []string{"san.inbox_max", "san.inbox_full"} {
			if _, ok := c.Metrics[name]; !ok {
				t.Fatalf("%s does not report %q: %v", c.Component, name, c.Metrics)
			}
		}
		for name := range published {
			if _, ok := c.Metrics[name]; !ok {
				t.Fatalf("%s publishes %q but does not report it: %v", c.Component, name, c.Metrics)
			}
		}
	}

	// Crash a configured worker: the monitor alerts on its silence. The
	// manager has it back under its name a TTL or so after it dies, and
	// the monitor's scan may or may not land in that gap, so the restart
	// is held off (it waits on the component's lifecycle lock) until the
	// alert is in.
	var victim string
	for _, id := range s.Workers() {
		if strings.HasPrefix(id, distiller.ClassHTML) {
			victim = id
		}
	}
	v, err := s.lookup(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Kill(victim); err != nil {
		t.Fatal(err)
	}
	v.e.life.Lock()
	waitFor(t, "silence alert", func() bool {
		for _, a := range s.Mon.Alerts() {
			if a.Component == victim {
				return true
			}
		}
		return false
	})
	v.e.life.Unlock()
	waitFor(t, "the dead slot back under its name", func() bool {
		return slices.Contains(s.Workers(), victim) && s.Manager().Stats().Workers == 3
	})
}

// TestHotUpgradeDisableEnableWorker: a worker's hot upgrade is its
// restart (§2.1). The stop is the disable: the stub says it is down, so
// the manager forgets it at once, and the start is the enable, the same
// id heard again — a second registration. The upgraded worker class
// distills after it.
func TestHotUpgradeDisableEnableWorker(t *testing.T) {
	s := startTranSend(t, func(cfg *Config) {
		cfg.Workers = map[string]int{distiller.ClassSJPG: 2}
	})
	waitForWorkers(t, s, 2)

	addr := stubAddrOf(t, s, distiller.ClassSJPG)
	regs := s.Manager().Stats().Registrations
	if err := s.Restart(addr.Proc); err != nil {
		t.Fatal(err)
	}
	if got := stubAddrOf(t, s, distiller.ClassSJPG); got != addr {
		t.Fatalf("the restart moved the worker: %v -> %v", addr, got)
	}
	waitFor(t, "the worker forgotten on its stop and heard again", func() bool {
		st := s.Manager().Stats()
		return st.Registrations > regs && st.Workers == 2
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, err := s.Request(ctx, trace.ObjectURL(77, media.MIMESJPG), "u")
	if err != nil || r.Source != "distilled" {
		t.Fatalf("after the upgrade: %+v, %v", r, err)
	}
}

func stubAddrOf(t *testing.T, s *System, class string) (addr sanAddr) {
	t.Helper()
	for _, id := range s.Workers() {
		if strings.HasPrefix(id, class) {
			a, _ := s.Addr(id)
			return sanAddr(a)
		}
	}
	t.Fatalf("no worker of class %s", class)
	return
}

// sanAddr aliases san.Addr to keep the test imports tight.
type sanAddr = struct{ Node, Proc string }

func TestUnknownWorkerClassFailsGracefully(t *testing.T) {
	s := startTranSend(t, func(cfg *Config) {
		cfg.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
			return tacc.Pipeline{{Class: "no-such-class"}}
		}
	})
	waitFor(t, "beacons", func() bool {
		fes := s.FrontEnds()
		return len(fes) == 1 && fes[0].ManagerStub().Stats().BeaconsSeen > 0
	})
	// Dispatch fails (no worker, spawn fails), so the front end
	// falls back to the original: the user still gets bytes.
	resp := mustRequest(t, s, trace.ObjectURL(5, media.MIMESJPG), "u")
	if resp.Source != "fallback-original" {
		t.Fatalf("source = %s, want fallback-original", resp.Source)
	}
}

func TestProfilePersistsAcrossSystemRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := startTranSend(t, func(cfg *Config) { cfg.ProfileDir = dir })
	if err := s1.SetProfile("bob", "scale", "4"); err != nil {
		t.Fatal(err)
	}
	s1.Stop()

	s2 := startTranSend(t, func(cfg *Config) { cfg.ProfileDir = dir })
	if got := s2.Profile.Get("bob")["scale"]; got != "4" {
		t.Fatalf("profile after restart = %q, want 4 (ACID durability)", got)
	}
}

func TestSANPartitionWorkerRestartedOnVisibleSide(t *testing.T) {
	// §2.2.4: "if workers lost because of a SAN partition can be
	// restarted on still-visible nodes, the manager performs the
	// necessary actions."
	s := startTranSend(t, func(cfg *Config) {
		cfg.Workers = map[string]int{distiller.ClassSJPG: 1}
	})
	waitForWorkers(t, s, 1)

	node := stubAddrOf(t, s, distiller.ClassSJPG).Node

	// Cut the worker's node off from the rest of the cluster. Its
	// reports stop arriving; the manager infers the loss by timeout and
	// has the worker restarted, and because the old instance was still
	// running where no beacon reached it, it comes back on another node.
	s.Net.Partition(map[string]int{node: 1})
	waitFor(t, "restart on the visible side", func() bool {
		st := s.Manager().Stats()
		return st.WorkerRestarts >= 1 && st.Workers >= 1 && stubAddrOf(t, s, distiller.ClassSJPG).Node != node
	})
	waitFor(t, "distillation resumes", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r, err := s.Request(ctx, trace.ObjectURL(4040, media.MIMESJPG), "u")
		return err == nil && (r.Source == "distilled" || r.Source == "cache-distilled")
	})

	// Heal: the restart was stop-then-start, so no marooned twin comes
	// back from the far side — one worker was configured, one runs.
	s.Net.Heal()
	time.Sleep(10 * tick) // time for a twin to register
	waitFor(t, "the one configured worker, and only it", func() bool {
		st := s.Manager().Stats()
		return st.Workers == 1 && len(s.Workers()) == 1 && st.Spawns == 0
	})
}

func TestAggregationThroughPlatform(t *testing.T) {
	// Aggregation workers (multiple inputs) ride the same dispatch
	// path as transformations: §2.3's composable building blocks.
	s := startTranSend(t, func(cfg *Config) {
		cfg.Workers = map[string]int{distiller.ClassSearch: 1}
	})
	waitForWorkers(t, s, 1)
	fe := s.FrontEnds()[0]
	waitFor(t, "aggregator visible", func() bool {
		return len(fe.ManagerStub().Workers(distiller.ClassSearch)) == 1
	})
	task := &tacc.Task{
		Key: "meta:q",
		Inputs: []tacc.Blob{
			{MIME: media.MIMEHTML, Data: []byte(`<li><a href="http://a/1">one</a></li>`)},
			{MIME: media.MIMEHTML, Data: []byte(`<li><a href="http://b/2">two</a></li>`)},
		},
		Params: map[string]string{"query": "q"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := fe.ManagerStub().Dispatch(ctx, distiller.ClassSearch, task)
	if err != nil {
		t.Fatal(err)
	}
	if out.Meta["results"] != "2" {
		t.Fatalf("collated %s results, want 2", out.Meta["results"])
	}
}
