package chaos

// End-to-end self-healing scenarios (paper §4.3): each test boots a
// complete SNS instance through the harness, injects one fault class,
// and asserts the system restores full capacity with no recovery
// protocol — the soft-state claim, exercised on the real stack rather
// than per-package unit tests.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/manager"
)

const seed = 1

// convergeWithin is N of the population-convergence invariant, in
// beacon periods: generous next to the slowest recovery chain (manager
// silence, respawn, one TTL of roster grace, restart) so that only a
// population that never converges trips it.
const convergeWithin = 300

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func newHarness(t *testing.T, cfg Config) *Harness {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Every scenario runs over the wire codec, so every message a
		// fault path sends must have a body layout.
		if st := h.Sys.Net.Stats(); st.WireEncodes == 0 || st.WireErrors != 0 {
			t.Errorf("codec under faults: %d encodes, %d messages failed serialization", st.WireEncodes, st.WireErrors)
		}
		// Whatever a scenario killed, the population is back to what
		// was configured — exactly — within convergeWithin beacon
		// periods of its last fault.
		if err := h.AwaitPopulation(convergeWithin * h.cfg.BeaconInterval); err != nil {
			t.Errorf("%v\n%s", err, h.Timeline())
		}
		h.Stop()
	})
	return h
}

// TestScenarioWorkerCrashRespawn: kill a worker with requests in
// flight — every request must still complete (timeout + failover
// drain the orphaned queue onto the survivor), and the manager must
// infer the loss and have the worker restarted under its own name.
func TestScenarioWorkerCrashRespawn(t *testing.T) {
	h := newHarness(t, Config{Seed: seed})
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, 24)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(ctx, 8*time.Second)
			defer cancel()
			_, errs[i] = h.Sys.Request(rctx, fmt.Sprintf("http://chaos.example/w%d.bin", i), "u")
		}(i)
	}
	// Crash one of the two workers while those requests are moving.
	killAt := time.Now()
	h.Execute(ctx, Schedule{Seed: seed, Events: []Event{{Kind: KillWorker, Slot: 0}}})
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed across worker crash: %v", i, err)
		}
	}

	// The manager has the crashed worker restarted (timeout inference:
	// no deregistration was sent).
	waitFor(t, "worker restart", func() bool {
		return h.Sys.Manager().Stats().WorkerRestarts == 1
	})
	h.Note("worker-respawn", time.Since(killAt).String())
	if !h.AwaitSteady(10 * time.Second) {
		t.Fatal("system did not return to full worker strength")
	}

	// The sole worker of a class, on a fresh 3-worker system: its
	// restart is booked from the moment it is issued, so nothing starts
	// a second one in the ticks before it registers. Ten beacon periods
	// on, exactly one restart, no spawn, exactly the configured three
	// workers under their boot-time ids.
	h = newHarness(t, Config{Seed: seed, Workers: map[string]int{EchoClass: 2, "solo": 1}})
	ids := h.Sys.Workers()
	h.Execute(ctx, Schedule{Seed: seed, Events: []Event{{Kind: KillWorker, Slot: 2}}}) // sorted ids: solo.N is last
	waitFor(t, "sole worker restarted", func() bool {
		return h.Sys.Manager().Stats().WorkerRestarts >= 1
	})
	time.Sleep(10 * h.cfg.BeaconInterval)
	if st := h.Sys.Manager().Stats(); st.WorkerRestarts != 1 || st.Spawns != 0 {
		t.Fatalf("%+v for one crashed worker, want exactly one restart and no spawn", st)
	}
	if got := h.Sys.Workers(); !slices.Equal(got, ids) {
		t.Fatalf("workers %v, want the configured %v", got, ids)
	}
}

// TestScenarioManagerCrashReregister: kill the manager — requests
// keep flowing off cached beacons, a front-end watchdog restarts it,
// and every worker re-registers with zero lost state (§3.1.3).
func TestScenarioManagerCrashReregister(t *testing.T) {
	h := newHarness(t, Config{Seed: seed})
	ctx := context.Background()

	old := h.Sys.Manager()
	want := old.Stats().Workers
	if want == 0 {
		t.Fatal("no workers registered before the fault")
	}
	killAt := time.Now()
	h.Execute(ctx, Schedule{Seed: seed, Events: []Event{{Kind: KillManager}}})

	// Availability during the outage: dispatch runs off the stub's
	// cached load-balancing state ("stale data tolerated", §3.1.8).
	for i := 0; i < 5; i++ {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_, err := h.Sys.Request(rctx, fmt.Sprintf("http://chaos.example/m%d.bin", i), "u")
		cancel()
		if err != nil {
			t.Fatalf("request %d failed during manager outage: %v", i, err)
		}
	}

	waitFor(t, "manager restart + full re-registration", func() bool {
		m := h.Sys.Manager()
		return m != old && m.Stats().Workers >= want
	})
	h.Note("manager-recovery", time.Since(killAt).String())
	if regs := h.Sys.Manager().Stats().Registrations; regs < uint64(want) {
		t.Fatalf("only %d re-registrations for %d workers", regs, want)
	}
}

// TestScenarioFrontEndCrashRestart: kill a front end — its process
// peer (the manager) restarts it and requests succeed again.
func TestScenarioFrontEndCrashRestart(t *testing.T) {
	h := newHarness(t, Config{Seed: seed})
	ctx := context.Background()

	killAt := time.Now()
	h.Execute(ctx, Schedule{Seed: seed, Events: []Event{{Kind: KillFrontEnd, Slot: 0}}})
	waitFor(t, "front end restarted by process peer", func() bool {
		fes := h.Sys.FrontEnds()
		return len(fes) == 1 && fes[0].Running()
	})
	h.Note("frontend-restart", time.Since(killAt).String())

	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := h.Sys.Request(rctx, "http://chaos.example/fe.bin", "u"); err != nil {
		t.Fatalf("request after front-end restart: %v", err)
	}
	if h.Sys.Manager().Stats().FERestarts == 0 {
		t.Fatal("manager did not record the process-peer restart")
	}
}

// TestScenarioKilledBeforeAnyManagerHeard: kill a component and then
// the manager inside one beacon interval, so the only manager that ever
// heard the component dies before its TTL of silence is up. The
// respawned manager's soft state never knew the victim — what it knows
// is the supervisor's roster, which names it; a TTL on with nothing
// heard at that address, it restarts it (§3.1.3: no recovery protocol,
// and nothing lost for want of one).
func TestScenarioKilledBeforeAnyManagerHeard(t *testing.T) {
	for _, c := range []struct {
		kill     ActionKind
		kind     core.Kind
		restarts func(st manager.Stats) uint64
	}{
		{KillFrontEnd, core.KindFrontEnd, func(st manager.Stats) uint64 { return st.FERestarts }},
		{KillCache, core.KindCache, func(st manager.Stats) uint64 { return st.CacheRestarts }},
	} {
		t.Run(string(c.kill), func(t *testing.T) {
			// The second front end is the manager's process peer: it
			// outlives fe0 and respawns the manager.
			h := newHarness(t, Config{Seed: seed, FrontEnds: 2, CacheSuperviseTTL: 80 * time.Millisecond})
			old := h.Sys.Manager()
			victim := h.pick(c.kind, 0)
			h.Execute(context.Background(), Schedule{Seed: seed, Events: []Event{{Kind: c.kill, Slot: 0}, {Kind: KillManager}}})
			if n := c.restarts(old.Stats()); n != 0 {
				t.Fatalf("the dying manager already restarted %s (%d): the kill pair must land inside its TTL", victim, n)
			}
			waitFor(t, victim+" restarted by a manager that never heard it", func() bool {
				m := h.Sys.Manager()
				return m != old && c.restarts(m.Stats()) == 1 && slices.Contains(h.Sys.Names(c.kind), victim)
			})
		})
	}
}

// TestScenarioCachePartitionFallback: partition the cache group away
// from the rest of the SAN — front ends must fall back to origin
// fetches (the cache is BASE, never a correctness dependency) and
// re-absorb the cache after heal.
func TestScenarioCachePartitionFallback(t *testing.T) {
	h := newHarness(t, Config{Seed: seed})
	ctx := context.Background()
	url := "http://chaos.example/hot.sgif"

	req := func() string {
		t.Helper()
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		resp, err := h.Sys.Request(rctx, url, "u")
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		return resp.Source
	}

	req() // populate the cache
	waitFor(t, "cache hit", func() bool {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		resp, err := h.Sys.Request(rctx, url, "u")
		cancel()
		return err == nil && resp.Source == "cache-distilled"
	})

	h.Sys.Net.Partition(h.CachePartitionGroups())
	if src := req(); strings.HasPrefix(src, "cache-") {
		t.Fatalf("served %q from an unreachable cache", src)
	}

	h.Sys.Net.Heal()
	waitFor(t, "cache re-absorbed after heal", func() bool {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		resp, err := h.Sys.Request(rctx, url, "u")
		cancel()
		return err == nil && resp.Source == "cache-distilled"
	})
}

// TestScenarioCacheCrashLoop (ROADMAP cache-node crash-loop): kill a
// cache service repeatedly. Every cycle the manager's cache
// process-peer duty must notice the heartbeat silence and respawn the
// partition; requests issued during the outage fall back to origin
// fetches (BASE — never an error), and after each revival the cache
// is re-absorbed (the same URL serves from cache again).
func TestScenarioCacheCrashLoop(t *testing.T) {
	h := newHarness(t, Config{Seed: seed, CacheSuperviseTTL: 80 * time.Millisecond})
	ctx := context.Background()
	url := "http://chaos.example/crashloop.sgif"

	req := func() string {
		t.Helper()
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		resp, err := h.Sys.Request(rctx, url, "u")
		if err != nil {
			t.Fatalf("request failed during cache outage: %v", err)
		}
		return resp.Source
	}
	waitHit := func(phase string) {
		waitFor(t, "cache hit "+phase, func() bool {
			rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			resp, err := h.Sys.Request(rctx, url, "u")
			return err == nil && resp.Source == "cache-distilled"
		})
	}

	req() // distill once and populate the cache
	waitHit("initially")

	const cycles = 3
	for cycle := 0; cycle < cycles; cycle++ {
		restartsBefore := h.Sys.Manager().Stats().CacheRestarts
		h.Execute(ctx, Schedule{Seed: seed, Events: []Event{
			{Kind: KillCache, Slot: 0},
			{Kind: KillCache, Slot: 1},
		}})
		// Fallback: with every partition dead, requests still succeed
		// (served from origin + distillation, not from the cache).
		if src := req(); strings.HasPrefix(src, "cache-") {
			t.Fatalf("cycle %d: served %q from a dead cache", cycle, src)
		}
		// Reabsorption: the manager restarts the partitions, and the
		// distilled object lands back in cache on the next request.
		waitFor(t, fmt.Sprintf("cache respawn (cycle %d)", cycle), func() bool {
			return h.Sys.Manager().Stats().CacheRestarts >= restartsBefore+2
		})
		waitHit(fmt.Sprintf("after cycle %d", cycle))
	}
	if got := h.Sys.Manager().Stats().CacheRestarts; got < 2*cycles {
		t.Fatalf("manager recorded %d cache restarts over %d cycles", got, cycles)
	}
}

// TestScenarioWorkerHangDrains: a hung worker (gray failure — alive
// on the SAN, completing nothing) must not fail requests: dispatch
// timeouts fail over to the survivor, and the queue drains once the
// hang lifts.
func TestScenarioWorkerHangDrains(t *testing.T) {
	h := newHarness(t, Config{Seed: seed, CallTimeout: 100 * time.Millisecond})
	ctx := context.Background()

	victim := h.pick(core.KindWorker, 0)
	ws := h.Sys.WorkerStub(victim)
	if ws == nil {
		t.Fatalf("no stub for %s", victim)
	}
	h.Execute(ctx, Schedule{Seed: seed, Events: []Event{
		{Kind: HangWorker, Slot: 0, Dur: 400 * time.Millisecond},
	}})

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(ctx, 8*time.Second)
			defer cancel()
			_, errs[i] = h.Sys.Request(rctx, fmt.Sprintf("http://chaos.example/h%d.bin", i), "u")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed during worker hang: %v", i, err)
		}
	}
	waitFor(t, "hung worker's queue to drain after resume", func() bool {
		return ws.QueueLen() == 0
	})
}

// TestScenarioMonitorSeesComponentDeath drives the monitor's
// silent-component alert path from an actual process death rather
// than a synthetic silence (the gap the unit tests leave). The victim
// is a configured worker, which the manager has back under its own name
// a TTL or so after it dies — too soon for the monitor's scan to be sure
// of landing in the gap. So its only watcher dies with it: nobody
// restarts the worker until the front ends have respawned the manager
// and the new one has given the roster row a TTL to speak up, and the
// alert is in well before that.
func TestScenarioMonitorSeesComponentDeath(t *testing.T) {
	h := newHarness(t, Config{Seed: seed})
	ctx := context.Background()

	victim := h.pick(core.KindWorker, 0)
	// The monitor must have seen the victim alive first.
	waitFor(t, "monitor sees "+victim, func() bool {
		for _, st := range h.Sys.Mon.Snapshot() {
			if st.Component == victim {
				return true
			}
		}
		return false
	})

	h.Execute(ctx, Schedule{Seed: seed, Events: []Event{{Kind: KillManager}, {Kind: KillWorker, Slot: 0}}})
	waitFor(t, "silence alert for dead component", func() bool {
		for _, a := range h.Sys.Mon.Alerts() {
			if a.Component == victim && strings.Contains(a.Message, "no reports") {
				return true
			}
		}
		return false
	})
	// The death shows up on the unified timeline too: the injected
	// fault, the process exit, and the monitor alert, in order.
	tl := h.Timeline()
	if len(tl.Filter("fault")) == 0 || len(tl.Filter("exit")) == 0 || len(tl.Filter("alert")) == 0 {
		t.Fatalf("timeline missing fault/exit/alert entries:\n%s", tl)
	}
}

// TestScenarioHotUpgradeDisableEnable exercises the monitor's
// disable/re-enable-after-upgrade path against a live worker: the
// disabled worker deregisters (no respawn — the departure is
// voluntary), the system keeps serving, and enabling brings it back.
func TestScenarioHotUpgradeDisableEnable(t *testing.T) {
	h := newHarness(t, Config{Seed: seed})
	ctx := context.Background()

	victim := h.pick(core.KindWorker, 0)
	ws := h.Sys.WorkerStub(victim)
	if ws == nil {
		t.Fatalf("no stub for %s", victim)
	}
	addr := ws.Addr()

	if err := h.Sys.Mon.Disable(addr); err != nil {
		t.Fatal(err)
	}
	if d := h.Sys.Mon.Disabled(); len(d) != 1 || d[0] != addr {
		t.Fatalf("Disabled() = %v, want [%v]", d, addr)
	}
	waitFor(t, "worker deregistered for upgrade", func() bool {
		return h.Sys.Manager().Stats().Workers == 1
	})

	// Still serving through the remaining worker.
	for i := 0; i < 5; i++ {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_, err := h.Sys.Request(rctx, fmt.Sprintf("http://chaos.example/u%d.bin", i), "u")
		cancel()
		if err != nil {
			t.Fatalf("request %d failed during hot upgrade: %v", i, err)
		}
	}
	// A voluntary departure parks the row: silent well past WorkerTTL,
	// listed in the roster, and neither restarted nor replaced.
	time.Sleep(10 * h.cfg.BeaconInterval)
	if st := h.Sys.Manager().Stats(); st.WorkerRestarts != 0 || st.Spawns != 0 || h.Sys.WorkerStub(victim) != ws {
		t.Fatalf("a disabled worker was restarted or replaced: %+v", st)
	}

	if err := h.Sys.Mon.Enable(addr); err != nil {
		t.Fatal(err)
	}
	if d := h.Sys.Mon.Disabled(); len(d) != 0 {
		t.Fatalf("Disabled() = %v after enable", d)
	}
	waitFor(t, "worker re-registered after upgrade", func() bool {
		return h.Sys.Manager().Stats().Workers == 2
	})
}

// TestSoakKillAnything is the §4.3 closing experiment: kill something
// every T seconds under background load, then verify the system
// returns to steady-state capacity within 10% of the pre-fault
// baseline. Skipped with -short.
func TestSoakKillAnything(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	h := newHarness(t, Config{Seed: 7, FrontEnds: 2, DedicatedNodes: 12})
	ctx := context.Background()

	baseline := h.BaselineCapacity(ctx, 40)
	if baseline < 0.95 {
		t.Fatalf("pre-fault capacity only %.2f", baseline)
	}

	sched := RandomSoak(7, SoakOptions{Kills: 5, Every: 400 * time.Millisecond})
	h.StartLoad(60, 400, 3*time.Second)
	injected := h.Execute(ctx, sched)
	if injected < 3 {
		t.Fatalf("only %d kill cycles injected, want >= 3", injected)
	}
	load := h.StopLoad()

	if !h.AwaitSteady(15 * time.Second) {
		t.Fatalf("system did not return to steady state after the soak:\n%s", h.Timeline())
	}
	after, ok := h.RecoveredWithin(ctx, 40, 0.10)
	if !ok {
		t.Fatalf("post-soak capacity %.2f vs baseline %.2f (want within 10%%):\n%s",
			after, baseline, h.Timeline())
	}
	if load.Issued == 0 {
		t.Fatal("load generator issued nothing")
	}
	t.Logf("soak: %d faults, load %+v (success %.2f), capacity %.2f -> %.2f",
		injected, load, load.SuccessRate(), baseline, after)
}

// TestScenarioPrimaryManagerKilledMidRespawn (ROADMAP): with three
// manager replicas, crash a worker and then kill the primary manager
// BEFORE the worker's TTL fires — the respawn duty is in flight with
// nobody having acted on it. A standby must win the election within
// about one beacon interval past the timeout, inherit the duty from
// its mirrored soft state, and execute it: zero lost restart duties,
// no recovery protocol. The fault timeline must be identical across
// two executions of the same schedule.
func TestScenarioPrimaryManagerKilledMidRespawn(t *testing.T) {
	// The primary dies 30 ms in: after the worker crash (0 ms) but
	// before its 50 ms TTL (5 beacons) can fire on the old regime.
	sched := Schedule{Seed: seed, Events: []Event{
		{Kind: KillWorker, Slot: 0},
		{At: 30 * time.Millisecond, Kind: KillManager},
	}}

	run := func(t *testing.T) []string {
		h := newHarness(t, Config{Seed: seed, Managers: 3})
		ctx := context.Background()

		oldPrimary := h.Sys.Manager()
		oldEpoch := oldPrimary.Epoch()
		if reps := h.Sys.ManagerReplicas(); len(reps) != 3 {
			t.Fatalf("%d manager replicas, want 3", len(reps))
		}
		killAt := time.Now()
		h.Execute(ctx, sched)

		// A standby takes over: new primary instance, higher epoch.
		waitFor(t, "standby takeover", func() bool {
			m := h.Sys.Manager()
			return m != nil && m != oldPrimary && m.IsPrimary() && m.Epoch() > oldEpoch
		})
		elected := time.Since(killAt) - 30*time.Millisecond
		h.Note("manager-failover", elected.String())
		newPrimary := h.Sys.Manager()
		if st := newPrimary.Stats(); st.Takeovers != 1 {
			t.Fatalf("new primary stats %+v, want exactly one takeover", st)
		}

		// Requests flow throughout: dispatch runs off cached beacons
		// during the election gap (§3.1.8 stale-data tolerance).
		for i := 0; i < 5; i++ {
			rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			_, err := h.Sys.Request(rctx, fmt.Sprintf("http://chaos.example/fo%d.bin", i), "u")
			cancel()
			if err != nil {
				t.Fatalf("request %d failed across manager failover: %v", i, err)
			}
		}

		// The in-flight restart duty lands on the NEW primary: it
		// expires the dead worker from its mirrored inventory, finds its
		// row in the roster, and issues the restart the old regime never
		// got to.
		waitFor(t, "inherited restart duty", func() bool {
			return newPrimary.Stats().WorkerRestarts >= 1
		})
		if !h.AwaitSteady(10 * time.Second) {
			t.Fatalf("system did not return to full strength under the new primary:\n%s", h.Timeline())
		}
		return h.FaultTimeline()
	}

	first := run(t)
	second := run(t)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("fault timelines diverged across identical runs:\n%v\n%v", first, second)
	}
}

// TestScenarioBothFrontEndsDieInOneFETTLWindow (ROADMAP): kill both
// front ends 10 ms apart — inside a single 60 ms FETTL window, so
// their heartbeat silences overlap and the manager's process-peer
// sweep sees two dead peers at once. Both must be restarted (zero
// lost restart duties) and service must fully recover. Same
// run-twice determinism contract as every scripted schedule.
func TestScenarioBothFrontEndsDieInOneFETTLWindow(t *testing.T) {
	sched := Schedule{Seed: seed, Events: []Event{
		{Kind: KillFrontEnd, Slot: 0},
		{At: 10 * time.Millisecond, Kind: KillFrontEnd, Slot: 1},
	}}

	run := func(t *testing.T) []string {
		h := newHarness(t, Config{Seed: seed, FrontEnds: 2})
		ctx := context.Background()

		killAt := time.Now()
		h.Execute(ctx, sched)

		waitFor(t, "both front ends restarted", func() bool {
			fes := h.Sys.FrontEnds()
			if len(fes) != 2 {
				return false
			}
			for _, fe := range fes {
				if !fe.Running() {
					return false
				}
			}
			return true
		})
		h.Note("frontend-double-restart", time.Since(killAt).String())
		// Counted when the supervisor's ack is in, a moment after the
		// front end it restarted is up.
		waitFor(t, "two front-end restarts on the manager's books", func() bool {
			return h.Sys.Manager().Stats().FERestarts >= 2
		})

		// Full service recovery: restarted front ends re-anchor on
		// beacons and serve.
		if !h.AwaitSteady(10 * time.Second) {
			t.Fatalf("front ends did not return to steady state:\n%s", h.Timeline())
		}
		for i := 0; i < 5; i++ {
			rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			_, err := h.Sys.Request(rctx, fmt.Sprintf("http://chaos.example/fe2x%d.bin", i), "u")
			cancel()
			if err != nil {
				t.Fatalf("request %d failed after double front-end restart: %v", i, err)
			}
		}
		return h.FaultTimeline()
	}

	first := run(t)
	second := run(t)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("fault timelines diverged across identical runs:\n%v\n%v", first, second)
	}
}
