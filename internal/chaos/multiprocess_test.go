package chaos

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/manager"
	"repro/internal/tacc"
	"repro/internal/transport"
)

// startBridgedPair boots a two-OS-process-shaped cluster inside the
// test binary: process B hosts the manager, workers, and caches;
// process A hosts the front ends and monitor. Loopback TCP is all
// they share — the same split cmd/node runs.
func startBridgedPair(t *testing.T, seedA, seedB int64) (sysA, sysB *core.System) {
	t.Helper()
	reg := tacc.NewRegistry()
	reg.Register(EchoClass, func() tacc.Worker {
		return tacc.WorkerFunc{Name: EchoClass, Fn: func(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
			return task.Input, nil
		}}
	})
	rules := func(url, mime string, profile map[string]string) tacc.Pipeline {
		return tacc.Pipeline{{Class: EchoClass}}
	}
	workers := map[string]int{EchoClass: 2}
	policy := manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1}
	const tick = 10 * time.Millisecond

	sysB, err := core.Start(core.Config{
		Seed:           seedB,
		Roles:          core.Roles{Manager: true, Workers: true, Caches: true},
		NodePrefix:     "b-",
		Transport:      core.TransportConfig{Listen: "tcp:127.0.0.1:0"},
		DedicatedNodes: 6,
		CacheParts:     2,
		Workers:        workers,
		Registry:       reg,
		Rules:          rules,
		ProfileDir:     t.TempDir(),
		BeaconInterval: tick,
		CallTimeout:    time.Second,
		MinDistillSize: 1,
		Policy:         policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sysB.Stop)

	sysA, err = core.Start(core.Config{
		Seed:           seedA,
		Roles:          core.Roles{FrontEnds: true, Monitor: true},
		NodePrefix:     "a-",
		Transport:      core.TransportConfig{Listen: "tcp:127.0.0.1:0", Join: []string{sysB.Bridge.Advertise()}},
		DedicatedNodes: 4,
		FrontEnds:      1,
		RemoteCaches:   core.CacheAddrs("b-", 2, 6),
		Workers:        workers,
		Registry:       reg,
		Rules:          rules,
		ProfileDir:     t.TempDir(),
		BeaconInterval: tick,
		CallTimeout:    time.Second,
		MinDistillSize: 1,
		Policy:         policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sysA.Stop)

	if !sysA.Bridge.WaitPeers(1, 10*time.Second) {
		t.Fatal("bridges never met")
	}
	if !sysB.WaitReady(15*time.Second) || !sysA.WaitReady(15*time.Second) {
		t.Fatal("bridged pair not ready")
	}
	return sysA, sysB
}

// crossProcessRespawnTimeline runs the scripted cross-process fault
// scenario once and returns its event timeline: two kill cycles of
// process A's front end, each recovered by the manager in process B
// through A's supervisor. Only fe0's lifecycle belongs on the
// timeline; any other process exit in either system is cross-talk and
// recorded so the diff flags it.
func crossProcessRespawnTimeline(t *testing.T) []string {
	t.Helper()
	sysA, sysB := startBridgedPair(t, 1, 2)

	var mu sync.Mutex
	var events []string
	record := func(ev string) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	stopped := make(chan struct{})
	observe := func(side string, sys *core.System) {
		sys.Cluster.OnExit(func(info cluster.ExitInfo) {
			select {
			case <-stopped:
				return // teardown exits are not scenario events
			default:
			}
			if info.Proc == "fe0" {
				record("exit:" + side + "/" + info.Proc)
			} else if info.Proc != "sup" {
				// Anything else dying mid-scenario (spurious restarts,
				// double respawns) must show up in the diff.
				record("stray-exit:" + side + "/" + info.Proc)
			}
		})
	}
	observe("A", sysA)
	observe("B", sysB)

	waitFor(t, "cross-process supervisor hello", func() bool {
		_, ok := sysB.Manager().SupervisorFor("a-node0")
		return ok
	})

	for cycle := 1; cycle <= 2; cycle++ {
		record(fmt.Sprintf("kill:fe0#%d", cycle))
		if err := sysA.Kill("fe0"); err != nil {
			t.Fatal(err)
		}
		waitFor(t, fmt.Sprintf("respawn cycle %d", cycle), func() bool {
			st := sysB.Manager().Stats()
			if int(st.FERestarts) < cycle || int(sysA.Supervisor().Stats().Commands) < cycle {
				return false
			}
			fes := sysA.FrontEnds()
			return len(fes) > 0 && fes[0].Running()
		})
		record(fmt.Sprintf("restored:fe0#%d", cycle))
	}
	close(stopped)

	if st := sysA.Net.Stats(); st.WireErrors != 0 {
		t.Fatalf("process A: WireErrors=%d", st.WireErrors)
	}
	if st := sysB.Net.Stats(); st.WireErrors != 0 {
		t.Fatalf("process B: WireErrors=%d", st.WireErrors)
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]string(nil), events...)
}

// TestCrossProcessSeverBridgeWindow drives the real-TCP partition the
// SeverBridge schedule action maps to: cut every peering for a window,
// verify the split is total (peers drop on both sides) yet bounded —
// the bridges re-meet on their own once the window passes and service
// resumes, with zero wire errors and the batcher's queued bytes never
// exceeding the backpressure bound.
func TestCrossProcessSeverBridgeWindow(t *testing.T) {
	sysA, sysB := startBridgedPair(t, 1, 2)
	ctx := context.Background()

	req := func(i int) error {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		_, err := sysA.Request(rctx, fmt.Sprintf("http://sever.example/s%d.bin", i), "u")
		return err
	}
	if err := req(0); err != nil {
		t.Fatalf("pre-sever request: %v", err)
	}

	const window = 400 * time.Millisecond
	severAt := time.Now()
	sysA.Bridge.SeverPeers(window)
	waitFor(t, "peers severed", func() bool {
		return sysA.Bridge.Stats().Peers == 0 && sysB.Bridge.Stats().Peers == 0
	})

	// The bridges must not re-meet inside the window, and must re-meet
	// on their own after it — SeverPeers heals like PartitionFor does.
	if sysA.Bridge.WaitPeers(1, time.Until(severAt.Add(window-50*time.Millisecond))) {
		t.Fatal("bridges re-met inside the severed window")
	}
	if !sysA.Bridge.WaitPeers(1, 10*time.Second) {
		t.Fatal("bridges never re-met after the severed window")
	}
	waitFor(t, "service resumed after heal", func() bool { return req(1) == nil })

	// Post-heal burst: concurrent cross-process traffic stays inside
	// the batcher byte bound (no unbounded growth behind any write).
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = req(100 + i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("post-heal request %d: %v", i, err)
		}
	}
	for side, sys := range map[string]*core.System{"A": sysA, "B": sysB} {
		if st := sys.Net.Stats(); st.WireErrors != 0 {
			t.Fatalf("process %s: WireErrors=%d", side, st.WireErrors)
		}
		bst := sys.Bridge.Stats()
		if bst.MaxQueued > transport.DefaultMaxBatchBytes {
			t.Fatalf("process %s: batcher staged %d bytes, past the %d bound",
				side, bst.MaxQueued, transport.DefaultMaxBatchBytes)
		}
	}
}

// TestCrossProcessRespawnTimelineDeterministic is the run-twice-and-
// diff contract extended across process boundaries: the scripted
// kill/respawn scenario yields the identical event timeline on two
// fresh bridged pairs built from the same seeds — same kills, same
// exits, same recoveries, and no stray process churn on either side.
func TestCrossProcessRespawnTimelineDeterministic(t *testing.T) {
	first := crossProcessRespawnTimeline(t)
	second := crossProcessRespawnTimeline(t)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cross-process respawn timelines diverged:\nrun 1: %v\nrun 2: %v", first, second)
	}
	want := []string{
		"kill:fe0#1", "exit:A/fe0", "restored:fe0#1",
		"kill:fe0#2", "exit:A/fe0", "restored:fe0#2",
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("timeline = %v, want %v", first, want)
	}
}

// TestCrossProcessKilledBeforeAnyManagerHeard is bug (c) across the
// process boundary: process A's front end and process B's manager die
// inside one beacon interval. B hosts no front end to respawn its
// manager, so the test stands in for that watchdog; the respawned
// manager has never heard a-/fe0, learns of it from A's supervisor's
// roster, and a TTL of silence later restarts it through that
// supervisor.
func TestCrossProcessKilledBeforeAnyManagerHeard(t *testing.T) {
	sysA, sysB := startBridgedPair(t, 1, 2)
	old := sysB.Manager()
	waitFor(t, "cross-process supervisor hello", func() bool {
		_, ok := old.SupervisorFor("a-node0")
		return ok
	})
	if err := sysA.Kill("fe0"); err != nil {
		t.Fatal(err)
	}
	if err := sysB.KillManager(); err != nil {
		t.Fatal(err)
	}
	if st := old.Stats(); st.FERestarts != 0 {
		t.Fatalf("the dying manager already restarted fe0: %+v", st)
	}
	if err := sysB.Restart("manager"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a-/fe0 restarted by a manager that never heard it", func() bool {
		m := sysB.Manager()
		st := m.Stats()
		return m != old && st.FERestarts == 1 && sysA.Supervisor().Stats().Commands == 1 && sysA.FrontEnds()[0].Running()
	})
	for side, sys := range map[string]*core.System{"A": sysA, "B": sysB} {
		if st := sys.Net.Stats(); st.WireErrors != 0 {
			t.Fatalf("process %s: WireErrors=%d", side, st.WireErrors)
		}
	}
}
