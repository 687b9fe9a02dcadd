package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distiller"
	"repro/internal/manager"
	"repro/internal/san"
	"repro/internal/tacc"
)

// pairConfigs is startPair's two configurations: process B hosts the
// manager, the workers, and the cache partitions; process A hosts the
// front ends and the monitor, and is told nothing about B's partitions.
func pairConfigs(t *testing.T) (cfgA, cfgB Config) {
	t.Helper()
	reg := tacc.NewRegistry()
	distiller.RegisterAll(reg)
	workers := map[string]int{
		distiller.ClassSGIF: 1,
		distiller.ClassSJPG: 1,
		distiller.ClassHTML: 1,
	}
	policy := manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1}

	cfgB = Config{
		Seed:           2,
		Roles:          Roles{Manager: true, Workers: true, Caches: true},
		NodePrefix:     "b-",
		Transport:      TransportConfig{Listen: "tcp:127.0.0.1:0"},
		DedicatedNodes: 6,
		CacheParts:     2,
		Workers:        workers,
		Registry:       reg,
		Rules:          distiller.TranSendRules(),
		ProfileDir:     t.TempDir(),
		BeaconInterval: tick,
		CallTimeout:    2 * time.Second,
		Policy:         policy,
	}
	cfgA = Config{
		Seed:           1,
		Roles:          Roles{FrontEnds: true, Monitor: true},
		NodePrefix:     "a-",
		DedicatedNodes: 4,
		FrontEnds:      1,
		Workers:        workers, // readiness expectation only (no worker role)
		Registry:       reg,
		Rules:          distiller.TranSendRules(),
		ProfileDir:     t.TempDir(),
		BeaconInterval: tick,
		CallTimeout:    2 * time.Second,
		Policy:         policy,
	}
	return cfgA, cfgB
}

// startSide starts one side of a pair, joined to join's bridge when
// join is not nil, and stops it when the test ends.
func startSide(t *testing.T, cfg Config, join *System) *System {
	t.Helper()
	if join != nil {
		cfg.Transport = TransportConfig{Listen: "tcp:127.0.0.1:0", Join: []string{join.Bridge.Advertise()}}
	}
	sys, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	return sys
}

// startPair boots a two-process cluster in one test binary (see
// pairConfigs). The processes share nothing but loopback TCP — each has
// its own san.Network, cluster, and profile store, spliced by a
// transport.Bridge pair, exactly what two cmd/node processes run.
func startPair(t *testing.T, mutate func(a, b *Config)) (feSide, mgrSide *System) {
	t.Helper()
	cfgA, cfgB := pairConfigs(t)
	if mutate != nil {
		mutate(&cfgA, &cfgB)
	}
	sysB := startSide(t, cfgB, nil)
	sysA := startSide(t, cfgA, sysB)
	if !sysA.Bridge.WaitPeers(1, 10*time.Second) {
		t.Fatal("bridges never met")
	}
	if !sysB.WaitReady(15*time.Second) || !sysA.WaitReady(15*time.Second) {
		t.Fatalf("split cluster not ready: A peers=%v B peers=%v",
			sysA.Bridge.Peers(), sysB.Bridge.Peers())
	}
	return sysA, sysB
}

// TestMultiProcessEndToEnd is the acceptance test for the transport
// tentpole run in-binary: a TranSend cluster split across two
// processes over loopback serves a workload with zero failed requests
// and zero wire errors on either side, with the batching writer
// packing multiple frames per write under the burst.
func TestMultiProcessEndToEnd(t *testing.T) {
	sysA, sysB := startPair(t, nil)

	ctx := context.Background()
	const requests = 120
	for i := 0; i < requests; i++ {
		url := fmt.Sprintf("http://origin%d.example/obj%d.sjpg", i%4, i%24)
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		resp, err := sysA.Request(rctx, url, fmt.Sprintf("user%d", i%8))
		cancel()
		if err != nil {
			t.Fatalf("request %d (%s) failed: %v", i, url, err)
		}
		if len(resp.Blob.Data) == 0 {
			t.Fatalf("request %d returned empty body (source %s)", i, resp.Source)
		}
	}

	// Every hop crossed the wire cleanly.
	for name, sys := range map[string]*System{"A": sysA, "B": sysB} {
		if st := sys.Net.Stats(); st.WireErrors != 0 {
			t.Fatalf("process %s: WireErrors=%d", name, st.WireErrors)
		}
		if st := sys.Bridge.Stats(); st.FrameErrors != 0 {
			t.Fatalf("process %s: FrameErrors=%d", name, st.FrameErrors)
		}
	}

	// Distillation really happened across the boundary (tasks went
	// B-ward, results came back), and the cache on B served A.
	feStats := sysA.FrontEnds()[0].Stats()
	if feStats.Distilled+feStats.CacheDistilled == 0 {
		t.Fatalf("nothing distilled across processes: %+v", feStats)
	}
	if feStats.Fallbacks == requests {
		t.Fatal("every request fell back: workers were never reachable")
	}
	abr, bbr := sysA.Bridge.Stats(), sysB.Bridge.Stats()
	if abr.FramesOut == 0 || bbr.FramesOut == 0 {
		t.Fatalf("traffic did not flow both ways: A out=%d B out=%d", abr.FramesOut, bbr.FramesOut)
	}
	t.Logf("A: %d frames out in %d batches; B: %d frames out in %d batches",
		abr.FramesOut, abr.Batches, bbr.FramesOut, bbr.Batches)
}

// TestMultiProcessSupervisedRestart is the acceptance test for the
// supervisor tentpole: a front end in process A is killed; the manager
// in process B infers the death from heartbeat silence, resolves A's
// supervisor from its hello table, and sends it the restart over the
// SAN — the process-peer duty made location-transparent. Service
// resumes with zero failed requests and zero wire errors on both
// sides.
func TestMultiProcessSupervisedRestart(t *testing.T) {
	sysA, sysB := startPair(t, nil)
	ctx := context.Background()

	// The manager must know A's supervisor before the kill, or the
	// restart would have nowhere to go.
	waitFor(t, "cross-process supervisor hello", func() bool {
		sup, ok := sysB.Manager().SupervisorFor("a-node0")
		return ok && sup.Prefix == "a-"
	})

	if err := sysA.Kill("fe0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "FE restart through A's supervisor", func() bool {
		return sysB.Manager().Stats().FERestarts >= 1 && sysA.Supervisor().Stats().Commands >= 1
	})
	waitFor(t, "front end serving again", func() bool {
		fes := sysA.FrontEnds()
		return len(fes) > 0 && fes[0].Running()
	})

	for i := 0; i < 40; i++ {
		url := fmt.Sprintf("http://origin%d.example/obj%d.sjpg", i%4, i%16)
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		_, err := sysA.Request(rctx, url, "carol")
		cancel()
		if err != nil {
			t.Fatalf("request %d after supervised restart failed: %v", i, err)
		}
	}
	for name, sys := range map[string]*System{"A": sysA, "B": sysB} {
		if st := sys.Net.Stats(); st.WireErrors != 0 {
			t.Fatalf("process %s: WireErrors=%d", name, st.WireErrors)
		}
	}
}

// TestMultiProcessRollingUpgradeWave: the ROADMAP's "upgrade waves"
// scenario made real across OS process boundaries. Both processes
// host SJPG workers (ids prefix-qualified, so the replicated role is
// safe); the monitor in process A rolls a wave of supervisor restarts
// over all of them — one at a time, each via its own process's
// supervisor, each stop draining its worker — while a foreground load
// keeps hitting the SJPG pipeline. Zero failed requests, zero wire
// errors; the slowest request is logged, since a task frame in flight
// across the bridge when its worker closes is the one a drain cannot
// answer, and it would cost its caller a call timeout.
func TestMultiProcessRollingUpgradeWave(t *testing.T) {
	sysA, sysB := startPair(t, func(a, b *Config) {
		a.Roles = Roles{FrontEnds: true, Monitor: true, Workers: true}
	})
	ctx := context.Background()

	// The wave driver needs the full inventory: one SJPG worker per
	// process, plus both supervisors.
	waitFor(t, "beacon inventory spans both processes", func() bool {
		ws := sysA.Mon.WorkersOf(distiller.ClassSJPG)
		if len(ws) != 2 {
			return false
		}
		for _, w := range ws {
			if _, ok := sysA.Mon.SupervisorFor(w.Node); !ok {
				return false
			}
		}
		return true
	})
	before := sysA.Mon.WorkersOf(distiller.ClassSJPG)

	// Foreground load across the wave: every request exercises the
	// SJPG worker pipeline being upgraded under it.
	stopLoad := make(chan struct{})
	done := make(chan struct{})
	var failures atomic.Int64
	var issued atomic.Int64
	var slowest time.Duration // the load goroutine's; read after done
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			url := fmt.Sprintf("http://origin%d.example/wave%d.sjpg", i%4, i%32)
			rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			start := time.Now()
			_, err := sysA.Request(rctx, url, "dave")
			slowest = max(slowest, time.Since(start))
			cancel()
			issued.Add(1)
			if err != nil {
				failures.Add(1)
			}
		}
	}()

	wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
	rep, err := sysA.Mon.UpgradeWave(wctx, distiller.ClassSJPG)
	wcancel()
	close(stopLoad)
	<-done
	if err != nil {
		t.Fatalf("upgrade wave: %v (report %+v)", err, rep)
	}
	if len(rep.Upgraded) != 2 || len(rep.Failed) != 0 {
		t.Fatalf("wave report %+v, want both workers upgraded", rep)
	}
	for i, id := range rep.Upgraded {
		if id != before[i].ID {
			t.Fatalf("wave order %v != inventory %v", rep.Upgraded, before)
		}
	}
	// An upgrade restarts each worker where it stands: same id, same
	// address, so no front end's cached inventory goes stale.
	if after := sysA.Mon.WorkersOf(distiller.ClassSJPG); len(after) != 2 || after[0].Addr != before[0].Addr || after[1].Addr != before[1].Addr {
		t.Fatalf("the wave moved a worker: %v -> %v", before, after)
	}
	if issued.Load() == 0 {
		t.Fatal("load generator issued nothing")
	}
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d requests failed during the rolling upgrade", f, issued.Load())
	}
	for name, sys := range map[string]*System{"A": sysA, "B": sysB} {
		if st := sys.Net.Stats(); st.WireErrors != 0 {
			t.Fatalf("process %s: WireErrors=%d", name, st.WireErrors)
		}
	}
	t.Logf("wave upgraded %v under %d requests, 0 failures, slowest %v", rep.Upgraded, issued.Load(), slowest)
}

// TestMultiProcessCacheHit: an object distilled once is served from
// the remote cache partition on the second request — the cross-
// process cache protocol (Call/Respond over the bridge) works end to
// end.
func TestMultiProcessCacheHit(t *testing.T) {
	sysA, _ := startPair(t, nil)
	ctx := context.Background()

	const url = "http://origin1.example/obj7.sjpg"
	if _, err := sysA.Request(ctx, url, "alice"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cache-distilled hit", func() bool {
		resp, err := sysA.Request(ctx, url, "alice")
		return err == nil && resp.Source == "cache-distilled"
	})
}

// TestMultiProcessCachesHeard: B hosts three cache partitions and A is
// told nothing about them. A's front end holds all three in its ring,
// heard from their announcements, and its probes reach every one: each
// partition has been asked for keys, and answers A's stats Call at the
// address it announced.
func TestMultiProcessCachesHeard(t *testing.T) {
	sysA, sysB := startPair(t, func(a, b *Config) { b.CacheParts = 3 })
	fe := sysA.FrontEnds()[0]
	waitFor(t, "B's three partitions in A's ring", func() bool { return len(fe.Cache().Nodes()) == 3 })

	ctx := context.Background()
	for i := 0; i < 48; i++ { // a partition missing all 48 URLs: (2/3)^48 ≈ 4e-9
		if _, err := sysA.Request(ctx, fmt.Sprintf("http://origin%d.example/obj%d.sjpg", i%4, i), "u"); err != nil {
			t.Fatal(err)
		}
	}
	for name := range sysB.CacheNodes() {
		st, err := fe.Cache().StatsOf(ctx, name)
		if err != nil {
			t.Fatalf("A cannot reach %s: %v", name, err)
		}
		if st.Misses == 0 || st.Puts == 0 {
			t.Fatalf("%s was never probed or written by A: %+v", name, st)
		}
	}
}

// TestMultiProcessLateFrontEndGreeted: a front-end process that joins
// long after B's partitions slowed to their interval still hears them at
// once. The primary greets its front end with a beacon, and each
// partition answers the beacon's head with its announcement, so A is
// ready in milliseconds — at an interval of an hour, where B's next
// scheduled announcement is more than half a second away.
func TestMultiProcessLateFrontEndGreeted(t *testing.T) {
	cfgA, cfgB := pairConfigs(t)
	cfgA.BeaconInterval, cfgB.BeaconInterval = time.Hour, time.Hour
	sysB := startSide(t, cfgB, nil)
	if !sysB.WaitReady(15 * time.Second) {
		t.Fatal("B not ready")
	}
	// B's announcers fire at 0, 5, 15, 35, 75, 155, 315, 635 and 1275 ms:
	// A joins with the next one more than half a second away.
	time.Sleep(700*time.Millisecond - time.Since(sysB.started))
	start := time.Now()
	sysA := startSide(t, cfgA, sysB)
	if !sysA.WaitReady(15 * time.Second) {
		t.Fatal("A not ready")
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Fatalf("A ready %s after it started, want under 250 ms: greeted, not waiting for the next announcement", took)
	}
	if got := sysA.FrontEnds()[0].Cache().Nodes(); len(got) != cfgB.CacheParts {
		t.Fatalf("A's ring %v, want B's %d partitions", got, cfgB.CacheParts)
	}
}

// TestMultiProcessMovedPartitionRepointed: the node under one of B's
// partitions dies, and B respawns the partition on another node. A's
// front end reaches it at its new address within one announce interval
// of the respawn: the partition's first announcement re-points every
// process's ring, not only the front ends beside it.
func TestMultiProcessMovedPartitionRepointed(t *testing.T) {
	const beat = 100 * time.Millisecond
	sysA, sysB := startPair(t, func(a, b *Config) {
		a.BeaconInterval, b.BeaconInterval = beat, beat
		b.CacheParts = 3
	})
	fe := sysA.FrontEnds()[0]
	waitFor(t, "B's three partitions in A's ring", func() bool { return len(fe.Cache().Nodes()) == 3 })

	// The victim: a partition whose node hosts neither B's manager nor its
	// supervisor, which nobody in B would restart.
	keep := map[string]bool{}
	for _, name := range []string{"manager", "sup"} {
		addr, _ := sysB.Addr(name)
		keep[addr.Node] = true
	}
	var victim string
	var old san.Addr
	for name, addr := range sysB.CacheNodes() {
		if !keep[addr.Node] {
			victim, old = name, addr
			break
		}
	}
	if victim == "" {
		t.Fatalf("every partition shares a node with the manager or the supervisor: %v", sysB.CacheNodes())
	}
	ctx := context.Background()
	if _, err := fe.Cache().StatsOf(ctx, victim); err != nil {
		t.Fatalf("A cannot reach %s before the fault: %v", victim, err)
	}

	if err := sysB.Cluster.KillNode(old.Node); err != nil {
		t.Fatal(err)
	}
	var moved san.Addr
	waitFor(t, victim+" respawned on another node", func() bool {
		moved = sysB.CacheNodes()[victim]
		return moved.Node != old.Node && sysB.Net.Lookup(moved)
	})
	respawned := time.Now()
	waitFor(t, "A reaching "+victim+" at "+moved.String(), func() bool {
		_, err := fe.Cache().StatsOf(ctx, victim)
		return err == nil
	})
	if took := time.Since(respawned); took > beat {
		t.Fatalf("A reached %s at its new address %s after the respawn, want within one announce interval (%s)", victim, took, beat)
	}
}

// TestMultiProcessReapOverflowWorker: the manager lives in process B,
// an idle overflow extra in process A. Retiring it is one OpReap to A's
// supervisor — the worker exits gracefully, its row leaves A's roster,
// the manager counts one reap, and nothing is sent twice.
func TestMultiProcessReapOverflowWorker(t *testing.T) {
	sysA, sysB := startPair(t, func(a, b *Config) {
		a.OverflowNodes, a.ProcsPerNode = 1, 1 // every dedicated node of A is full: an extra lands on the overflow pool
		b.Policy = manager.Policy{SpawnThreshold: 1e9, Damping: 4 * tick, ReapThreshold: 0.5}
	})
	waitFor(t, "cross-process supervisor hello", func() bool {
		_, ok := sysB.Manager().SupervisorFor("a-ovf0")
		return ok
	})
	before := sysA.Supervisor().Stats().Commands
	extra := spawnExtra(t, sysA, distiller.ClassSJPG)
	if addr, _ := sysA.Addr(extra); addr.Node != "a-ovf0" {
		t.Fatalf("extra %s placed on %s, want the overflow pool", extra, addr.Node)
	}

	waitFor(t, "one reap through A's supervisor", func() bool {
		return sysB.Manager().Stats().Reaps == 1 && len(sysA.Workers()) == 0
	})
	time.Sleep(10 * tick) // a second command, or a restart of the "silent" extra, would have gone out by now
	st, sup := sysB.Manager().Stats(), sysA.Supervisor().Stats()
	if sup.Commands-before != 1 || sup.Failures != 0 || st.Reaps != 1 || st.WorkerRestarts != 0 || st.DelegateFails != 0 || st.Workers != 3 {
		t.Fatalf("manager %+v, A's supervisor %+v (was %d commands): want exactly one reap", st, sup, before)
	}
	for _, r := range sysA.Roster() {
		if r.Name == extra {
			t.Fatalf("reaped extra %s still in A's roster %v", extra, sysA.Roster())
		}
	}
	for name, sys := range map[string]*System{"A": sysA, "B": sysB} {
		if ws := sys.Net.Stats(); ws.WireErrors != 0 {
			t.Fatalf("process %s: WireErrors=%d", name, ws.WireErrors)
		}
	}
}
