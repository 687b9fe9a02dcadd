package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/distiller"
	"repro/internal/manager"
	"repro/internal/media"
	"repro/internal/san"
	"repro/internal/search"
	"repro/internal/stub"
	"repro/internal/tacc"
	"repro/internal/trace"
)

// nullWorker is a no-op TACC worker for control-plane experiments.
type nullWorker struct{ class string }

func (w nullWorker) Class() string { return w.class }
func (w nullWorker) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	return task.Input, nil
}

// runMgrCap reproduces the §4.6 manager capacity experiment: 900
// distillers send a load announcement every half second (1800
// announcements/s); the manager must absorb them. With each distiller
// worth >20 req/s of service capacity, the manager is three orders of
// magnitude away from being the bottleneck. It reads the rate, and the
// CPU the whole control plane spends, at steady state.
func runMgrCap(seed int64) {
	const (
		workers        = 900
		reportInterval = 500 * time.Millisecond
		measureFor     = 4 * time.Second
	)
	net := san.NewNetwork(seed, san.WithCodec(stub.WireCodec{}), san.WithBeacon(reportInterval))
	m := manager.New(manager.Config{
		Node:   "mgr",
		Net:    net,
		Policy: manager.Policy{SpawnThreshold: 1e18, Damping: time.Hour, ReapThreshold: -1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)

	fmt.Printf("spawning %d worker stubs reporting every %s...\n", workers, reportInterval)
	for i := 0; i < workers; i++ {
		ws := stub.NewWorkerStub(fmt.Sprintf("d%d", i), fmt.Sprintf("n%d", i%64),
			nullWorker{class: "distill"}, net, stub.WorkerConfig{})
		go ws.Run(ctx)
	}
	// Let registrations settle.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && m.Stats().Workers < workers {
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("registered: %d workers\n", m.Stats().Workers)
	time.Sleep(3 * reportInterval) // past every stub's softstate.Schedule ramp

	before, cpu0 := m.Stats().ReportsHandled, cpuSeconds()
	start := time.Now()
	time.Sleep(measureFor)
	elapsed := time.Since(start).Seconds()
	handled := float64(m.Stats().ReportsHandled-before) / elapsed
	cpu := cpuSeconds() - cpu0

	fmt.Printf("load announcements handled: %.0f/s (offered %.0f/s)\n",
		handled, float64(workers)/reportInterval.Seconds())
	fmt.Printf("cpu in the %.0f s window: %.2f s (user + GC)\n", elapsed, cpu)
	perDistiller := 20.0
	fmt.Printf("equivalent service capacity represented: %.0f req/s (paper: ~18000 req/s,\n",
		float64(workers)*perDistiller)
	fmt.Println("~3 orders of magnitude above the Berkeley modem pool's peak load)")
	if handled > 1700 {
		fmt.Println("PASS: manager sustained the paper's 1800 announcements/s without loss")
	} else {
		fmt.Printf("NOTE: handled %.0f/s on this host\n", handled)
	}
}

// cpuSeconds is the CPU this process has spent running Go code and
// collecting garbage (runtime/metrics' user and GC classes). The runtime
// refreshes those classes only at a collection, so it forces one first:
// the reading is current, and costs a few milliseconds of GC itself.
func cpuSeconds() float64 {
	runtime.GC()
	samples := []metrics.Sample{
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return samples[0].Value.Float64() + samples[1].Value.Float64()
}

// await polls cond for up to ten seconds.
func await(cond func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !cond() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
}

// runFaults demonstrates the §3.1.3 process-peer matrix on the live
// system — worker crash, manager crash (with and without a standby),
// front-end crash in the manager's process and in another one — each
// detected and repaired while requests keep flowing, and each timed:
// these legs are where the recovery latencies are read.
func runFaults(seed int64) {
	const workers, caches, nodes = 2, 2, 6
	registry := tacc.NewRegistry()
	distiller.RegisterAll(registry)
	config := func(c core.Config) core.Config {
		c.DedicatedNodes = nodes
		c.CacheParts = caches
		c.Workers = map[string]int{distiller.ClassSJPG: workers}
		c.Registry = registry
		c.Rules = distiller.TranSendRules()
		c.BeaconInterval = 50 * time.Millisecond
		c.Policy = manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1}
		return c
	}
	sys, err := core.Start(config(core.Config{Seed: seed, FrontEnds: 1, Managers: 2}))
	if err != nil {
		fmt.Println("start:", err)
		return
	}
	defer sys.Stop()
	if !sys.WaitReady(10 * time.Second) {
		fmt.Println("system did not come up")
		return
	}
	ctx := context.Background()
	probe := func() (string, error) {
		r, err := sys.Request(ctx, trace.ObjectURL(rand.Int()%100000, media.MIMESJPG), "u")
		if err != nil {
			return "", err
		}
		return r.Source, nil
	}
	var t0 time.Time
	since := func() time.Duration { return time.Since(t0).Round(time.Millisecond) }

	fmt.Println("--- worker crash ---")
	victim := sys.Workers()[0]
	regs := sys.Manager().Stats().Registrations
	t0 = time.Now()
	sys.Kill(victim)
	fmt.Printf("t=0       killed %s (no deregistration — crash)\n", victim)
	src, err := probe()
	fmt.Printf("t=%-7s request served via %q (err=%v)\n", since(), src, err)
	await(func() bool { return sys.Manager().Stats().Registrations > regs })
	fmt.Printf("t=%-7s manager inferred the loss by timeout; restarted by name, it re-registered\n", since())

	fmt.Println("--- primary manager crash, standby alive ---")
	old := sys.Manager()
	epoch := old.Epoch()
	t0 = time.Now()
	sys.KillManager()
	await(func() bool {
		m := sys.Manager()
		return m != old && m.IsPrimary() && m.Epoch() > epoch && m.Stats().Workers >= workers
	})
	fmt.Printf("t=%-7s standby won the lease election (epoch %d -> %d) holding all %d workers first-hand\n",
		since(), epoch, sys.Manager().Epoch(), sys.Manager().Stats().Workers)

	fmt.Println("--- last manager crash ---")
	old = sys.Manager()
	t0 = time.Now()
	sys.KillManager()
	src, err = probe()
	fmt.Printf("t=%-7s request served via %q off cached beacons (err=%v)\n", since(), src, err)
	await(func() bool { return sys.Manager() != old && sys.Manager().Stats().Workers >= workers })
	fmt.Printf("t=%-7s front-end watchdog restarted the manager; %d workers re-registered\n",
		since(), sys.Manager().Stats().Workers)

	fmt.Println("--- front-end crash ---")
	t0 = time.Now()
	sys.Kill("fe0")
	await(func() bool { fes := sys.FrontEnds(); return len(fes) == 1 && fes[0].Running() })
	src, err = probe()
	fmt.Printf("t=%-7s manager restarted fe0; request served via %q (err=%v)\n", since(), src, err)
	fmt.Printf("--- the monitor's view (§3.1.7) ---\n%s", sys.Mon.RenderTable())

	fmt.Println("--- front-end crash in another process ---")
	// A second system, front end only, joined to the first over a
	// loopback socket: the manager cannot restart this one itself and
	// has to command the supervisor of the process that lost it.
	sys.Stop()
	back, err := core.Start(config(core.Config{
		Seed: seed, NodePrefix: "b-",
		Roles:     core.Roles{Manager: true, Workers: true, Caches: true},
		Transport: core.TransportConfig{Listen: "tcp:127.0.0.1:0"},
	}))
	if err != nil {
		fmt.Println("start:", err)
		return
	}
	defer back.Stop()
	front, err := core.Start(config(core.Config{
		Seed: seed + 1, NodePrefix: "a-", FrontEnds: 1,
		Roles:        core.Roles{FrontEnds: true},
		Transport:    core.TransportConfig{Listen: "tcp:127.0.0.1:0", Join: []string{back.Bridge.Advertise()}},
		RemoteCaches: core.CacheAddrs("b-", caches, nodes),
	}))
	if err != nil {
		fmt.Println("start:", err)
		return
	}
	defer front.Stop()
	await(func() bool { _, ok := back.Manager().SupervisorFor("a-node0"); return ok })
	if !back.WaitReady(10*time.Second) || !front.WaitReady(10*time.Second) {
		fmt.Println("bridged pair did not come up")
		return
	}
	t0 = time.Now()
	front.Kill("fe0")
	await(func() bool {
		fes := front.FrontEnds()
		return back.Manager().Stats().FERestarts >= 1 && len(fes) == 1 && fes[0].Running()
	})
	fmt.Printf("t=%-7s manager had the other process's supervisor restart it; fe0 is serving\n", since())

	fmt.Println("\npaper §3.1.3: manager, distillers and front ends are process peers; soft")
	fmt.Println("state rebuilt from beacons means no recovery protocol anywhere")
}

// runHotBot reproduces the §3.2 behaviours on the SNS layer: every
// index partition is a worker class, so a query is one task per class.
// Fast restart loses one partition's worker, answers from the rest and
// is whole again once the manager restarts it by name; cross-mount runs
// two workers a class and stays whole.
func runHotBot(seed int64) {
	const docsN = 54000 // 54M documents at 1:1000 scale
	fmt.Printf("corpus: %d docs (54M at 1:1000 scale), 26 partitions as in HotBot\n\n", docsN)
	docs := search.GenerateCorpus(rand.New(rand.NewSource(seed)), docsN, 5000)
	for _, mode := range []search.FailureMode{search.FastRestart, search.CrossMount} {
		if err := hotbotRun(seed, mode, docs); err != nil {
			fmt.Println("hotbot:", err)
			return
		}
		fmt.Println()
	}
}

// hotbotStart boots a search engine of the given partition count on
// core.Start and returns it with the system and a front end's dispatch.
func hotbotStart(seed int64, mode search.FailureMode, parts int, docs []search.Doc) (*search.Engine, *core.System, search.Dispatch, error) {
	reg := tacc.NewRegistry()
	engine := search.Deploy(search.Config{Partitions: parts, Mode: mode, Seed: seed}, reg, docs)
	sys, err := core.Start(core.Config{
		Seed: seed, DedicatedNodes: parts, CacheParts: 1,
		Registry: reg, Workers: engine.Workers(),
		BeaconInterval: 30 * time.Millisecond,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if !sys.WaitReady(10 * time.Second) {
		sys.Stop()
		return nil, nil, nil, fmt.Errorf("%s: not ready in 10 s", mode)
	}
	return engine, sys, sys.FrontEnds()[0].ManagerStub().Dispatch, nil
}

func hotbotRun(seed int64, mode search.FailureMode, docs []search.Doc) error {
	boot := time.Now()
	engine, sys, dispatch, err := hotbotStart(seed, mode, 26, docs)
	if err != nil {
		return err
	}
	defer sys.Stop()
	ctx := context.Background()
	show := func(what string, res search.QueryResult) {
		fmt.Printf("[%s] %s: %d of %d shards, %d of %d docs (%.1f%%), partial=%v\n",
			mode, what, res.ShardsAlive, res.ShardsAsked, res.DocsSearched, res.TotalDocs,
			100*float64(res.DocsSearched)/float64(res.TotalDocs), res.Partial)
	}
	fmt.Printf("[%s] %d workers up on core.Start in %v\n", mode, len(sys.Workers()), time.Since(boot).Round(time.Millisecond))
	start := time.Now()
	res := engine.Query(ctx, dispatch, "ba de ka", 10)
	show(fmt.Sprintf("query in %v", time.Since(start).Round(time.Microsecond)), res)

	victim := ""
	for _, id := range sys.Workers() {
		if strings.HasPrefix(id, search.ShardClass(7)+".") {
			victim = id
			break
		}
	}
	killed := time.Now()
	if err := sys.Kill(victim); err != nil {
		return err
	}
	res = engine.Query(ctx, dispatch, "bi du", 10)
	show(fmt.Sprintf("%v after killing %s", time.Since(killed).Round(100*time.Microsecond), victim), res)
	if mode == search.CrossMount {
		fmt.Printf("    paper (original Inktomi): cross-mounted databases kept 100%% data\n")
		fmt.Printf("    availability with graceful performance degradation (stub failovers=%d)\n",
			sys.FrontEnds()[0].ManagerStub().Stats().Failovers)
		return nil
	}
	fmt.Printf("    paper: 54M -> ~51M documents, 'still significantly larger than\n")
	fmt.Printf("    other search engines (Alta Vista at 30M)'\n")
	// A partial answer is not cached: asking again reaches every class.
	for res.Partial && time.Since(killed) < 2*time.Second {
		time.Sleep(5 * time.Millisecond)
		res = engine.Query(ctx, dispatch, "bi du", 10)
	}
	show(fmt.Sprintf("%v after the kill, manager restarts=%d", time.Since(killed).Round(time.Millisecond),
		sys.Manager().Stats().WorkerRestarts), res)
	return nil
}

// runTable1 verifies Table 1's structural comparison by inspecting the
// two live implementations.
func runTable1(seed int64) {
	rows := []struct{ component, transend, hotbot string }{
		{"Load balancing", "dynamic, by queue lengths at workers (lottery over beacon hints)", "static partitioning of read-only data; every query to all workers"},
		{"Application layer", "composable TACC workers (internal/distiller via internal/tacc)", "fixed search application (internal/search)"},
		{"Service layer", "worker dispatch rules in the front end (distiller.TranSendRules)", "dynamic result-page generation (search.RenderResults)"},
		{"Failure management", "centralized, fault-tolerant manager with process peers", "the same SNS manager: replicas or restart by name (FailureMode)"},
		{"Worker placement", "workers run anywhere; FEs and caches bound to nodes", "SNS placement; a worker is bound to its partition's class"},
		{"Profile database", "WAL-backed store with FE read caches (internal/profiledb)", "parallel commercial DB (same ACID island, scaled)"},
		{"Caching", "pre- and post-transformation web data (internal/vcache)", "recent searches for incremental delivery (search result cache)"},
	}
	fmt.Printf("%-20s %-55s %s\n", "Component", "TranSend", "HotBot")
	fmt.Println(strings.Repeat("-", 140))
	for _, r := range rows {
		fmt.Printf("%-20s %-55s %s\n", r.component, r.transend, r.hotbot)
	}

	// Live verification of the two headline differences.
	fmt.Println("\nverifying structural claims against the implementations:")
	// (1) TranSend dispatch is dynamic: two identical workers share
	// load via the lottery.
	registry := tacc.NewRegistry()
	distiller.RegisterAll(registry)
	sys, err := core.Start(core.Config{
		Seed: seed, FrontEnds: 1, CacheParts: 1,
		Workers:        map[string]int{distiller.ClassSJPG: 2},
		Registry:       registry,
		Rules:          distiller.TranSendRules(),
		BeaconInterval: 30 * time.Millisecond,
		Policy:         manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
	})
	if err == nil && sys.WaitReady(10*time.Second) {
		ctx := context.Background()
		for i := 0; i < 30; i++ {
			sys.Request(ctx, trace.ObjectURL(200000+i, media.MIMESJPG), "u")
		}
		fmt.Printf("  TranSend: %d interchangeable sjpg workers served 30 requests dynamically\n",
			len(sys.FrontEnds()[0].ManagerStub().Workers(distiller.ClassSJPG)))
		sys.Stop()
	}
	// (2) HotBot fan-out is static: every query touches every
	// partition's class, each a worker class the same SNS layer places
	// and restarts.
	engine, hsys, dispatch, err := hotbotStart(seed, search.FastRestart, 4,
		search.GenerateCorpus(rand.New(rand.NewSource(seed)), 2000, 500))
	if err == nil {
		res := engine.Query(context.Background(), dispatch, "ba", 5)
		fmt.Printf("  HotBot: query fanned out to %d/%d partition classes on the SNS layer\n",
			res.ShardsAlive, res.ShardsAsked)
		hsys.Stop()
	}
}
