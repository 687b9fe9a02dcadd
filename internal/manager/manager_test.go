package manager

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

type nullWorker struct{ class string }

func (w nullWorker) Class() string { return w.class }
func (w nullWorker) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	return task.Input, nil
}

// testSpawner spawns real worker stubs on a shared network.
type testSpawner struct {
	net      *san.Network
	interval time.Duration

	mu        sync.Mutex
	nextID    int
	cancels   map[string]context.CancelFunc
	nodes     map[string]string
	spawns    atomic.Int64
	reaps     atomic.Int64
	restarts  atomic.Int64
	dedicated atomic.Bool
}

func newTestSpawner(net *san.Network, interval time.Duration) *testSpawner {
	s := &testSpawner{
		net:      net,
		interval: interval,
		cancels:  make(map[string]context.CancelFunc),
		nodes:    make(map[string]string),
	}
	s.dedicated.Store(true)
	return s
}

// SpawnWorker is the Spawner method: like the platform, the fake picks
// the overflow pool itself once dedicated capacity is gone.
func (s *testSpawner) SpawnWorker(class string) error {
	s.spawn(class, !s.dedicated.Load())
	return nil
}

func (s *testSpawner) spawn(class string, overflow bool) stub.WorkerInfo {
	s.mu.Lock()
	id := fmt.Sprintf("%s-%d", class, s.nextID)
	node := fmt.Sprintf("nd%d", s.nextID)
	if overflow {
		node = fmt.Sprintf("novf%d", s.nextID)
	}
	s.nextID++
	s.mu.Unlock()
	ws := stub.NewWorkerStub(id, node, nullWorker{class: class}, s.net,
		stub.WorkerConfig{ReportInterval: s.interval, Overflow: overflow})
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.cancels[id] = cancel
	s.nodes[id] = node
	s.mu.Unlock()
	go ws.Run(ctx)
	s.spawns.Add(1)
	return ws.Info()
}

// crash kills a worker abruptly: its node drops off the SAN before the
// process can say goodbye, so no deregistration reaches the manager.
func (s *testSpawner) crash(id string) {
	s.mu.Lock()
	node := s.nodes[id]
	cancel := s.cancels[id]
	delete(s.cancels, id)
	delete(s.nodes, id)
	s.mu.Unlock()
	s.net.DropNode(node)
	if cancel != nil {
		cancel()
	}
}

func (s *testSpawner) ReapWorker(id string) error {
	s.mu.Lock()
	cancel, ok := s.cancels[id]
	delete(s.cancels, id)
	s.mu.Unlock()
	if ok {
		cancel()
	}
	s.reaps.Add(1)
	return nil
}

func (s *testSpawner) Restart(name string) error {
	s.restarts.Add(1)
	return nil
}

func (s *testSpawner) stopAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cancel := range s.cancels {
		cancel()
	}
}

const tick = 10 * time.Millisecond

func startManager(t *testing.T, net *san.Network, sp Spawner, pol Policy) *Manager {
	t.Helper()
	m := New(Config{
		Node:           "mgr",
		Net:            net,
		Policy:         pol,
		BeaconInterval: tick,
		WorkerTTL:      5 * tick,
		FETTL:          6 * tick,
		Spawner:        sp,
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go m.Run(ctx)
	return m
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

func TestWorkerLifecycle(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	m := startManager(t, net, sp, Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1})

	// Spawn two workers out-of-band; they register via beacons.
	info1 := sp.spawn("echo", false)
	info2 := sp.spawn("echo", false)
	_ = info2
	waitFor(t, "registrations", func() bool { return m.Stats().Workers == 2 })

	// Kill one silently (no deregister): TTL expiry plus the
	// replica floor respawns a replacement.
	sp.crash(info1.ID)
	waitFor(t, "replacement spawn", func() bool { return sp.spawns.Load() >= 3 })
	waitFor(t, "two live workers", func() bool { return m.Stats().Workers == 2 })
}

func TestBeaconCarriesLoadAverages(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	m := New(Config{
		Node:           "mgr",
		Net:            net,
		Policy:         Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
		BeaconInterval: tick,
		WorkerTTL:      time.Hour, // isolate from expiry
		Spawner:        sp,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)

	// A hand-rolled worker that reports a fixed queue length of 10.
	wep := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 64)
	wep.Join(stub.GroupControl)
	go func() {
		var mgr san.Addr
		registered := false
		tk := time.NewTicker(tick)
		defer tk.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case msg, ok := <-wep.Inbox():
				if !ok {
					return
				}
				if msg.Kind == stub.MsgBeacon {
					b := msg.Body.(stub.Beacon)
					mgr = b.Manager
					if !registered {
						registered = true
						wep.Send(mgr, stub.MsgRegister, stub.RegisterMsg{Info: stub.WorkerInfo{
							ID: "w0", Class: "echo", Addr: wep.Addr(), Node: "n1",
						}}, 64)
					}
				}
			case <-tk.C:
				if !mgr.IsZero() {
					wep.Send(mgr, stub.MsgLoadReport, stub.LoadReport{ID: "w0", Class: "echo", QLen: 10}, 64)
				}
			}
		}
	}()

	// Listen for beacons and check the advertised moving average
	// converges toward 10.
	lep := net.Endpoint(san.Addr{Node: "fe", Proc: "listen"}, 256)
	lep.Join(stub.GroupControl)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		msg := <-lep.Inbox()
		if msg.Kind != stub.MsgBeacon {
			continue
		}
		b := msg.Body.(stub.Beacon)
		if len(b.Workers) == 1 && b.Workers[0].QLen > 8 {
			return // converged
		}
	}
	t.Fatal("beacon load average never converged toward reports")
}

func TestSpawnOnLoadThresholdWithDamping(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	m := New(Config{
		Node:           "mgr",
		Net:            net,
		Policy:         Policy{SpawnThreshold: 5, Damping: 10 * tick, ReapThreshold: -1},
		BeaconInterval: tick,
		WorkerTTL:      time.Hour,
		Spawner:        sp,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)

	// Register a fake overloaded worker reporting queue 50.
	wep := net.Endpoint(san.Addr{Node: "n1", Proc: "hot"}, 64)
	wep.Join(stub.GroupControl)
	go func() {
		var mgr san.Addr
		reg := false
		tk := time.NewTicker(tick)
		defer tk.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case msg, ok := <-wep.Inbox():
				if !ok {
					return
				}
				if msg.Kind == stub.MsgBeacon {
					mgr = msg.Body.(stub.Beacon).Manager
					if !reg {
						reg = true
						wep.Send(mgr, stub.MsgRegister, stub.RegisterMsg{Info: stub.WorkerInfo{
							ID: "hot", Class: "echo", Addr: wep.Addr(), Node: "n1"}}, 64)
					}
				}
			case <-tk.C:
				if !mgr.IsZero() {
					wep.Send(mgr, stub.MsgLoadReport, stub.LoadReport{ID: "hot", Class: "echo", QLen: 50}, 64)
				}
			}
		}
	}()

	waitFor(t, "load spawn", func() bool { return sp.spawns.Load() >= 1 })
	// Damping: no flood of spawns immediately after.
	time.Sleep(5 * tick)
	if got := sp.spawns.Load(); got > 2 {
		t.Fatalf("damping failed: %d spawns in half a damping window", got)
	}
	if m.Stats().Spawns == 0 {
		t.Fatal("stats did not record spawns")
	}
}

func TestSpawnRequestFromFrontEnd(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	m := startManager(t, net, sp, Policy{SpawnThreshold: 1e9, Damping: time.Millisecond, ReapThreshold: -1})

	fe := net.Endpoint(san.Addr{Node: "fe", Proc: "fe0"}, 64)
	fe.Join(stub.GroupControl)
	waitFor(t, "manager beacon", func() bool {
		select {
		case msg := <-fe.Inbox():
			return msg.Kind == stub.MsgBeacon
		default:
			return false
		}
	})
	if err := fe.Send(m.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "echo"}, 32); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "spawn", func() bool { return sp.spawns.Load() >= 1 })
	waitFor(t, "registered", func() bool { return m.Stats().Workers == 1 })
}

func TestReapOverflowWorkers(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	sp.dedicated.Store(false) // force spawns onto the overflow pool
	m := New(Config{
		Node:           "mgr",
		Net:            net,
		Policy:         Policy{SpawnThreshold: 1e9, Damping: 2 * tick, ReapThreshold: 0.5},
		BeaconInterval: tick,
		WorkerTTL:      time.Hour,
		Spawner:        sp,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)

	// Two workers: one dedicated (registered directly), one overflow.
	sp.dedicated.Store(true)
	sp.spawn("echo", false)
	sp.spawn("echo", true) // overflow
	waitFor(t, "both registered", func() bool { return m.Stats().Workers == 2 })

	// Idle (queue 0 reports flow automatically from the stubs), so
	// the overflow worker gets reaped once damping passes.
	waitFor(t, "reap", func() bool { return m.Stats().Reaps >= 1 })
	waitFor(t, "one worker left", func() bool { return m.Stats().Workers == 1 })
	// The dedicated worker survives.
	if sp.reaps.Load() == 0 {
		t.Fatal("spawner.ReapWorker not called")
	}
}

func TestFrontEndProcessPeerRestart(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	m := startManager(t, net, sp, Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1})

	fe := net.Endpoint(san.Addr{Node: "fe", Proc: "fe0"}, 64)
	hb := func() {
		fe.Send(m.Addr(), stub.MsgFEHello, stub.FEHeartbeat{Name: "fe0", Addr: fe.Addr(), Node: "fe"}, 48)
	}
	hb()
	waitFor(t, "FE tracked", func() bool { return m.Stats().FrontEnds == 1 })
	// Stop heartbeating: the manager restarts the FE after FETTL.
	waitFor(t, "FE restart", func() bool { return sp.restarts.Load() >= 1 })
	if m.Stats().FERestarts == 0 {
		t.Fatal("restart not recorded in stats")
	}
}

// TestCacheProcessPeerRestart: cache services heartbeat on the
// control group; silence past CacheTTL triggers the manager's
// Restart duty, exactly like front ends.
func TestCacheProcessPeerRestart(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	m := startManager(t, net, sp, Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1})

	cache := net.Endpoint(san.Addr{Node: "c0", Proc: "cache0"}, 64)
	waitFor(t, "cache tracked", func() bool {
		// Heartbeat until the manager (whose Run loop joins the group
		// asynchronously) has caught one.
		cache.Multicast(stub.GroupControl, vcache.MsgHello,
			vcache.HelloMsg{Name: "cache0", Addr: cache.Addr(), Node: "c0"}, 48)
		return m.Stats().Caches == 1
	})
	// Stop heartbeating: the manager restarts the cache after CacheTTL.
	waitFor(t, "cache restart", func() bool { return sp.restarts.Load() >= 1 })
	if m.Stats().CacheRestarts == 0 {
		t.Fatal("cache restart not recorded in stats")
	}
}

func TestDeregisterLowersReplicaFloor(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	m := startManager(t, net, sp, Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1})

	info := sp.spawn("echo", false)
	waitFor(t, "registered", func() bool { return m.Stats().Workers == 1 })

	// Clean deregistration must NOT trigger a replacement.
	base := sp.spawns.Load()
	wep := net.Endpoint(san.Addr{Node: "x", Proc: "x"}, 8)
	wep.Send(m.Addr(), stub.MsgDeregister, stub.DeregisterMsg{ID: info.ID}, 32)
	waitFor(t, "worker removed", func() bool { return m.Stats().Workers == 0 })
	time.Sleep(10 * tick)
	if sp.spawns.Load() != base {
		t.Fatal("deregistered worker was replaced; floor should have dropped")
	}
}

func TestManagerRestartRebuildsSoftState(t *testing.T) {
	// §3.1.3: kill the manager, start a new one; workers re-register
	// on its beacons with no recovery protocol.
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()

	ctx1, cancel1 := context.WithCancel(context.Background())
	m1 := New(Config{
		Node: "mgr", Net: net,
		Policy:         Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
		BeaconInterval: tick, WorkerTTL: time.Hour, Spawner: sp,
	})
	go m1.Run(ctx1)
	sp.spawn("echo", false)
	sp.spawn("echo", false)
	waitFor(t, "initial registrations", func() bool { return m1.Stats().Workers == 2 })

	cancel1()
	net.DropNode("mgr")
	time.Sleep(3 * tick)

	m2 := New(Config{
		Node: "mgr2", Net: net,
		Policy:         Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
		BeaconInterval: tick, WorkerTTL: time.Hour, Spawner: sp,
	})
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go m2.Run(ctx2)
	waitFor(t, "re-registration with new manager", func() bool { return m2.Stats().Workers == 2 })
}

func TestClassAverages(t *testing.T) {
	net := san.NewNetwork(1)
	m := New(Config{
		Node: "mgr", Net: net,
		Policy:         Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
		BeaconInterval: tick, WorkerTTL: time.Hour,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)

	wep := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 8)
	wep.Send(m.Addr(), stub.MsgRegister, stub.RegisterMsg{Info: stub.WorkerInfo{
		ID: "w0", Class: "echo", Addr: wep.Addr(), Node: "n1"}}, 64)
	waitFor(t, "registered", func() bool { return m.Stats().Workers == 1 })
	for i := 0; i < 10; i++ {
		wep.Send(m.Addr(), stub.MsgLoadReport, stub.LoadReport{ID: "w0", Class: "echo", QLen: 8}, 64)
	}
	waitFor(t, "reports handled", func() bool { return m.Stats().ReportsHandled >= 10 })
	avgs := m.ClassAverages()
	if avgs["echo"] < 6 {
		t.Fatalf("class average = %v, want near 8", avgs["echo"])
	}
}

func TestPolicyPureFunctions(t *testing.T) {
	p := Policy{SpawnThreshold: 10, Damping: time.Minute, ReapThreshold: 1, MaxPerClass: 3}
	now := time.Now()
	old := now.Add(-2 * time.Minute)
	if !p.ShouldSpawn(11, 1, now, old) {
		t.Fatal("should spawn above threshold")
	}
	if p.ShouldSpawn(11, 1, now, now.Add(-time.Second)) {
		t.Fatal("damping violated")
	}
	if p.ShouldSpawn(9, 1, now, old) {
		t.Fatal("spawned below threshold")
	}
	if p.ShouldSpawn(11, 3, now, old) {
		t.Fatal("MaxPerClass violated")
	}
	if !p.ShouldReap(0.5, 2, now, old) {
		t.Fatal("should reap idle class")
	}
	if p.ShouldReap(0.5, 1, now, old) {
		t.Fatal("reaped the last worker")
	}
	if p.ShouldReap(2, 2, now, old) {
		t.Fatal("reaped a busy class")
	}
}

// TestCollectorCarriesElectionAndDelegation: /status and /metrics are the
// collector, so what an operator asks after a failover — who is primary,
// did it take over, is it delegating, to how many supervisors — has to
// be there and has to agree with Stats(). A lone standby is left to take
// over, then to fail one delegation and land the retry.
func TestCollectorCarriesElectionAndDelegation(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	sup := startScriptedSupervisor(t, net, "b-node0", "b-")
	sup.setMode("refuse")
	m, _ := startReplica(t, net, "a-mgr1", sp, 1, true)

	collected := func() map[string]float64 { return net.Registry().Collect("manager") }
	waitFor(t, "standby hears the supervisor", func() bool { return collected()["supervisors"] == 1 })
	if got := collected(); got["primary"] != 0 || got["takeovers"] != 0 {
		t.Fatalf("standby publishes %v, want primary 0 and no takeover", got)
	}
	fe := net.Endpoint(san.Addr{Node: "b-node1", Proc: "fe0"}, 8)
	fe.Send(m.Addr(), stub.MsgFEHello, stub.FEHeartbeat{Name: "fe0", Addr: fe.Addr(), Node: "b-node1"}, 48)

	waitFor(t, "takeover", func() bool { return collected()["primary"] == 1 })
	waitFor(t, "refused delegation", func() bool { return collected()["delegate_fails"] >= 1 })
	sup.setMode("ok")
	waitFor(t, "delegated restart", func() bool { return collected()["delegated"] >= 1 })
	// The silent front end is re-delegated every TTL, so a counter may
	// move between the two reads; retry until one comparison held still.
	var st Stats
	var got map[string]float64
	waitFor(t, "collector equals Stats", func() bool {
		st, got = m.Stats(), collected()
		return got["delegated"] == float64(st.Delegated) && got["delegate_fails"] == float64(st.DelegateFails)
	})
	if !st.Primary || got["primary"] != 1 || st.Takeovers != 1 || got["takeovers"] != 1 ||
		got["epoch"] != float64(st.Epoch) || st.Supervisors != 1 || got["supervisors"] != 1 {
		t.Fatalf("collector %v\nstats %+v", got, st)
	}
}
