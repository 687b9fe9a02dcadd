package manager

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
)

// TestWorkerLifecycle: configured workers register as they start; one
// that crashes (no deregistration) is restarted by name — same id, same
// address — once its silence outlasts WorkerTTL, and is back in the
// inventory a registration later.
func TestWorkerLifecycle(t *testing.T) {
	net := newNet(calmBeat)
	sup := startFakeSup(t, net, "node0", "")
	m, _ := startManager(t, net, "mgr", nil)

	info1 := sup.slot("echo")
	sup.slot("echo")
	waitFor(t, "registrations", func() bool { return m.Stats().Workers == 2 })

	sup.crash(info1.ID)
	waitFor(t, "the restart, and two live workers", func() bool {
		st := m.Stats()
		return st.WorkerRestarts == 1 && st.Workers == 2
	})
	cmds := sup.received()
	if len(cmds) != 1 || cmds[0].Op != supervisor.OpRestart || cmds[0].Target != info1.ID {
		t.Fatalf("supervisor saw %+v, want one restart of %s", cmds, info1.ID)
	}
	if st := m.Stats(); st.WorkerRestarts != 1 || st.Spawns != 0 {
		t.Fatalf("stats %+v, want one worker restart and no spawn", st)
	}
}

// TestRegistrationBurstCoalesces: 32 workers announcing themselves at
// once are one change to beacon, not 32 — the primary beacons after
// draining its inbox, so the burst costs one triggered beacon (two if it
// straddles the first receive). The same 32 again change nothing, and
// trigger nothing: the announcements every worker multicasts at boot
// before its unicast ones are free.
func TestRegistrationBurstCoalesces(t *testing.T) {
	net := newNet(time.Hour)
	m := New(Config{Node: "mgr", Net: net})
	from := net.Endpoint(san.Addr{Node: "n1", Proc: "burst"}, 8)
	burst := func() {
		for i := 0; i < 32; i++ {
			w := supervisor.Member{Addr: san.Addr{Node: "n1", Proc: fmt.Sprintf("w%d", i)}, Kind: supervisor.KindWorker, Class: "echo", State: supervisor.StateUp}
			if err := from.Send(m.Addr(), supervisor.MsgAnnounce, w, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	burst() // queued before Run: delivered as one burst
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)
	waitFor(t, "32 workers", func() bool { return m.Stats().Workers == 32 })
	if n := m.Stats().BeaconsTriggered; n < 1 || n > 2 {
		t.Fatalf("a burst of 32 new workers triggered %d beacons, want 1 or 2", n)
	}
	before := m.Stats().BeaconsTriggered
	burst()
	waitFor(t, "64 announcements", func() bool { return m.Stats().ReportsHandled == 64 })
	if st := m.Stats(); st.BeaconsTriggered != before || st.Workers != 32 || st.Registrations != 32 {
		t.Fatalf("known workers again: %+v, want %d triggered beacons and 32 workers registered", st, before)
	}
}

// TestIdleBeaconsOnePerInterval: an idle cluster costs one beacon per
// interval — the schedule's steady rate, and not one triggered beacon —
// however fast it started.
func TestIdleBeaconsOnePerInterval(t *testing.T) {
	t.Parallel()
	const interval = 100 * time.Millisecond
	net := newNet(interval)
	sup := startFakeSup(t, net, "node0", "")
	m, _ := startManager(t, net, "mgr", nil)
	sup.slot("echo")
	sup.slot("echo")
	waitFor(t, "registrations", func() bool { return m.Stats().Workers == 2 })
	time.Sleep(2 * interval) // past the schedule's fast start

	collected := func() map[string]float64 { return net.Registry().Collect("manager") }
	start, t0 := collected(), time.Now()
	time.Sleep(30 * interval)
	end, elapsed := collected(), time.Since(t0)
	want := float64(elapsed / interval)
	if sent := end["beacons_sent"] - start["beacons_sent"]; sent < want-1 || sent > want+1 {
		t.Errorf("%v of idle sent %v beacons, want %v ± 1", elapsed, sent, want)
	}
	if trig := end["beacons_triggered"] - start["beacons_triggered"]; trig != 0 {
		t.Errorf("%v of idle triggered %v beacons, want none", elapsed, trig)
	}
}

func TestBeaconCarriesLoadAverages(t *testing.T) {
	net := newNet(tick)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startManager(t, net, "mgr", nil)

	// A hand-rolled worker that announces a fixed queue length of 10.
	go fakeLoad(ctx, net, "w0", 10)

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

// TestBeaconAudiences: what a worker hears of a beacon, the head on the
// beacon group, is the same bytes with 10 workers heard as with 900 —
// its cost does not grow with the cluster — while the control group's
// beacon, the front ends' load table, carries every row.
func TestBeaconAudiences(t *testing.T) {
	// A minute's beat: the 900 workers announced once stay heard (a
	// worker's TTL is five beats); every beacon read here is one a
	// membership change triggered.
	net := newNet(time.Minute)
	m, _ := startManager(t, net, "mgr", nil)
	worker := net.Endpoint(san.Addr{Node: "n1", Proc: "listener"}, 4096)
	worker.Join(stub.GroupBeacon)
	fe := net.Endpoint(san.Addr{Node: "fe", Proc: "listener"}, 4096)
	fe.Join(stub.GroupControl)
	from := net.Endpoint(san.Addr{Node: "n1", Proc: "burst"}, 8)

	// heads returns the worker's and the front end's copy of the first
	// beacon carrying rows workers, and the head's size on the wire.
	heads := func(rows int) (head, table stub.Beacon, size int) {
		for i := m.Stats().Workers; i < rows; i++ {
			w := supervisor.Member{Addr: san.Addr{Node: "n1", Proc: fmt.Sprintf("w%d", i)}, Kind: supervisor.KindWorker, Class: "echo", State: supervisor.StateUp}
			if err := from.Send(m.Addr(), supervisor.MsgAnnounce, w, 64); err != nil {
				t.Fatal(err)
			}
			if i%100 == 99 { // within the manager's inbox
				waitFor(t, "announcements heard", func() bool { return m.Stats().Workers > i })
			}
		}
		deadline := time.After(5 * time.Second)
		for len(table.Workers) != rows {
			select {
			case msg := <-fe.Inbox():
				table, _ = msg.Body.(stub.Beacon)
			case <-deadline:
				t.Fatalf("no control-group beacon with %d rows", rows)
			}
		}
		for head.Seq != table.Seq {
			select {
			case msg := <-worker.Inbox():
				head, size = msg.Body.(stub.Beacon), msg.Size
			case <-deadline:
				t.Fatalf("no beacon-group head of seq %d", table.Seq)
			}
		}
		return head, table, size
	}
	encoded := func(b stub.Beacon) []byte {
		b.Seq = 0
		body, err := stub.EncodeBody(stub.MsgBeacon, b)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	head10, _, size10 := heads(10)
	head900, table900, size900 := heads(900)
	if len(head10.Workers) != 0 || len(head900.Workers) != 0 || head900.Manager != m.Addr() {
		t.Fatalf("beacon-group heads %+v and %+v, want the manager and no rows", head10, head900)
	}
	if size10 != size900 || !bytes.Equal(encoded(head10), encoded(head900)) {
		t.Fatalf("a worker's beacon weighs %d B at 10 workers and %d B at 900, want the same bytes", size10, size900)
	}
	if len(table900.Workers) != 900 {
		t.Fatalf("the control group's beacon carries %d rows, want 900", len(table900.Workers))
	}
	t.Logf("a worker's beacon: %d B at 10 and at 900 workers; the load table at 900: %d rows", size10, len(table900.Workers))
}

// fakeLoad is a hand-rolled worker: once it has heard a beacon it
// announces itself every tick to that manager with a fixed load.
func fakeLoad(ctx context.Context, net *san.Network, id string, load int) {
	wep := net.Endpoint(san.Addr{Node: "n1", Proc: id}, 64)
	wep.Join(stub.GroupControl)
	w := supervisor.Member{Addr: wep.Addr(), Kind: supervisor.KindWorker, Class: "echo", State: supervisor.StateUp, Load: load}
	var mgr san.Addr
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
			if b, ok := msg.Body.(stub.Beacon); ok {
				mgr = b.Manager
			}
		case <-tk.C:
			if !mgr.IsZero() {
				wep.Send(mgr, supervisor.MsgAnnounce, w, 64)
			}
		}
	}
}

func TestSpawnOnLoadThresholdWithDamping(t *testing.T) {
	net := newNet(tick)
	sup := startFakeSup(t, net, "node0", "")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, _ := startManager(t, net, "mgr", func(c *Config) {
		c.Policy = Policy{SpawnThreshold: 5, Damping: 10 * tick, ReapThreshold: -1}
	})

	// A fake overloaded worker announcing queue 50.
	go fakeLoad(ctx, net, "hot", 50)

	waitFor(t, "load spawn", func() bool { return sup.count(supervisor.OpSpawnWorker) >= 1 })
	// Damping: no flood of spawns immediately after.
	time.Sleep(5 * tick)
	if got := sup.count(supervisor.OpSpawnWorker); got > 2 {
		t.Fatalf("damping failed: %d spawns in half a damping window", got)
	}
	if m.Stats().Spawns == 0 {
		t.Fatal("stats did not record spawns")
	}
}

func TestSpawnRequestFromFrontEnd(t *testing.T) {
	net := newNet(tick)
	sup := startFakeSup(t, net, "node0", "")
	m, _ := startManager(t, net, "mgr", func(c *Config) { c.Policy.Damping = time.Millisecond })

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
	waitFor(t, "spawn", func() bool { return sup.count(supervisor.OpSpawnWorker) >= 1 })
	waitFor(t, "registered", func() bool { return m.Stats().Workers == 1 })
}

// TestReapOverflowWorkers: once the class sits idle past the damping
// window the overflow extra is retired with one OpReap to the
// supervisor owning its node; the dedicated slot survives, and the
// extra's graceful exit is not mistaken for a death.
func TestReapOverflowWorkers(t *testing.T) {
	net := newNet(calmBeat)
	sup := startFakeSup(t, net, "node0", "")
	m, _ := startManager(t, net, "mgr", func(c *Config) {
		c.Policy = Policy{SpawnThreshold: 1e9, Damping: 2 * tick, ReapThreshold: 0.5}
	})

	sup.slot("echo")
	ovf := sup.extra("echo", true)
	waitFor(t, "reap", func() bool { return m.Stats().Reaps == 1 })
	waitFor(t, "one worker left", func() bool { return m.Stats().Workers == 1 })
	holds(t, 10*tick, "one reap, nothing restarted", m, sup, func() bool {
		cmds := sup.received()
		return len(cmds) == 1 && cmds[0].Op == supervisor.OpReap && cmds[0].Target == ovf.ID && len(sup.live()) == 1
	})
}

func TestFrontEndProcessPeerRestart(t *testing.T) {
	net := newNet(tick)
	sup := startFakeSup(t, net, "node0", "")
	m, _ := startManager(t, net, "mgr", nil)

	fe := net.Endpoint(san.Addr{Node: "fe", Proc: "fe0"}, 64)
	fe.Send(m.Addr(), supervisor.MsgAnnounce, member(fe, supervisor.KindFrontEnd), 48)
	waitFor(t, "FE tracked", func() bool { return m.Stats().FrontEnds == 1 })
	// Silence: the manager has the FE restarted after its TTL.
	waitFor(t, "FE restart", func() bool { return m.Stats().FERestarts >= 1 })
	if c := sup.received()[0]; c.Op != supervisor.OpRestart || c.Target != "fe0" {
		t.Fatalf("supervisor saw %+v", c)
	}
}

// TestCacheProcessPeerRestart: cache services announce themselves on
// the control group; silence past CacheTTL triggers the manager's
// restart duty, exactly like front ends.
func TestCacheProcessPeerRestart(t *testing.T) {
	net := newNet(tick)
	sup := startFakeSup(t, net, "node0", "")
	m, _ := startManager(t, net, "mgr", nil)

	cache := net.Endpoint(san.Addr{Node: "c0", Proc: "cache0"}, 64)
	waitFor(t, "cache tracked", func() bool {
		// Announce until the manager (whose Run loop joins the group
		// asynchronously) has caught one.
		cache.Multicast(stub.GroupControl, supervisor.MsgAnnounce, member(cache, supervisor.KindCache), 48)
		return m.Stats().Caches == 1
	})
	// Silence: the manager has the cache restarted after CacheTTL.
	waitFor(t, "cache restart", func() bool { return m.Stats().CacheRestarts >= 1 })
	if c := sup.received()[0]; c.Op != supervisor.OpRestart || c.Target != "cache0" {
		t.Fatalf("supervisor saw %+v", c)
	}
}

func TestManagerRestartRebuildsSoftState(t *testing.T) {
	// §3.1.3: kill the manager, start a new one; workers re-register
	// on its beacons with no recovery protocol.
	net := newNet(calmBeat)
	sup := startFakeSup(t, net, "node0", "")
	m1, kill := startManager(t, net, "mgr", nil)
	sup.slot("echo")
	sup.slot("echo")
	waitFor(t, "initial registrations", func() bool { return m1.Stats().Workers == 2 })

	kill()
	net.DropNode("mgr")
	time.Sleep(3 * tick)

	m2, _ := startManager(t, net, "mgr2", nil)
	waitFor(t, "re-registration with new manager", func() bool { return m2.Stats().Workers == 2 })
	holds(t, 25*tick, "no command to a full-strength cluster", m2, sup, func() bool { return sup.count("") == 0 })
}

func TestPolicyPureFunctions(t *testing.T) {
	p := Policy{SpawnThreshold: 10, Damping: time.Minute, ReapThreshold: 1}
	now := time.Now()
	old := now.Add(-2 * time.Minute)
	if !p.ShouldSpawn(11, now, old) {
		t.Fatal("should spawn above threshold")
	}
	if p.ShouldSpawn(11, now, now.Add(-time.Second)) {
		t.Fatal("damping violated")
	}
	if p.ShouldSpawn(9, now, old) {
		t.Fatal("spawned below threshold")
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

// TestCollectorCarriesElectionAndCommands: /status and /metrics are the
// collector, so what an operator asks after a failover — who is primary,
// did it take over, are its commands landing, on how many supervisors —
// has to be there and has to agree with Stats(). A lone standby is left
// to take over, then to have one command refused and land the retry.
func TestCollectorCarriesElectionAndCommands(t *testing.T) {
	net := newNet(tick)
	sup := startFakeSup(t, net, "b-node0", "b-")
	sup.setMode("refuse")
	m, _ := startReplica(t, net, "a-mgr1", 1, true)

	collected := func() map[string]float64 { return net.Registry().Collect("manager") }
	waitFor(t, "standby hears the supervisor", func() bool { return collected()["supervisors"] == 1 })
	if got := collected(); got["primary"] != 0 || got["takeovers"] != 0 {
		t.Fatalf("standby publishes %v, want primary 0 and no takeover", got)
	}
	fe := net.Endpoint(san.Addr{Node: "b-node1", Proc: "fe0"}, 8)
	fe.Send(m.Addr(), supervisor.MsgAnnounce, member(fe, supervisor.KindFrontEnd), 48)

	waitFor(t, "takeover", func() bool { return collected()["primary"] == 1 })
	waitFor(t, "refused command", func() bool { return collected()["delegate_fails"] >= 1 })
	sup.setMode("ok")
	waitFor(t, "restart landed", func() bool { return collected()["fe_restarts"] >= 1 })
	// The silent front end is restarted again every TTL, so a counter may
	// move between the two reads; retry until one comparison held still.
	var st Stats
	var got map[string]float64
	waitFor(t, "collector equals Stats", func() bool {
		st, got = m.Stats(), collected()
		return got["fe_restarts"] == float64(st.FERestarts) && got["delegate_fails"] == float64(st.DelegateFails)
	})
	if _, stale := got["delegated"]; stale || !st.Primary || got["primary"] != 1 || st.Takeovers != 1 || got["takeovers"] != 1 ||
		got["epoch"] != float64(st.Epoch) || st.Supervisors != 1 || got["supervisors"] != 1 {
		t.Fatalf("collector %v\nstats %+v", got, st)
	}
}
