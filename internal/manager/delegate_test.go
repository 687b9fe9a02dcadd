package manager

import (
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
)

// startManagerA boots a manager living in the "a-" process.
func startManagerA(t *testing.T, net *san.Network) *Manager {
	t.Helper()
	m, _ := startManager(t, net, "a-mgr", nil)
	return m
}

// TestRemoteFERestartDelegatesToSupervisor: a front end announcing
// itself from another process's node prefix goes silent; the manager
// resolves the owning supervisor from its hello table and sends it the
// restart over the SAN.
func TestRemoteFERestartDelegatesToSupervisor(t *testing.T) {
	net := newNet(tick)
	m := startManagerA(t, net)
	sup := startFakeSup(t, net, "b-node0", "b-")

	waitFor(t, "supervisor tracked", func() bool { return m.Stats().Supervisors == 1 })

	// One announcement from a remote front end, then silence.
	fe := net.Endpoint(san.Addr{Node: "b-node1", Proc: "fe0"}, 8)
	fe.Send(m.Addr(), supervisor.MsgAnnounce, member(fe, supervisor.KindFrontEnd), 48)
	waitFor(t, "FE tracked", func() bool { return m.Stats().FrontEnds == 1 })

	waitFor(t, "restart", func() bool { return m.Stats().FERestarts >= 1 })
	cmds := sup.received()
	if len(cmds) == 0 || cmds[0].Op != supervisor.OpRestart || cmds[0].Target != "fe0" {
		t.Fatalf("supervisor saw %+v", cmds)
	}
}

// TestSupervisorDiesMidRestartManagerRedelegates: the first command is
// absorbed (supervisor crashed mid-restart, no ack); the manager counts
// the failure and re-issues on a later tick with the SAME command id —
// so a supervisor that did execute before dying would answer the retry
// from its idempotency cache rather than restarting twice.
func TestSupervisorDiesMidRestartManagerRedelegates(t *testing.T) {
	net := newNet(tick)
	m := startManagerA(t, net)
	sup := startFakeSup(t, net, "b-node0", "b-")
	sup.setMode("absorb")

	waitFor(t, "supervisor tracked", func() bool { return m.Stats().Supervisors == 1 })
	cache := net.Endpoint(san.Addr{Node: "b-node2", Proc: "cache0"}, 8)
	waitFor(t, "cache tracked", func() bool {
		cache.Multicast(stub.GroupControl, supervisor.MsgAnnounce, member(cache, supervisor.KindCache), 48)
		return m.Stats().Caches == 1
	})

	// Let the cache expire; the absorbed command must register as a
	// failure (timeout).
	waitFor(t, "command failure recorded", func() bool { return m.Stats().DelegateFails >= 1 })
	if m.Stats().CacheRestarts != 0 {
		t.Fatalf("absorbed command counted as a restart: %+v", m.Stats())
	}

	// Supervisor comes back: the retry succeeds.
	sup.setMode("ok")
	waitFor(t, "retry succeeded", func() bool { return m.Stats().CacheRestarts >= 1 })

	// Every attempt for the incident carried the same command id.
	cmds := sup.received()
	if len(cmds) < 2 {
		t.Fatalf("only %d commands observed, want the retry too", len(cmds))
	}
	for _, c := range cmds {
		if c.ID != cmds[0].ID {
			t.Fatalf("retry minted a new command id: %+v", cmds)
		}
		if c.Op != supervisor.OpRestart || c.Target != "cache0" {
			t.Fatalf("unexpected command %+v", c)
		}
	}
}

// TestNoOwningSupervisorIsAFailureUntilOneAppears: the manager has no
// lever of its own. With no supervisor covering a dead component's node
// the incident fails and is retried; when the owner's hello arrives the
// retry lands there, under the incident's one command id.
func TestNoOwningSupervisorIsAFailureUntilOneAppears(t *testing.T) {
	net := newNet(tick)
	m := startManagerA(t, net)

	fe := net.Endpoint(san.Addr{Node: "b-node1", Proc: "fe0"}, 8)
	fe.Send(m.Addr(), supervisor.MsgAnnounce, member(fe, supervisor.KindFrontEnd), 48)
	waitFor(t, "FE tracked", func() bool { return m.Stats().FrontEnds == 1 })
	waitFor(t, "ownerless incident fails", func() bool { return m.Stats().DelegateFails >= 1 })
	if st := m.Stats(); st.FERestarts != 0 {
		t.Fatalf("stats %+v: restarted something with no supervisor to do it", st)
	}
	sup := startFakeSup(t, net, "b-node0", "b-")
	waitFor(t, "restart through the late supervisor", func() bool { return m.Stats().FERestarts == 1 })
	if c := sup.received()[0]; c.Op != supervisor.OpRestart || c.Target != "fe0" || c.ID != 1 {
		t.Fatalf("supervisor saw %+v, want the restart of fe0 under the incident's first id", c)
	}
}

// TestFEAnnouncementsAreAddressKeyed: two processes each hosting an "fe0"
// must not interleave — the live one's announcements cannot mask the dead
// one's silence in the manager's table, and the dead one's restart
// cannot land on the live one: supervisors restart by bare name, so
// while the peer's supervisor refuses, the incident is retried there and
// the manager process's own supervisor, whose fe0 is fine, hears nothing.
func TestFEAnnouncementsAreAddressKeyed(t *testing.T) {
	net := newNet(tick)
	m := startManagerA(t, net)
	supA := startFakeSup(t, net, "a-node0", "a-")
	supB := startFakeSup(t, net, "b-node0", "b-")
	supB.setMode("refuse")

	waitFor(t, "supervisors tracked", func() bool { return m.Stats().Supervisors == 2 })

	// Same name, two addresses: one local to the manager's process
	// ("a-"), one remote ("b-").
	feA := net.Endpoint(san.Addr{Node: "a-node1", Proc: "fe0"}, 8)
	feB := net.Endpoint(san.Addr{Node: "b-node1", Proc: "fe0"}, 8)
	hbA := func() {
		feA.Send(m.Addr(), supervisor.MsgAnnounce, member(feA, supervisor.KindFrontEnd), 48)
	}
	hbA()
	feB.Send(m.Addr(), supervisor.MsgAnnounce, member(feB, supervisor.KindFrontEnd), 48)
	waitFor(t, "both replicas tracked", func() bool { return m.Stats().FrontEnds == 2 })

	// B's replica goes silent while A's keeps announcing: the
	// remote supervisor must still see the restart.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tk := time.NewTicker(tick)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				hbA()
			}
		}
	}()
	waitFor(t, "two refused commands", func() bool { return m.Stats().DelegateFails >= 2 })
	if st := m.Stats(); supA.count("") != 0 || st.FERestarts != 0 {
		t.Fatalf("%d commands to the live fe0's supervisor for the peer's dead fe0; stats %+v", supA.count(""), st)
	}
	supB.setMode("ok")
	waitFor(t, "dead replica restarted via its supervisor", func() bool { return m.Stats().FERestarts >= 1 })
	for _, c := range supB.received() {
		if c.Op != supervisor.OpRestart || c.Target != "fe0" {
			t.Fatalf("supervisor saw %+v", c)
		}
	}
	// The live replica never stopped being tracked, and was never touched.
	if m.Stats().FrontEnds < 1 || supA.count("") != 0 {
		t.Fatalf("live replica: %d tracked, %d commands to its supervisor", m.Stats().FrontEnds, supA.count(""))
	}
}

// TestRosterRowNeverHeardIsRestartedOnce: the roster is the desired
// state. A row that announces itself is left alone; a row nobody ever heard
// gets one TTL of grace from the moment the roster names it, then
// exactly one restart through its supervisor. The restart moves it (its
// old node died): the roster now names it at the new address, it
// announces itself from there, and the start still booked under the old
// address is dropped instead of firing again a TTL later.
func TestRosterRowNeverHeardIsRestartedOnce(t *testing.T) {
	net := newNet(tick)
	m := startManagerA(t, net)
	sup := startFakeSup(t, net, "b-node0", "b-")
	fe := supervisor.Row{Name: "fe0", Kind: supervisor.KindFrontEnd, Node: "b-node1"}
	cache := supervisor.Row{Name: "cache0", Kind: supervisor.KindCache, Node: "b-node2"}
	sup.setRoster(fe, cache, supervisor.Row{Name: "sup", Node: "b-node0"})
	named := time.Now()

	heartbeat := func(stop chan struct{}, r supervisor.Row) {
		ep := net.Endpoint(san.Addr{Node: r.Node, Proc: r.Name}, 8)
		tk := time.NewTicker(tick)
		defer tk.Stop()
		for {
			ep.Multicast(stub.GroupControl, supervisor.MsgAnnounce, member(ep, r.Kind), 48)
			select {
			case <-stop:
				return
			case <-tk.C:
			}
		}
	}
	stop := make(chan struct{})
	defer close(stop)
	go heartbeat(stop, fe)

	waitFor(t, "restart of the row nobody heard", func() bool { return len(sup.received()) >= 1 })
	if grace := time.Since(named); grace < 6*tick {
		t.Fatalf("restarted after %s, inside the %s grace a freshly named row is owed", grace, 6*tick)
	}
	cache.Node = "b-node3"
	sup.setRoster(fe, cache)
	go heartbeat(stop, cache)
	waitFor(t, "restart counted", func() bool { return m.Stats().CacheRestarts == 1 })

	time.Sleep(20 * tick) // three TTLs: time for a stale booking to fire again
	cmds := sup.received()
	if len(cmds) != 1 || cmds[0].Op != supervisor.OpRestart || cmds[0].Target != "cache0" {
		t.Fatalf("supervisor saw %+v, want exactly one restart of cache0", cmds)
	}
	if st := m.Stats(); st.FERestarts != 0 || st.CacheRestarts != 1 || st.WorkerRestarts != 0 {
		t.Fatalf("stats %+v, want one cache restart and nothing else", st)
	}
}
