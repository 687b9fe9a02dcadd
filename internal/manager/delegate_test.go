package manager

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
	"repro/internal/vcache"
)

// scriptedSupervisor is a hand-driven supervisor endpoint: it
// heartbeats like the real daemon but answers commands from a script —
// absorb (no ack), refuse, or execute — so delegation failure modes
// are deterministic instead of timing-dependent.
type scriptedSupervisor struct {
	net    *san.Network
	addr   san.Addr
	prefix string
	ep     *san.Endpoint

	mu       sync.Mutex
	mode     string // "ok", "absorb", "refuse"
	roster   []supervisor.Row
	commands []supervisor.Command
}

func startScriptedSupervisor(t *testing.T, net *san.Network, node, prefix string) *scriptedSupervisor {
	t.Helper()
	s := &scriptedSupervisor{
		net:    net,
		addr:   san.Addr{Node: node, Proc: "sup"},
		prefix: prefix,
		mode:   "ok",
	}
	s.ep = net.Endpoint(s.addr, 64)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() {
		hb := time.NewTicker(tick)
		defer hb.Stop()
		s.hello()
		for {
			select {
			case <-ctx.Done():
				return
			case <-hb.C:
				s.hello()
			case msg, ok := <-s.ep.Inbox():
				if !ok {
					return
				}
				if msg.Kind != supervisor.MsgCmd {
					continue
				}
				cmd := msg.Body.(supervisor.Command)
				s.mu.Lock()
				s.commands = append(s.commands, cmd)
				mode := s.mode
				s.mu.Unlock()
				switch mode {
				case "absorb":
					// Supervisor died mid-restart: command received,
					// no ack ever sent.
				case "refuse":
					_ = s.ep.Respond(msg, supervisor.MsgAck, supervisor.Ack{ID: cmd.ID, Err: "busy"}, 64)
				default:
					_ = s.ep.Respond(msg, supervisor.MsgAck, supervisor.Ack{ID: cmd.ID, OK: true}, 64)
				}
			}
		}
	}()
	return s
}

func (s *scriptedSupervisor) hello() {
	s.mu.Lock()
	roster := append([]supervisor.Row(nil), s.roster...)
	s.mu.Unlock()
	s.ep.Multicast(stub.GroupControl, supervisor.MsgHello, supervisor.HelloMsg{
		Name: "sup", Addr: s.addr, Node: s.addr.Node, Prefix: s.prefix, Roster: roster,
	}, 64)
}

func (s *scriptedSupervisor) setRoster(rows ...supervisor.Row) {
	s.mu.Lock()
	s.roster = rows
	s.mu.Unlock()
}

func (s *scriptedSupervisor) setMode(mode string) {
	s.mu.Lock()
	s.mode = mode
	s.mu.Unlock()
}

func (s *scriptedSupervisor) received() []supervisor.Command {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]supervisor.Command(nil), s.commands...)
}

// startManagerWithPrefix boots a manager that believes it lives in the
// "a-" process, with a short delegation timeout for test speed.
func startManagerWithPrefix(t *testing.T, net *san.Network, sp Spawner) *Manager {
	t.Helper()
	m := New(Config{
		Node:           "a-mgr",
		Prefix:         "a-",
		Net:            net,
		Policy:         Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
		BeaconInterval: tick,
		WorkerTTL:      5 * tick,
		FETTL:          6 * tick,
		CmdTimeout:     5 * tick,
		Spawner:        sp,
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go m.Run(ctx)
	return m
}

// failingRestartSpawner is a spawner whose restarts always fail — the
// truthful local answer for a component hosted elsewhere.
type failingRestartSpawner struct {
	*testSpawner
}

func (s *failingRestartSpawner) Restart(name string) error {
	s.restarts.Add(1)
	return fmt.Errorf("%s is not hosted here", name)
}

// TestRemoteFERestartDelegatesToSupervisor: a front end heartbeating
// from another process's node prefix goes silent; the manager resolves
// the owning supervisor from its heartbeat table and delegates the
// restart over the SAN instead of erroring locally.
func TestRemoteFERestartDelegatesToSupervisor(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	m := startManagerWithPrefix(t, net, &failingRestartSpawner{testSpawner: sp})
	sup := startScriptedSupervisor(t, net, "b-node0", "b-")

	waitFor(t, "supervisor tracked", func() bool { return m.Stats().Supervisors == 1 })

	// One heartbeat from a remote front end, then silence.
	fe := net.Endpoint(san.Addr{Node: "b-node1", Proc: "fe0"}, 8)
	fe.Send(m.Addr(), stub.MsgFEHello, stub.FEHeartbeat{Name: "fe0", Addr: fe.Addr(), Node: "b-node1"}, 48)
	waitFor(t, "FE tracked", func() bool { return m.Stats().FrontEnds == 1 })

	waitFor(t, "delegated restart", func() bool { return m.Stats().Delegated >= 1 })
	if m.Stats().FERestarts == 0 {
		t.Fatal("delegated restart not counted as an FE restart")
	}
	cmds := sup.received()
	if len(cmds) == 0 || cmds[0].Op != supervisor.OpRestart || cmds[0].Target != "fe0" {
		t.Fatalf("supervisor saw %+v", cmds)
	}
}

// TestSupervisorDiesMidRestartManagerRedelegates: the first delegation
// is absorbed (supervisor crashed mid-restart, no ack); the manager
// counts the failure, tries the local fallback (which truthfully
// fails), and re-delegates on a later tick with the SAME command id —
// so a supervisor that did execute before dying would answer the retry
// from its idempotency cache rather than restarting twice.
func TestSupervisorDiesMidRestartManagerRedelegates(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	m := startManagerWithPrefix(t, net, &failingRestartSpawner{testSpawner: sp})
	sup := startScriptedSupervisor(t, net, "b-node0", "b-")
	sup.setMode("absorb")

	waitFor(t, "supervisor tracked", func() bool { return m.Stats().Supervisors == 1 })
	cache := net.Endpoint(san.Addr{Node: "b-node2", Proc: "cache0"}, 8)
	waitFor(t, "cache tracked", func() bool {
		cache.Multicast(stub.GroupControl, vcache.MsgHello,
			vcache.HelloMsg{Name: "cache0", Addr: cache.Addr(), Node: "b-node2"}, 48)
		return m.Stats().Caches == 1
	})

	// Let the cache expire; the absorbed delegation must register as a
	// failure (timeout + failed local fallback).
	waitFor(t, "delegation failure recorded", func() bool { return m.Stats().DelegateFails >= 1 })
	if m.Stats().Delegated != 0 {
		t.Fatalf("absorbed command counted as delegated: %+v", m.Stats())
	}

	// Supervisor comes back: the retry succeeds.
	sup.setMode("ok")
	waitFor(t, "re-delegation succeeded", func() bool { return m.Stats().Delegated >= 1 })
	if m.Stats().CacheRestarts == 0 {
		t.Fatal("cache restart not recorded")
	}

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

// TestNoSupervisorFallsBackToLocalRestart: with no supervisor covering
// the node, the manager keeps the old direct path — the degenerate
// single-process deployment needs no daemon round trip.
func TestNoSupervisorFallsBackToLocalRestart(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	m := startManagerWithPrefix(t, net, sp)

	fe := net.Endpoint(san.Addr{Node: "b-node1", Proc: "fe0"}, 8)
	fe.Send(m.Addr(), stub.MsgFEHello, stub.FEHeartbeat{Name: "fe0", Addr: fe.Addr(), Node: "b-node1"}, 48)
	waitFor(t, "FE tracked", func() bool { return m.Stats().FrontEnds == 1 })
	waitFor(t, "local restart", func() bool { return sp.restarts.Load() >= 1 })
	if st := m.Stats(); st.Delegated != 0 || st.FERestarts == 0 {
		t.Fatalf("stats %+v: want a local (non-delegated) restart", st)
	}
}

// TestFEHeartbeatsAreAddressKeyed: two processes each hosting an "fe0"
// must not interleave — the live one's heartbeats cannot mask the dead
// one's silence in the manager's table, and the dead one's restart
// cannot land on the live one: the local lever restarts by bare name, so
// while the peer's supervisor refuses, the incident is retried there and
// the manager process's own fe0 is left alone.
func TestFEHeartbeatsAreAddressKeyed(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick) // a local Restart("fe0") would succeed, and is counted
	defer sp.stopAll()
	m := startManagerWithPrefix(t, net, sp)
	supB := startScriptedSupervisor(t, net, "b-node0", "b-")
	supB.setMode("refuse")

	waitFor(t, "supervisor tracked", func() bool { return m.Stats().Supervisors == 1 })

	// Same name, two addresses: one local to the manager's process
	// ("a-"), one remote ("b-").
	feA := net.Endpoint(san.Addr{Node: "a-node1", Proc: "fe0"}, 8)
	feB := net.Endpoint(san.Addr{Node: "b-node1", Proc: "fe0"}, 8)
	hbA := func() {
		feA.Send(m.Addr(), stub.MsgFEHello, stub.FEHeartbeat{Name: "fe0", Addr: feA.Addr(), Node: "a-node1"}, 48)
	}
	hbA()
	feB.Send(m.Addr(), stub.MsgFEHello, stub.FEHeartbeat{Name: "fe0", Addr: feB.Addr(), Node: "b-node1"}, 48)
	waitFor(t, "both replicas tracked", func() bool { return m.Stats().FrontEnds == 2 })

	// B's replica goes silent while A's keeps heartbeating: the
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
	waitFor(t, "two refused delegations", func() bool { return m.Stats().DelegateFails >= 2 })
	if st := m.Stats(); sp.restarts.Load() != 0 || st.FERestarts != 0 || st.Delegated != 0 {
		t.Fatalf("%d local restarts of fe0 for the peer's dead fe0; stats %+v", sp.restarts.Load(), st)
	}
	supB.setMode("ok")
	waitFor(t, "dead replica restarted via its supervisor", func() bool { return m.Stats().Delegated >= 1 })
	for _, c := range supB.received() {
		if c.Op != supervisor.OpRestart || c.Target != "fe0" {
			t.Fatalf("supervisor saw %+v", c)
		}
	}
	// The live replica never stopped being tracked, and was never touched.
	if m.Stats().FrontEnds < 1 || sp.restarts.Load() != 0 {
		t.Fatalf("live replica: %d tracked, %d local restarts", m.Stats().FrontEnds, sp.restarts.Load())
	}
}

// TestRosterRowNeverHeardIsRestartedOnce: the roster is the desired
// state. A row that heartbeats is left alone; a row nobody ever heard
// gets one TTL of grace from the moment the roster names it, then
// exactly one restart through its supervisor. The restart moves it (its
// old node died): the roster now names it at the new address, it
// heartbeats from there, and the start still booked under the old
// address is dropped instead of firing again a TTL later.
func TestRosterRowNeverHeardIsRestartedOnce(t *testing.T) {
	net := san.NewNetwork(1)
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	m := startManagerWithPrefix(t, net, &failingRestartSpawner{testSpawner: sp})
	sup := startScriptedSupervisor(t, net, "b-node0", "b-")
	fe := supervisor.Row{Name: "fe0", Kind: supervisor.KindFrontEnd, Node: "b-node1"}
	cache := supervisor.Row{Name: "cache0", Kind: supervisor.KindCache, Node: "b-node2"}
	sup.setRoster(fe, cache, supervisor.Row{Name: "sup", Node: "b-node0"})
	named := time.Now()

	heartbeat := func(stop chan struct{}, kind string, r supervisor.Row) {
		ep := net.Endpoint(san.Addr{Node: r.Node, Proc: r.Name}, 8)
		tk := time.NewTicker(tick)
		defer tk.Stop()
		for {
			if kind == stub.MsgFEHello {
				ep.Multicast(stub.GroupControl, kind, stub.FEHeartbeat{Name: r.Name, Addr: ep.Addr(), Node: r.Node}, 48)
			} else {
				ep.Multicast(stub.GroupControl, kind, vcache.HelloMsg{Name: r.Name, Addr: ep.Addr(), Node: r.Node}, 48)
			}
			select {
			case <-stop:
				return
			case <-tk.C:
			}
		}
	}
	stop := make(chan struct{})
	defer close(stop)
	go heartbeat(stop, stub.MsgFEHello, fe)

	waitFor(t, "restart of the row nobody heard", func() bool { return len(sup.received()) >= 1 })
	if grace := time.Since(named); grace < 6*tick {
		t.Fatalf("restarted after %s, inside the %s grace a freshly named row is owed", grace, 6*tick)
	}
	cache.Node = "b-node3"
	sup.setRoster(fe, cache)
	go heartbeat(stop, vcache.MsgHello, cache)
	waitFor(t, "restart counted", func() bool { return m.Stats().CacheRestarts == 1 })

	time.Sleep(20 * tick) // three TTLs: time for a stale booking to fire again
	cmds := sup.received()
	if len(cmds) != 1 || cmds[0].Op != supervisor.OpRestart || cmds[0].Target != "cache0" {
		t.Fatalf("supervisor saw %+v, want exactly one restart of cache0", cmds)
	}
	if st := m.Stats(); st.FERestarts != 0 || st.CacheRestarts != 1 || st.Delegated != 1 {
		t.Fatalf("stats %+v, want one delegated cache restart and nothing else", st)
	}
}
