package core

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/san"
	"repro/internal/supervisor"
)

// TestSupervisorWiredIntoEveryRoleSet: a plain single-process system
// runs a supervisor daemon, the manager tracks its hello, and the
// Host adapter resolves every locally hosted component kind.
func TestSupervisorWiredIntoEveryRoleSet(t *testing.T) {
	s := startTranSend(t, nil)

	sup := s.Supervisor()
	if sup == nil {
		t.Fatal("no supervisor daemon")
	}
	if sup.Prefix() != "" {
		t.Fatalf("single-process supervisor prefix %q", sup.Prefix())
	}
	waitFor(t, "manager tracks the supervisor", func() bool {
		return s.Manager().Stats().Supervisors >= 1
	})
	hb, ok := s.Manager().SupervisorFor("node0")
	if !ok || hb.Addr != sup.Addr() {
		t.Fatalf("SupervisorFor(node0) = %+v ok=%v, want %v", hb, ok, sup.Addr())
	}

	// Addr covers every registered kind.
	workers := s.Workers()
	if len(workers) == 0 {
		t.Fatal("no workers")
	}
	for _, name := range []string{workers[0], "fe0", "cache0", "manager", "monitor", "sup", "obsrep"} {
		if addr, ok := s.Addr(name); !ok || addr.Node == "" || !strings.HasPrefix(addr.Proc, name) {
			t.Fatalf("Addr(%s) = %v ok=%v", name, addr, ok)
		}
	}
	if _, ok := s.Addr("nonesuch"); ok {
		t.Fatal("unknown component resolved")
	}
}

// TestKillComponentByName: Kill crashes any registered component by
// name — the lever behind cmd/node's /kill and the supervisor's kill
// op — and whoever watches that kind brings it back: the manager has a
// worker, a cache and a front end restarted by name, the election
// replaces a primary manager. Nobody watches the edge; an explicit
// Restart returns it to the same public address. Unknown names refuse.
func TestKillComponentByName(t *testing.T) {
	s := startTranSend(t, func(c *Config) {
		c.Seed = 2
		c.Managers = 2
		c.EdgeListen = "127.0.0.1:0"
	})
	if !s.WaitReady(10 * time.Second) {
		t.Fatal("system not ready")
	}
	waitForWorkers(t, s, 3)
	// Supervision must be live before the kill: the manager can only
	// infer the death of a component it has heard from.
	waitFor(t, "cache supervision live", func() bool {
		return s.Manager().Stats().Caches >= 2
	})

	worker := s.Workers()[0]
	primary := s.Manager()
	door := s.Edge().HTTPAddr()
	live := func(kind Kind, name string) bool {
		return slices.Contains(s.Names(kind), name)
	}
	for _, c := range []struct {
		name string
		kind Kind
		back func() bool
	}{
		{worker, KindWorker, func() bool {
			return live(KindWorker, worker) && s.Manager().Stats().Workers == 3 && s.Manager().Stats().WorkerRestarts >= 1
		}},
		{"cache0", KindCache, func() bool {
			return live(KindCache, "cache0") && s.Manager().Stats().CacheRestarts >= 1
		}},
		{"fe0", KindFrontEnd, func() bool {
			return s.FrontEnds()[0].Running() && s.Manager().Stats().FERestarts >= 1
		}},
		// A singleton carries no kind; Names("") lists every live component.
		{"edge", "", func() bool { return s.Edge().Running() && s.Edge().HTTPAddr() == door }},
		{"manager", KindManager, func() bool {
			m := s.Manager()
			return m != primary && m.IsPrimary() && m.Epoch() > primary.Epoch()
		}},
	} {
		if _, ok := s.Addr(c.name); !ok {
			t.Fatalf("%s: Addr does not resolve what Kill is about to", c.name)
		}
		if err := s.Kill(c.name); err != nil {
			t.Fatalf("kill %s: %v", c.name, err)
		}
		if live(c.kind, c.name) {
			t.Fatalf("%s still listed live after Kill", c.name)
		}
		if c.name == "edge" {
			if err := s.Restart(c.name); err != nil {
				t.Fatalf("restart %s: %v", c.name, err)
			}
		}
		waitFor(t, c.name+" back", c.back)
	}
	if err := s.Kill("nonesuch"); err == nil {
		t.Fatal("killed a component that does not exist")
	}
	if err := s.Restart("nonesuch"); err == nil {
		t.Fatal("restarted a component that does not exist")
	}
}

// TestEveryRestartIsOneSupervisorCommand: in one process as across
// many, the manager's only lever is its supervisor. Killing a front end,
// a cache and a configured worker costs exactly one command each, and
// the supervisor's count equals the sum of the manager's restart
// counters — there is no second path for a restart to take.
func TestEveryRestartIsOneSupervisorCommand(t *testing.T) {
	s := startTranSend(t, func(c *Config) { c.Seed = 6 })
	waitForWorkers(t, s, 3)
	waitFor(t, "cache supervision live", func() bool { return s.Manager().Stats().Caches >= 2 })
	before := s.Supervisor().Stats().Commands

	worker := s.Workers()[0]
	for _, name := range []string{"fe0", "cache0", worker} {
		if err := s.Kill(name); err != nil {
			t.Fatalf("kill %s: %v", name, err)
		}
	}
	waitFor(t, "all three back", func() bool {
		st := s.Manager().Stats()
		return st.FERestarts == 1 && st.CacheRestarts == 1 && st.WorkerRestarts == 1 &&
			st.Workers == 3 && st.FrontEnds == 1 && st.Caches == 2 && slices.Contains(s.Workers(), worker)
	})
	time.Sleep(10 * tick) // a second command for any of them would have gone out by now
	st, sup := s.Manager().Stats(), s.Supervisor().Stats()
	if got := sup.Commands - before; got != st.FERestarts+st.CacheRestarts+st.WorkerRestarts || got != 3 || st.DelegateFails != 0 || sup.Failures != 0 {
		t.Fatalf("%d supervisor commands for manager stats %+v (supervisor %+v)", got, st, sup)
	}
}

// TestWorkerTableHoldsNoCorpses: a configured worker that dies without
// Kill or ReapWorker — here its node is powered off under it — leaves
// Workers() through the exit observer, stays in the roster, and is
// restarted under its own name on another node. A dead extra is a
// corpse nobody keeps: it leaves the roster and is not brought back. A
// late exit notice for an instance that a same-id Restart has already
// replaced retires nothing.
func TestWorkerTableHoldsNoCorpses(t *testing.T) {
	s := startTranSend(t, func(c *Config) { c.Seed = 5 })
	waitForWorkers(t, s, 3)

	victim := s.Workers()[0]
	addr, _ := s.Addr(victim)
	if err := s.Cluster.KillNode(addr.Node); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(s.Workers(), victim) || !slices.ContainsFunc(s.Roster(), func(r supervisor.Row) bool { return r.Name == victim }) {
		t.Fatalf("dead slot %s: live %v, roster %v", victim, s.Workers(), s.Roster())
	}
	waitFor(t, "slot restarted by name off the dead node", func() bool {
		moved, ok := s.Addr(victim)
		return slices.Contains(s.Workers(), victim) && ok && moved.Node != addr.Node
	})
	waitForWorkers(t, s, 3)

	extra := spawnExtra(t, s, strings.Split(victim, ".")[0])
	waitForWorkers(t, s, 4)
	if err := s.Kill(extra); err != nil {
		t.Fatal(err)
	}
	if s.WorkerStub(extra) != nil || slices.ContainsFunc(s.Roster(), func(r supervisor.Row) bool { return r.Name == extra }) {
		t.Fatalf("dead extra %s still resolves or is still in the roster", extra)
	}
	waitFor(t, "the extra expires at the manager", func() bool { return s.Manager().Stats().Workers == 3 })
	time.Sleep(10 * tick)
	if st := s.Manager().Stats(); st.WorkerRestarts != 1 || len(s.Workers()) != 3 {
		t.Fatalf("dead extra was brought back: %v, manager %+v", s.Workers(), st)
	}

	// Restart racing the old instance's exit: hammer same-id restarts
	// while a reader lists the table, then replay the old instance's
	// exit notice by hand.
	id := s.Workers()[0]
	old, _ := s.Addr(id)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Workers()
				s.WorkerStub(id)
			}
		}
	}()
	for i := 0; i < 20; i++ {
		before := s.WorkerStub(id)
		if err := s.Restart(id); err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		if after := s.WorkerStub(id); after == nil || after == before {
			t.Fatalf("restart %d: stub %p -> %p", i, before, after)
		}
	}
	close(stop)
	wg.Wait()
	s.onExit(cluster.ExitInfo{Node: old.Node, Proc: id})
	if !slices.Contains(s.Workers(), id) || s.WorkerStub(id) == nil {
		t.Fatalf("late exit of a replaced instance retired the live entry %s", id)
	}
}

// TestSupervisorRespawnedByWatchdog: the supervisor is not the one
// component nobody supervises — killing it brings a replacement at
// the same address.
func TestSupervisorRespawnedByWatchdog(t *testing.T) {
	s := startTranSend(t, func(c *Config) { c.Seed = 3 })
	// The daemon must be live (heartbeating) before the crash, or the
	// drop races its startup re-registration.
	waitFor(t, "supervisor heartbeating", func() bool {
		return s.Manager().Stats().Supervisors >= 1 && s.Supervisor().Stats().Hellos >= 1
	})
	sup := s.Supervisor()
	addr := sup.Addr()
	s.Net.Drop(addr) // crash: endpoint gone, Run exits on closed inbox
	waitFor(t, "supervisor respawned", func() bool {
		cur := s.Supervisor()
		return cur != sup && s.Net.Lookup(addr)
	})
	if got := s.Supervisor().Addr(); got != addr {
		t.Fatalf("respawned supervisor moved: %v != %v", got, addr)
	}
	// The replacement serves commands: the full circle.
	waitFor(t, "replacement heartbeating", func() bool {
		return s.Supervisor().Stats().Hellos >= 1
	})
}

// TestRestartWorkerKeepsIdentity: the hot-upgrade restart respawns the
// same worker id (fresh stub, same address) and the worker returns to
// service — the per-worker step UpgradeWave is built from.
func TestRestartWorkerKeepsIdentity(t *testing.T) {
	s := startTranSend(t, func(c *Config) { c.Seed = 4 })
	waitForWorkers(t, s, 3)

	victim := s.Workers()[0]
	before := s.WorkerStub(victim)
	addr, _ := s.Addr(victim)
	var hb supervisor.HelloMsg
	waitFor(t, "manager tracks the supervisor", func() (ok bool) {
		hb, ok = s.Manager().SupervisorFor(addr.Node)
		return ok
	})
	client := s.Net.Endpoint(san.Addr{Node: addr.Node, Proc: "upgrade-client"}, 8)
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := client.Call(ctx, hb.Addr, supervisor.MsgCmd, supervisor.Command{
		ID: 1, Origin: client.Addr().String(), Op: supervisor.OpRestart, Target: victim,
	}, 64)
	if ack, _ := resp.Body.(supervisor.Ack); err != nil || !ack.OK {
		t.Fatalf("restart: ack=%+v err=%v", ack, err)
	}
	after := s.WorkerStub(victim)
	if after == nil || after == before {
		t.Fatal("worker was not replaced by a fresh stub")
	}
	if after.Addr() != before.Addr() {
		t.Fatalf("restart moved the worker: %v != %v", after.Addr(), before.Addr())
	}
	waitForWorkers(t, s, 3) // the upgraded instance re-registers
}
