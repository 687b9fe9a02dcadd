package manager

import (
	"slices"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/supervisor"
)

// The roster is the desired state for workers exactly as for front ends
// and caches: these tests drive the manager through a fake supervisor
// endpoint and check that every configured slot is kept alive by name,
// and nothing else is.

// TestRosterWorkerNeverHeardIsRestartedOnce: a slot its roster names
// and nobody ever heard gets one WorkerTTL of grace, then exactly one
// restart; once it registers the booking is dropped for good.
func TestRosterWorkerNeverHeardIsRestartedOnce(t *testing.T) {
	net := newNet(calmBeat)
	sup := startFakeSup(t, net, "node0", "")
	m, _ := startManager(t, net, "mgr", nil)

	live := sup.slot("echo")
	dead := sup.slot("echo")
	sup.crash(dead.ID) // before the manager's first beacon reached it
	waitFor(t, "the live slot registers", func() bool { return m.Stats().Workers >= 1 })
	waitFor(t, "the silent slot is restarted and registers", func() bool {
		st := m.Stats()
		return st.WorkerRestarts == 1 && st.Workers == 2
	})
	holds(t, 25*tick, "one restart of the slot nobody heard", m, sup, func() bool {
		cmds := sup.received()
		return len(cmds) == 1 && cmds[0].Op == supervisor.OpRestart && cmds[0].Target == dead.ID && m.Stats().Workers == 2
	})
	if !slices.Contains(sup.live(), live.ID) {
		t.Fatalf("the healthy slot %s was touched: live %v", live.ID, sup.live())
	}
}

// TestRespawnedManagerRestoresWorkerFromRoster: a worker dies in the
// same instant as the only manager that had ever heard it. Nothing
// learned survives the manager, and nothing needs to: its successor
// reads the slot off the roster and restarts it after one TTL.
func TestRespawnedManagerRestoresWorkerFromRoster(t *testing.T) {
	net := newNet(calmBeat)
	sup := startFakeSup(t, net, "node0", "")
	m1, kill := startManager(t, net, "mgr", nil)
	w1 := sup.slot("echo")
	sup.slot("echo")
	waitFor(t, "registrations", func() bool { return m1.Stats().Workers == 2 })

	kill()
	net.DropNode("mgr")
	sup.crash(w1.ID)

	m2, _ := startManager(t, net, "mgr2", nil)
	waitFor(t, "full strength under the new manager", func() bool {
		return m2.Stats().Workers == 2 && len(sup.live()) == 2
	})
	cmds := sup.received()
	if len(cmds) != 1 || cmds[0].Op != supervisor.OpRestart || cmds[0].Target != w1.ID || cmds[0].Origin != m2.Addr().String() {
		t.Fatalf("supervisor saw %+v, want one restart of %s from the new manager", cmds, w1.ID)
	}
}

// TestFalselyExpiredWorkerHasNoTwin: a partition hides a healthy worker
// from the manager for longer than its TTL. The restart it earns is
// stop-then-start under its own name, so when the partition heals the
// class is at its configured strength — not one above it.
func TestFalselyExpiredWorkerHasNoTwin(t *testing.T) {
	net := newNet(calmBeat)
	sup := startFakeSup(t, net, "node0", "")
	m, _ := startManager(t, net, "mgr", nil)
	w1 := sup.slot("echo")
	sup.slot("echo")
	waitFor(t, "registrations", func() bool { return m.Stats().Workers == 2 })

	net.Partition(map[string]int{w1.Node: 1})
	waitFor(t, "restart of the hidden worker", func() bool { return m.Stats().WorkerRestarts >= 1 })
	net.Heal()
	waitFor(t, "it registers again", func() bool { return m.Stats().Workers == 2 })
	holds(t, 10*tick, "exactly the configured workers, under their own ids", m, sup, func() bool {
		return len(sup.live()) == 2 && m.Stats().Workers == 2 && sup.count(supervisor.OpSpawnWorker) == 0
	})
}

// TestDeadExtraIsNotRestarted: a cold-start extra that crashes leaves
// its roster; the manager books its silence, finds no row, and lets it
// go. The configured slot beside it is untouched.
func TestDeadExtraIsNotRestarted(t *testing.T) {
	net := newNet(calmBeat)
	sup := startFakeSup(t, net, "node0", "")
	m, _ := startManager(t, net, "mgr", nil)
	sup.slot("echo")
	extra := sup.extra("echo", false)
	waitFor(t, "registrations", func() bool { return m.Stats().Workers == 2 })

	sup.crash(extra.ID)
	waitFor(t, "the extra expires", func() bool { return m.Stats().Workers == 1 })
	holds(t, 15*tick, "no command for a dead extra", m, sup, func() bool {
		return sup.count("") == 0 && m.Stats().Workers == 1
	})
}

// TestGoodbyeDuringRestartDoesNotPark: a falsely expired worker is heard
// again while its restart is in flight, the restart's stop half makes it
// say goodbye (down), and the start half then fails. That goodbye ends
// nothing: the row stays booked, the incident is retried under its id,
// and the slot comes back — left down, it would have stayed down for good.
func TestGoodbyeDuringRestartDoesNotPark(t *testing.T) {
	net := newNet(tick)
	sup := startFakeSup(t, net, "node0", "")
	m, _ := startManager(t, net, "mgr", func(c *Config) { c.CmdTimeout = 30 * tick })
	w := sup.slot("echo")
	waitFor(t, "registration", func() bool { return m.Stats().Workers == 1 })

	sup.setMode("absorb") // the command is in flight until CmdTimeout, then counts as failed
	sup.crash(w.ID)
	waitFor(t, "restart issued", func() bool { return sup.count(supervisor.OpRestart) == 1 })
	regs := m.Stats().Registrations
	old := net.Endpoint(san.Addr{Node: w.Node, Proc: "old-instance"}, 8)
	up := supervisor.Member{Addr: w.Addr, Kind: supervisor.KindWorker, Class: w.Class, State: supervisor.StateUp}
	down := up
	down.State = supervisor.StateDown
	old.Send(m.Addr(), supervisor.MsgAnnounce, up, 64)
	old.Send(m.Addr(), supervisor.MsgAnnounce, down, 64)
	waitFor(t, "heard again, then gone", func() bool {
		st := m.Stats()
		return st.Registrations == regs+1 && st.Workers == 0
	})

	sup.setMode("ok")
	waitFor(t, "the failed restart is retried and the slot is back", func() bool {
		st := m.Stats()
		return st.WorkerRestarts == 1 && st.Workers == 1 && st.DelegateFails >= 1
	})
	for _, c := range sup.received() {
		if c.Op != supervisor.OpRestart || c.Target != w.ID || c.ID != sup.received()[0].ID {
			t.Fatalf("supervisor saw %+v, want retries of one restart incident", sup.received())
		}
	}
}

// TestLateTickJudgesNobody: the primary stands still for longer than
// WorkerTTL and hears nothing of what it missed (the worker's reports
// are dropped meanwhile, as they would be had the whole process stood
// still). The tick it wakes up on is late, so it judges nobody's
// silence; by the next one, a full interval later, the worker has
// reported. On-time ticks reconcile as before: a real death is restarted.
func TestLateTickJudgesNobody(t *testing.T) {
	net := newNet(12 * tick) // a worker TTL of 60 ticks
	sup := startFakeSup(t, net, "node0", "")
	m, _ := startManager(t, net, "mgr", nil)
	w := sup.slot("echo")
	waitFor(t, "registration", func() bool { return m.Stats().Workers == 1 })

	m.mu.Lock() // the receive loop blocks at its next tick
	net.Partition(map[string]int{w.Node: 1})
	time.Sleep(100 * tick)
	// The process wakes: the worker is reachable again 2 ticks before
	// the late tick is served, and announces within a beat of that — so
	// before the next tick, whatever its phase. One announcing inside
	// those 2 ticks waits in the inbox and is heard before the late tick.
	net.Heal()
	time.Sleep(2 * tick)
	m.mu.Unlock()
	holds(t, 60*tick, "a manager that was not listening restarts nobody", m, sup, func() bool {
		return sup.count("") == 0 && m.Stats().Workers == 1
	})

	sup.crash(w.ID)
	waitFor(t, "a real death is still restarted", func() bool { return m.Stats().WorkerRestarts == 1 })
}

// TestStandbyActsFromRostersAlone: the primary and a slot die together.
// The standby was told nothing about what should run — beacons carry
// load hints, not a worker count — and needs nothing: it hears the same
// rosters, takes over, and restarts the missing slot under its own epoch.
func TestStandbyActsFromRostersAlone(t *testing.T) {
	net := newNet(calmBeat)
	sup := startFakeSup(t, net, "node0", "")
	primary, killPrimary := startManager(t, net, "mgrA", nil)
	standby, _ := startManager(t, net, "mgrB", func(c *Config) { c.Rank, c.Standby = 1, true })
	w1 := sup.slot("echo")
	sup.slot("echo")
	waitFor(t, "registrations", func() bool { return primary.Stats().Workers == 2 })
	waitFor(t, "standby mirror", func() bool { return standby.Stats().Workers == 2 })

	killPrimary()
	sup.crash(w1.ID)
	waitFor(t, "takeover", func() bool { return standby.IsPrimary() })
	waitFor(t, "full strength under the new primary", func() bool {
		st := standby.Stats()
		return st.WorkerRestarts == 1 && st.Workers == 2 && len(sup.live()) == 2
	})
	cmds := sup.received()
	if len(cmds) != 1 || cmds[0].Target != w1.ID || cmds[0].Epoch != 2 || cmds[0].Origin != standby.Addr().String() {
		t.Fatalf("supervisor saw %+v, want one restart of %s from the standby at epoch 2", cmds, w1.ID)
	}
}
