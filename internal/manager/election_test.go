package manager

import (
	"context"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
)

// startReplica boots one manager replica with election knobs.
func startReplica(t *testing.T, net *san.Network, node string, rank int, standby bool) (*Manager, context.CancelFunc) {
	t.Helper()
	return startManager(t, net, node, func(c *Config) { c.Rank, c.Standby = rank, standby })
}

// TestInitialEpochSeeding: a replica respawned with a known epoch
// high-water mark must claim past it (primary) or wait at it
// (standby) — otherwise its beacons would be dropped forever by stubs
// whose monotonic epoch checks saw the dead regime.
func TestInitialEpochSeeding(t *testing.T) {
	net := newNet(tick)
	p := New(Config{Node: "a", Net: net, InitialEpoch: 5})
	if !p.IsPrimary() || p.Epoch() != 6 {
		t.Fatalf("non-standby with InitialEpoch 5: primary=%v epoch=%d, want primary at 6", p.IsPrimary(), p.Epoch())
	}
	s := New(Config{Node: "b", Net: net, Standby: true, InitialEpoch: 5})
	if s.IsPrimary() || s.Epoch() != 5 {
		t.Fatalf("standby with InitialEpoch 5: primary=%v epoch=%d, want standby at 5", s.IsPrimary(), s.Epoch())
	}
}

// TestStandbySuppressesOutput: while a primary beacons, a standby
// replica sends nothing — but mirrors the primary's worker inventory
// from those beacons, so a later takeover starts at most one beacon
// interval behind.
func TestStandbySuppressesOutput(t *testing.T) {
	net := newNet(tick)
	sup := startFakeSup(t, net, "node0", "")
	primary, _ := startReplica(t, net, "mgrA", 0, false)
	standby, _ := startReplica(t, net, "mgrB", 1, true)

	sup.slot("echo")
	sup.slot("echo")
	waitFor(t, "registrations", func() bool { return primary.Stats().Workers == 2 })
	waitFor(t, "standby mirror", func() bool { return standby.Stats().Workers == 2 })

	// A dozen beacon intervals of coexistence: the standby must stay
	// silent and subordinate the whole time.
	time.Sleep(12 * tick)
	st := standby.Stats()
	if st.Primary || st.BeaconsSent != 0 || st.Takeovers != 0 {
		t.Fatalf("standby broke suppression: %+v", st)
	}
	if !primary.IsPrimary() || primary.Epoch() != 1 {
		t.Fatalf("primary deposed by its own standby: primary=%v epoch=%d", primary.IsPrimary(), primary.Epoch())
	}
}

// TestStandbyTakesOverAfterPrimarySilence is the failover story: the
// primary dies, the standby claims the next epoch after the election
// timeout, and the workers re-anchor on it via its very first beacon —
// no recovery protocol, exactly the paper's §3.1.3 discipline extended
// to elections.
func TestStandbyTakesOverAfterPrimarySilence(t *testing.T) {
	net := newNet(tick)
	sup := startFakeSup(t, net, "node0", "")
	primary, killPrimary := startReplica(t, net, "mgrA", 0, false)
	standby, _ := startReplica(t, net, "mgrB", 1, true)

	sup.slot("echo")
	waitFor(t, "registration", func() bool { return primary.Stats().Workers == 1 })
	waitFor(t, "standby mirror", func() bool { return standby.Stats().Workers == 1 })

	heard := standby.Stats().ReportsHandled // the worker's multicast announcements at boot reach standbys too
	killPrimary()
	waitFor(t, "takeover", func() bool { return standby.IsPrimary() })
	st := standby.Stats()
	if st.Epoch != 2 || st.Takeovers != 1 {
		t.Fatalf("takeover stats %+v, want epoch 2, 1 takeover", st)
	}
	// The worker saw a beacon from a manager address it did not know and
	// announced itself there — the standby's inventory is now first-hand,
	// not mirrored, and survives past the worker TTL.
	waitFor(t, "worker re-anchored", func() bool { return standby.Stats().ReportsHandled > heard })
	time.Sleep(6 * tick) // past WorkerTTL: only refreshed state survives
	if got := standby.Stats().Workers; got != 1 {
		t.Fatalf("worker did not re-anchor on the new primary: %d workers", got)
	}
	// The roster named the worker and it spoke up inside its grace TTL:
	// the new primary had nothing to restart.
	if n := sup.count(""); n != 0 {
		t.Fatalf("takeover issued %d commands against a healthy cluster: %+v", n, sup.received())
	}
}

// TestSplitClaimResolvesByLowestAddress: two replicas both believing
// they are primary at the same epoch (the dual-claim race after a
// partition heals) converge on exactly one — the lexicographically
// smaller address — and the loser steps down on the winner's beacon.
func TestSplitClaimResolvesByLowestAddress(t *testing.T) {
	net := newNet(tick)
	a, _ := startReplica(t, net, "mgrA", 0, false)
	b, _ := startReplica(t, net, "mgrB", 0, false)

	waitFor(t, "split resolution", func() bool { return a.IsPrimary() && !b.IsPrimary() })
	if st := b.Stats(); st.StepDowns != 1 {
		t.Fatalf("loser stats %+v, want exactly one step-down", st)
	}
	// The regime is stable: the loser stays standby while the winner
	// keeps beaconing.
	time.Sleep(8 * tick)
	if !a.IsPrimary() || b.IsPrimary() {
		t.Fatalf("split claim reopened: a=%v b=%v", a.IsPrimary(), b.IsPrimary())
	}
}

// TestPrimaryStepsDownOnHigherEpoch: a beacon carrying a newer epoch
// deposes the current primary unconditionally — the fencing rule that
// makes a partitioned ex-primary harmless the moment it rejoins.
func TestPrimaryStepsDownOnHigherEpoch(t *testing.T) {
	net := newNet(tick)
	m, _ := startReplica(t, net, "mgrA", 0, false)
	// The replica is "primary" from construction; wait for its Run loop
	// (first beacon) so it is actually listening on the control group.
	waitFor(t, "primary boot", func() bool { return m.Stats().BeaconsSent >= 1 })

	// The rival regime beacons continuously at epoch 7 — a one-shot
	// claim would let the deposed replica legitimately re-elect itself
	// after the election timeout, which is not what this test is about.
	rival := net.Endpoint(san.Addr{Node: "mgrZ", Proc: "manager"}, 16)
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		seq := uint64(0)
		tk := time.NewTicker(tick)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				seq++
				rival.Multicast(stub.GroupControl, stub.MsgBeacon, stub.Beacon{
					Manager: rival.Addr(), Seq: seq, Epoch: 7,
				}, 64)
			}
		}
	}()

	waitFor(t, "step-down", func() bool { return !m.IsPrimary() })
	st := m.Stats()
	if st.Epoch != 7 || st.StepDowns != 1 {
		t.Fatalf("deposed stats %+v, want epoch 7, 1 step-down", st)
	}
	// Stale beacons from a long-dead regime are ignored outright.
	rival.Multicast(stub.GroupControl, stub.MsgBeacon, stub.Beacon{
		Manager: san.Addr{Node: "mgrY", Proc: "manager"}, Seq: 1, Epoch: 3,
	}, 64)
	time.Sleep(4 * tick)
	if m.Epoch() != 7 {
		t.Fatalf("stale beacon rewound the epoch to %d", m.Epoch())
	}
	if m.IsPrimary() {
		t.Fatal("deposed replica reclaimed primacy while the epoch-7 regime is beaconing")
	}
}
