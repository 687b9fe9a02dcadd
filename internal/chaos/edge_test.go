package chaos

// Front-door scenarios: the edge must make FE replicas one service —
// a killed FE is ejected and readmitted with zero client-visible
// failures, and draining plus a rolling upgrade stay invisible from
// outside the cluster. These drive real HTTP through the edge
// listener rather than in-process System.Request calls.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// TestScenarioEdgeFEKillUnderLoad: SIGKILL one of two front ends with
// HTTP load flowing through the edge. The edge must eject the dead
// backend after consecutive failures, the manager's process-peer duty
// respawns the FE, and a half-open probe readmits it — with zero
// failed client requests end to end (first-attempt errors retry on
// the surviving replica under the retry budget). Same run-twice
// determinism contract as every scripted schedule.
func TestScenarioEdgeFEKillUnderLoad(t *testing.T) {
	if testing.Short() {
		// Load-driven and calibrated to the harness's 10ms beacon
		// cadence: under the race detector's scheduler lag the manager
		// spuriously restarts healthy FEs, which is the harness timing,
		// not the edge. The edge package's own tests run under -race.
		t.Skip("edge load scenario skipped in -short mode")
	}
	sched := Schedule{Seed: seed, Events: []Event{{Kind: KillFrontEnd, Slot: 0}}}

	run := func(t *testing.T) []string {
		h := newHarness(t, Config{Seed: seed, FrontEnds: 2, Edge: true})
		ctx := context.Background()
		eg := h.Sys.Edge()
		if eg == nil {
			t.Fatal("harness booted without an edge")
		}
		waitFor(t, "both front ends in the edge pool", func() bool {
			return eg.PoolStats().Healthy == 2
		})

		// High rate so several arrivals land on the dead backend inside
		// the manager's FE supervision window: the eject must come from
		// organic traffic, not a synthetic probe. The window is long
		// enough that traffic is still flowing to drive the readmission
		// probe even under the race detector's slowdown.
		if err := h.StartEdgeLoad(300, 200, 6*time.Second); err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Millisecond) // accrue budget before the fault
		restartsBefore := h.Sys.Manager().Stats().FERestarts
		killAt := time.Now()
		h.Execute(ctx, sched)

		waitFor(t, "edge ejects the dead backend", func() bool {
			return eg.PoolStats().Ejects >= 1
		})
		h.Note("edge-eject", time.Since(killAt).String())
		waitFor(t, "manager respawns the front end", func() bool {
			return h.Sys.Manager().Stats().FERestarts > restartsBefore
		})
		waitFor(t, "probe readmits the respawned backend", func() bool {
			st := eg.PoolStats()
			return st.Readmits >= 1 && st.Healthy == 2
		})
		h.Note("edge-readmit", time.Since(killAt).String())

		load := h.StopLoad()
		if load.Issued == 0 {
			t.Fatal("load generator issued nothing")
		}
		if load.Failed != 0 {
			t.Fatalf("%d client-visible failures across FE kill: %+v\n%s",
				load.Failed, load, h.Timeline())
		}
		if load.OK+load.Degraded == 0 {
			t.Fatalf("nothing served through the edge: %+v", load)
		}
		if !h.AwaitSteady(10 * time.Second) {
			t.Fatalf("system did not return to steady state:\n%s", h.Timeline())
		}
		return h.FaultTimeline()
	}

	first := run(t)
	second := run(t)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("fault timelines diverged across identical runs:\n%v\n%v", first, second)
	}
}

// TestScenarioEdgeDrainUpgradeZeroDowntime: with load flowing through
// the edge, restart each front end in turn (the hot upgrade: the stop
// announces the FE draining, so the edge stops routing there, and
// returns once its admitted requests have answered) and then roll an
// UpgradeWave across the worker class. The client outside the cluster
// must see zero failures throughout, and the edge no failure to eject.
func TestScenarioEdgeDrainUpgradeZeroDowntime(t *testing.T) {
	if testing.Short() {
		t.Skip("edge load scenario skipped in -short mode")
	}
	h := newHarness(t, Config{Seed: seed, FrontEnds: 2, Edge: true})
	ctx := context.Background()
	eg := h.Sys.Edge()
	if eg == nil {
		t.Fatal("harness booted without an edge")
	}
	waitFor(t, "both front ends in the edge pool", func() bool {
		return eg.PoolStats().Healthy == 2
	})

	if err := h.StartEdgeLoad(120, 200, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Roll the front ends one at a time, like an FE binary upgrade.
	for _, name := range h.Sys.Names(core.KindFrontEnd) {
		if err := h.Sys.Restart(name); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "edge routes to "+name+" again", func() bool {
			st := eg.PoolStats()
			return st.Draining == 0 && st.Healthy == 2
		})
		time.Sleep(150 * time.Millisecond) // serve through both
	}
	h.Note("edge-fe-roll", "both front ends drained and restarted")

	// Hot-upgrade the worker class while requests keep arriving.
	rep, err := h.Sys.Mon.UpgradeWave(ctx, EchoClass)
	if err != nil {
		t.Fatalf("upgrade wave: %v", err)
	}
	if len(rep.Failed) != 0 || len(rep.Upgraded) == 0 {
		t.Fatalf("upgrade wave report: %+v", rep)
	}
	h.Note("edge-upgrade-wave", fmt.Sprintf("upgraded=%d", len(rep.Upgraded)))

	load := h.StopLoad()
	if load.Issued == 0 {
		t.Fatal("load generator issued nothing")
	}
	if load.Failed != 0 {
		t.Fatalf("%d client-visible failures across drain+upgrade: %+v\n%s",
			load.Failed, load, h.Timeline())
	}
	if st := eg.PoolStats(); st.Ejects != 0 {
		t.Fatalf("draining should never look like failure to the edge: %+v", st)
	}
}
