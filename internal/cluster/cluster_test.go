package cluster_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/san"
)

func newTestCluster() *cluster.Cluster {
	return cluster.New(san.NewNetwork(1))
}

func blockUntilCancel(name string) cluster.ProcessFunc {
	return cluster.ProcessFunc{Name: name, Fn: func(ctx context.Context) error {
		<-ctx.Done()
		return nil
	}}
}

func TestSpawnAndStop(t *testing.T) {
	c := newTestCluster()
	c.AddNode("n1", false)
	var started atomic.Bool
	h, err := c.Spawn("n1", cluster.ProcessFunc{Name: "p", Fn: func(ctx context.Context) error {
		started.Store(true)
		<-ctx.Done()
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return started.Load() })
	h.Stop()
	if err := h.Wait(); err != nil {
		t.Fatalf("clean exit returned error: %v", err)
	}
	nodes := c.Nodes()
	if len(nodes[0].Procs) != 0 {
		t.Fatalf("process still registered after exit: %v", nodes[0].Procs)
	}
}

func TestSpawnErrors(t *testing.T) {
	c := newTestCluster()
	if _, err := c.Spawn("ghost", blockUntilCancel("p")); !errors.Is(err, cluster.ErrNoSuchNode) {
		t.Fatalf("err = %v, want ErrNoSuchNode", err)
	}
	c.AddNode("n1", false)
	h, err := c.Spawn("n1", blockUntilCancel("p"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Spawn("n1", blockUntilCancel("p")); !errors.Is(err, cluster.ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	h.Stop()
	if err := c.KillNode("n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Spawn("n1", blockUntilCancel("q")); !errors.Is(err, cluster.ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
}

func TestKillNodeCancelsProcessesAndDropsEndpoints(t *testing.T) {
	net := san.NewNetwork(1)
	c := cluster.New(net)
	c.AddNode("n1", false)
	c.AddNode("n2", false)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "svc"}, 8)
	_ = ep
	var cancelled atomic.Bool
	_, err := c.Spawn("n1", cluster.ProcessFunc{Name: "svc", Fn: func(ctx context.Context) error {
		<-ctx.Done()
		cancelled.Store(true)
		return ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode("n1"); err != nil {
		t.Fatal(err)
	}
	if !cancelled.Load() {
		t.Fatal("process context not cancelled on node kill")
	}
	if net.Lookup(san.Addr{Node: "n1", Proc: "svc"}) {
		t.Fatal("SAN endpoint survived node kill")
	}
	if err := c.ReviveNode("n1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Spawn("n1", blockUntilCancel("svc2")); err != nil {
		t.Fatalf("spawn after revive: %v", err)
	}
	c.StopAll()
}

func TestPanicIsolation(t *testing.T) {
	c := newTestCluster()
	c.AddNode("n1", false)
	h, err := c.Spawn("n1", cluster.ProcessFunc{Name: "buggy", Fn: func(ctx context.Context) error {
		panic("pathological input")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err == nil {
		t.Fatal("panic not converted to error")
	}
}

func TestExitNotifications(t *testing.T) {
	c := newTestCluster()
	c.AddNode("n1", false)
	exits := make(chan cluster.ExitInfo, 1)
	c.OnExit(func(info cluster.ExitInfo) { exits <- info })
	wantErr := errors.New("boom")
	h, err := c.Spawn("n1", cluster.ProcessFunc{Name: "flaky", Fn: func(ctx context.Context) error {
		return wantErr
	}})
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Wait()
	select {
	case exit := <-exits:
		if exit.Node != "n1" || exit.Proc != "flaky" || !errors.Is(exit.Err, wantErr) {
			t.Fatalf("bad exit info: %+v", exit)
		}
	case <-time.After(time.Second):
		t.Fatal("no exit notification")
	}
}

func TestKillProcess(t *testing.T) {
	c := newTestCluster()
	c.AddNode("n1", false)
	if _, err := c.Spawn("n1", blockUntilCancel("w0")); err != nil {
		t.Fatal(err)
	}
	if err := c.KillProcess("n1", "w0"); err != nil {
		t.Fatal(err)
	}
	if err := c.KillProcess("n1", "w0"); err == nil {
		t.Fatal("expected error killing dead process")
	}
	if err := c.KillProcess("ghost", "w0"); !errors.Is(err, cluster.ErrNoSuchNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestPlacePrefersDedicatedAndLeastLoaded(t *testing.T) {
	c := newTestCluster()
	c.AddNode("d1", false)
	c.AddNode("d2", false)
	c.AddNode("o1", true)

	// Load d1 with two processes.
	for _, p := range []string{"a", "b"} {
		if _, err := c.Spawn("d1", blockUntilCancel(p)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Place(false, nil); got != "d2" {
		t.Fatalf("Place = %q, want d2 (least loaded dedicated)", got)
	}
	// Fill both dedicated nodes equally; overflow must still lose.
	for _, p := range []string{"a", "b"} {
		if _, err := c.Spawn("d2", blockUntilCancel(p)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Place(true, nil); got == "o1" {
		t.Fatal("Place chose overflow while dedicated nodes available")
	}
	// Excluding overflow with all dedicated dead yields "".
	if err := c.KillNode("d1"); err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode("d2"); err != nil {
		t.Fatal(err)
	}
	if got := c.Place(false, nil); got != "" {
		t.Fatalf("Place = %q, want empty with no dedicated nodes", got)
	}
	if got := c.Place(true, nil); got != "o1" {
		t.Fatalf("Place = %q, want o1 (overflow recruitment)", got)
	}
	c.StopAll()
}

func TestPlaceFilter(t *testing.T) {
	c := newTestCluster()
	c.AddNode("n1", false)
	c.AddNode("n2", false)
	got := c.Place(false, func(n cluster.Node) bool { return n.ID != "n1" })
	if got != "n2" {
		t.Fatalf("Place with filter = %q, want n2", got)
	}
}

func TestStopAllWaits(t *testing.T) {
	c := newTestCluster()
	c.AddNode("n1", false)
	var running atomic.Int32
	for i := 0; i < 8; i++ {
		name := string(rune('a' + i))
		if _, err := c.Spawn("n1", cluster.ProcessFunc{Name: name, Fn: func(ctx context.Context) error {
			running.Add(1)
			defer running.Add(-1)
			<-ctx.Done()
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return running.Load() == 8 })
	c.StopAll()
	if running.Load() != 0 {
		t.Fatalf("%d processes still running after StopAll", running.Load())
	}
}

func TestNodesSnapshot(t *testing.T) {
	c := newTestCluster()
	c.AddNode("n1", false)
	c.AddNode("o1", true)
	c.AddNode("n1", false) // duplicate add is a no-op
	nodes := c.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	if nodes[0].ID != "n1" || nodes[0].Overflow || !nodes[0].Alive {
		t.Fatalf("bad node snapshot: %+v", nodes[0])
	}
	if nodes[1].ID != "o1" || !nodes[1].Overflow {
		t.Fatalf("bad overflow node: %+v", nodes[1])
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

func TestOnExitObservers(t *testing.T) {
	c := newTestCluster()
	c.AddNode("n1", false)
	var clean, crashed atomic.Int32
	var last atomic.Value
	remove := c.OnExit(func(info cluster.ExitInfo) {
		if info.Err == nil {
			clean.Add(1)
		} else {
			crashed.Add(1)
		}
		last.Store(info)
	})

	h, err := c.Spawn("n1", blockUntilCancel("p1"))
	if err != nil {
		t.Fatal(err)
	}
	h.Stop()
	waitFor(t, func() bool { return clean.Load() == 1 })
	info := last.Load().(cluster.ExitInfo)
	if info.Node != "n1" || info.Proc != "p1" || info.At.IsZero() {
		t.Fatalf("exit info = %+v", info)
	}

	// A crashing process reports its error to observers too.
	h2, err := c.Spawn("n1", cluster.ProcessFunc{Name: "p2", Fn: func(ctx context.Context) error {
		return errors.New("boom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-h2.Done()
	waitFor(t, func() bool { return crashed.Load() == 1 })

	// Removed observers stop firing; the others still do.
	var later atomic.Int32
	c.OnExit(func(cluster.ExitInfo) { later.Add(1) })
	remove()
	h3, _ := c.Spawn("n1", blockUntilCancel("p3"))
	h3.Stop()
	waitFor(t, func() bool { return later.Load() == 1 })
	if clean.Load() != 1 {
		t.Fatalf("removed observer fired: clean=%d", clean.Load())
	}
}

func TestSpawnAfterStopAllFails(t *testing.T) {
	c := newTestCluster()
	c.AddNode("n1", false)
	h, err := c.Spawn("n1", blockUntilCancel("p"))
	if err != nil {
		t.Fatal(err)
	}
	_ = h
	c.StopAll()
	// The race this guards: a manager replacing a crashed worker
	// concurrently with system shutdown must not leak an unkillable
	// process past StopAll's wait.
	if _, err := c.Spawn("n1", blockUntilCancel("late")); !errors.Is(err, cluster.ErrStopped) {
		t.Fatalf("late spawn err = %v, want ErrStopped", err)
	}
}
