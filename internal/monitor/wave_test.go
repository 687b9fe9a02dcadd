package monitor

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
)

// waveHost fakes the platform behind a supervisor: Restart records the
// id and reports success.
type waveHost struct {
	mu        sync.Mutex
	restarted []string
	fail      bool
}

func (h *waveHost) Restart(id string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail {
		return fmt.Errorf("registry gone")
	}
	h.restarted = append(h.restarted, id)
	return nil
}
func (h *waveHost) SpawnWorker(string) error { return nil }
func (h *waveHost) ReapWorker(string) error  { return nil }
func (h *waveHost) Roster() []supervisor.Row { return nil }

func (h *waveHost) ids() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.restarted...)
}

// waveFixture: a monitor, a real supervisor daemon and a scripted
// manager beacon source — everything the wave driver touches, without
// booting a full system.
func startWaveFixture(t *testing.T) (*Monitor, *waveHost, *san.Network) {
	t.Helper()
	// A 250 ms beat: the monitor forgets a supervisor after 1 s of silence.
	net := san.NewNetwork(1, san.WithCodec(stub.WireCodec{}), san.WithBeacon(250*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	m := New(Config{Node: "m0", Net: net})
	go m.Run(ctx)

	host := &waveHost{}
	sup := supervisor.New(supervisor.Config{
		Node: "a-node0", Net: net, Prefix: "a-", Host: host,
	})
	go sup.Run(ctx)

	workers := []stub.WorkerInfo{
		{ID: "a-echo.1", Class: "echo", Addr: san.Addr{Node: "a-node1", Proc: "a-echo.1"}, Node: "a-node1"},
		{ID: "a-echo.2", Class: "echo", Addr: san.Addr{Node: "a-node2", Proc: "a-echo.2"}, Node: "a-node2"},
		{ID: "a-sgif.1", Class: "sgif", Addr: san.Addr{Node: "a-node3", Proc: "a-sgif.1"}, Node: "a-node3"},
	}
	mgr := net.Endpoint(san.Addr{Node: "m1", Proc: "manager"}, 64)
	go func() {
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		seq := uint64(0)
		for {
			select {
			case <-ctx.Done():
				return
			case <-tk.C:
				seq++
				mgr.Multicast(stub.GroupControl, stub.MsgBeacon,
					stub.Beacon{Manager: mgr.Addr(), Seq: seq, Workers: workers}, 256)
			}
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(m.WorkersOf("echo")) == 2 {
			if _, ok := m.SupervisorFor("a-node1"); ok {
				return m, host, net
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("wave fixture never became ready")
	return nil, nil, nil
}

// TestUpgradeWaveRollsEveryWorker: the driver walks the class in id
// order and restarts each worker through the owning supervisor — one
// command each, nothing else sent.
func TestUpgradeWaveRollsEveryWorker(t *testing.T) {
	m, host, _ := startWaveFixture(t)
	rep, err := m.UpgradeWave(context.Background(), "echo")
	if err != nil {
		t.Fatalf("wave: %v (report %+v)", err, rep)
	}
	want := []string{"a-echo.1", "a-echo.2"}
	if len(rep.Upgraded) != 2 || rep.Upgraded[0] != want[0] || rep.Upgraded[1] != want[1] {
		t.Fatalf("Upgraded = %v, want %v", rep.Upgraded, want)
	}
	if got := host.ids(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("host restarted %v, want %v", got, want)
	}
	// The other class was untouched.
	if len(m.WorkersOf("sgif")) != 1 {
		t.Fatal("sgif inventory changed")
	}
}

// TestUpgradeWaveFailureReenables: a refused restart marks the worker
// failed, and the wave (and its error) report it. There is nothing to
// re-enable: a restart the supervisor refused never stopped the worker,
// so it serves on as it was. A refusal is an answer, not a lost command:
// it is not retried.
func TestUpgradeWaveFailureReenables(t *testing.T) {
	m, host, _ := startWaveFixture(t)
	host.mu.Lock()
	host.fail = true
	host.mu.Unlock()
	start := time.Now()
	rep, err := m.UpgradeWave(context.Background(), "echo")
	if err == nil {
		t.Fatalf("wave succeeded despite refusing host: %+v", rep)
	}
	if len(rep.Failed) != 2 || len(rep.Upgraded) != 0 {
		t.Fatalf("report %+v, want both failed", rep)
	}
	if took := time.Since(start); took > waveCommandTimeout {
		t.Fatalf("a refused wave took %v: a refusal was retried or waited on", took)
	}
}

// TestUpgradeWaveUnknownClass: an empty inventory is an error, not a
// vacuous success.
func TestUpgradeWaveUnknownClass(t *testing.T) {
	m, _, _ := startWaveFixture(t)
	if _, err := m.UpgradeWave(context.Background(), "nope"); err == nil {
		t.Fatal("wave over an unknown class succeeded")
	}
}

// TestSupervisorForLongestPrefix: ownership resolution prefers the
// most specific advertised prefix.
func TestSupervisorForLongestPrefix(t *testing.T) {
	m, _, net := startWaveFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	sup2 := supervisor.New(supervisor.Config{
		Node: "a-x0", Net: net, Prefix: "a-node1",
	})
	go sup2.Run(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sup, ok := m.SupervisorFor("a-node1"); ok && sup.Prefix == "a-node1" {
			// The broader "a-" supervisor still owns everything else.
			if sup, ok := m.SupervisorFor("a-node2"); !ok || sup.Prefix != "a-" {
				t.Fatalf("a-node2 resolved to %+v", sup)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("longest-prefix supervisor never won resolution")
}
