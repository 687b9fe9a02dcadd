package monitor

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/softstate"
	"repro/internal/stub"
	"repro/internal/supervisor"
)

// silentAfter is a test network on which the monitor marks a component
// silent after silence.
func silentAfter(silence time.Duration) *san.Network {
	beat := silence / time.Duration(softstate.MonitorSilence)
	return san.NewNetwork(1, san.WithCodec(stub.WireCodec{}), san.WithBeacon(beat))
}

func startMonitor(t *testing.T, net *san.Network) (*Monitor, *atomic.Int32) {
	t.Helper()
	var alerts atomic.Int32
	m := New(Config{
		Node:    "mon",
		Net:     net,
		OnAlert: func(Alert) { alerts.Add(1) },
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go m.Run(ctx)
	return m, &alerts
}

func report(ep *san.Endpoint, component, kind string) {
	ep.Multicast(stub.GroupReports, stub.MsgMonReport, stub.StatusReport{
		Component: component,
		Kind:      kind,
		Node:      "n1",
		Metrics:   map[string]float64{"qlen": 3},
	}, 64)
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

func TestMonitorTracksReports(t *testing.T) {
	net := silentAfter(time.Hour)
	m, _ := startMonitor(t, net)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 16)
	waitFor(t, "component visible", func() bool {
		report(ep, "w0", "worker")
		snap := m.Snapshot()
		return len(snap) == 1 && snap[0].Component == "w0" && snap[0].Kind == "worker"
	})
	snap := m.Snapshot()
	if snap[0].Metrics["qlen"] != 3 || snap[0].Silent {
		t.Fatalf("status = %+v", snap[0])
	}
}

// TestMonitorForgetsSilentSupervisor: a process's supervisor respawns at
// a new address under its old prefix, and the old one falls silent.
// Until the monitor's silence passes both are heard and the tie goes to the lower
// address, the dead one; after it the monitor has forgotten that one, so
// an upgrade wave's restart goes to the live supervisor, every time.
func TestMonitorForgetsSilentSupervisor(t *testing.T) {
	const silence = 100 * time.Millisecond
	net := silentAfter(silence)
	m, _ := startMonitor(t, net)
	hello := func(ep *san.Endpoint) {
		ep.Multicast(stub.GroupControl, supervisor.MsgHello, supervisor.HelloMsg{Name: "sup", Addr: ep.Addr(), Node: ep.Addr().Node, Prefix: "b-"}, 64)
	}
	old := net.Endpoint(san.Addr{Node: "b-node0", Proc: "sup"}, 8)
	moved := net.Endpoint(san.Addr{Node: "b-node5", Proc: "sup"}, 8)
	owner := func() san.Addr { sup, _ := m.SupervisorFor("b-node2"); return sup.Addr }
	waitFor(t, "both supervisors heard", func() bool {
		hello(old)
		hello(moved)
		return owner() == old.Addr()
	})
	lastOld := time.Now()
	waitFor(t, "the silent supervisor forgotten", func() bool {
		hello(moved)
		return owner() == moved.Addr()
	})
	if d := time.Since(lastOld); d < silence {
		t.Fatalf("forgot a supervisor %v after its last hello, inside the monitor's silence %v", d, silence)
	}
	for i := 0; i < 100; i++ {
		if got := owner(); got != moved.Addr() {
			t.Fatalf("lookup %d resolved %v, want the live %v", i, got, moved.Addr())
		}
	}
}

func TestMonitorSilenceAlertAndRecovery(t *testing.T) {
	net := silentAfter(40 * time.Millisecond)
	m, alerts := startMonitor(t, net)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 16)
	waitFor(t, "component visible", func() bool {
		report(ep, "w0", "worker")
		return len(m.Snapshot()) == 1
	})
	// Go silent: alert fires and the component is marked SILENT.
	waitFor(t, "silence alert", func() bool { return alerts.Load() >= 1 })
	waitFor(t, "marked silent", func() bool {
		snap := m.Snapshot()
		return len(snap) == 1 && snap[0].Silent
	})
	if !strings.Contains(m.RenderTable(), "SILENT") {
		t.Fatal("render does not show silent state")
	}
	// Duplicate alerts are suppressed while still silent.
	n := alerts.Load()
	time.Sleep(100 * time.Millisecond)
	if alerts.Load() > n+1 {
		t.Fatalf("alert storm: %d alerts", alerts.Load())
	}
	// Recovery: a fresh report clears the state and emits a
	// recovery alert.
	before := len(m.Alerts())
	waitFor(t, "recovery", func() bool {
		report(ep, "w0", "worker")
		snap := m.Snapshot()
		return len(snap) == 1 && !snap[0].Silent
	})
	found := false
	for _, a := range m.Alerts()[before:] {
		if strings.Contains(a.Message, "recovered") {
			found = true
		}
	}
	if !found {
		t.Fatal("no recovery alert")
	}
}

// TestMonitorReadsInventoryFromBeacons: a beacon feeds the worker
// inventory and nothing else — the manager's table row is its own
// status report, never a second list synthesized here.
func TestMonitorReadsInventoryFromBeacons(t *testing.T) {
	net := silentAfter(time.Hour)
	m, _ := startMonitor(t, net)
	mgr := net.Endpoint(san.Addr{Node: "m", Proc: "manager"}, 16)
	waitFor(t, "inventory visible", func() bool {
		mgr.Multicast(stub.GroupControl, stub.MsgBeacon, stub.Beacon{
			Manager: mgr.Addr(),
			Workers: []stub.WorkerInfo{{ID: "w0", Class: "echo"}},
		}, 64)
		return len(m.WorkersOf("echo")) == 1
	})
	if snap := m.Snapshot(); len(snap) != 0 {
		t.Fatalf("beacon produced table rows: %+v", snap)
	}
}

func TestRenderTableFormatting(t *testing.T) {
	net := silentAfter(time.Hour)
	m, _ := startMonitor(t, net)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "a-worker"}, 16)
	waitFor(t, "component", func() bool {
		report(ep, "a-worker", "worker")
		return len(m.Snapshot()) == 1
	})
	out := m.RenderTable()
	if !strings.Contains(out, "a-worker") || !strings.Contains(out, "qlen=3.0") {
		t.Fatalf("render = %q", out)
	}
}

// TestMonitorCopiesMetricsOnIngest: the monitor's view must not alias
// the reporter's map — a sender mutating its map after the multicast
// must not change (or race with) what the monitor displays. The SAN's
// codec makes the copy: every delivery decodes a map of its own.
func TestMonitorCopiesMetricsOnIngest(t *testing.T) {
	net := silentAfter(time.Hour)
	m, _ := startMonitor(t, net)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 16)

	// Warm up until the monitor has joined the report group, then send
	// the report under test exactly once.
	waitFor(t, "monitor joined", func() bool {
		report(ep, "warmup", "worker")
		return len(m.Snapshot()) >= 1
	})
	metrics := map[string]float64{"qlen": 3}
	ep.Multicast(stub.GroupReports, stub.MsgMonReport, stub.StatusReport{
		Component: "w0", Kind: "worker", Node: "n1", Metrics: metrics,
	}, 64)
	waitFor(t, "component visible", func() bool {
		for _, st := range m.Snapshot() {
			if st.Component == "w0" {
				return true
			}
		}
		return false
	})

	metrics["qlen"] = 99 // sender reuses its map for the next report
	for _, st := range m.Snapshot() {
		if st.Component == "w0" && st.Metrics["qlen"] != 3 {
			t.Fatalf("monitor aliased the reporter's metrics map: qlen=%v", st.Metrics["qlen"])
		}
	}
}

// TestMonitorHopBreakdown: span digests on the report group aggregate
// into per-hop count/avg/max across distinct processes.
func TestMonitorHopBreakdown(t *testing.T) {
	net := silentAfter(time.Hour)
	m, _ := startMonitor(t, net)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 16)

	waitFor(t, "monitor joined", func() bool {
		report(ep, "warmup", "worker")
		return len(m.Snapshot()) >= 1
	})
	ep.Multicast(stub.GroupReports, stub.MsgSpanDigest, stub.SpanDigest{
		Spans: []obs.Span{
			{Trace: 3, Proc: "a", Hop: "worker.service", Dur: int64(10 * time.Millisecond)},
			{Trace: 3, Proc: "b", Hop: "worker.service", Dur: int64(30 * time.Millisecond)},
			{Trace: 3, Proc: "a", Hop: "fe.request", Dur: int64(50 * time.Millisecond)},
		},
	}, 128)
	waitFor(t, "hops aggregated", func() bool { return len(m.HopBreakdown()) == 2 })

	hops := m.HopBreakdown()
	if hops[0].Hop != "fe.request" || hops[1].Hop != "worker.service" {
		t.Fatalf("hop order: %+v", hops)
	}
	ws := hops[1]
	if ws.Count != 2 || ws.Avg != 20*time.Millisecond || ws.Max != 30*time.Millisecond || ws.Procs != 2 {
		t.Fatalf("worker.service agg: %+v", ws)
	}
	if !strings.Contains(m.RenderTable(), "worker.service") {
		t.Fatal("RenderTable missing per-hop section")
	}
	// The monitor's process answers /trace for the spans it took in.
	if got := net.Tracer().Spans(3); len(got) != 3 {
		t.Fatalf("the monitor's tracer holds %d spans of trace 3, want the digest's 3", len(got))
	}
}
