package monitor

import (
	"testing"
	"time"

	"repro/internal/san"
)

// TestMonitorOverWire feeds the monitor status reports through the SAN:
// the reports group traffic it watches — including the metrics maps —
// must survive the codec.
func TestMonitorOverWire(t *testing.T) {
	net := silentAfter(time.Hour)
	m, _ := startMonitor(t, net)
	ep := net.Endpoint(san.Addr{Node: "n1", Proc: "w0"}, 16)
	waitFor(t, "component visible over wire", func() bool {
		report(ep, "w0", "worker")
		snap := m.Snapshot()
		return len(snap) == 1 && snap[0].Component == "w0"
	})
	if snap := m.Snapshot(); snap[0].Metrics["qlen"] != 3 {
		t.Fatalf("metrics map lost in transit: %+v", snap[0].Metrics)
	}

	st := net.Stats()
	if st.WireErrors != 0 {
		t.Fatalf("%d monitor messages failed serialization", st.WireErrors)
	}
	if st.WireEncodes == 0 {
		t.Fatalf("codec never ran: %+v", st)
	}
}
