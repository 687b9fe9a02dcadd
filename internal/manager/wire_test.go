package manager

import "testing"

// TestManagerWorkerLifecycleOverWire runs the full manager <-> worker
// protocol — beacons, registration, load reports, TTL expiry, the
// restart of a crashed roster row — over the SAN, so every control-plane
// message the manager exchanges round-trips through the production codec.
func TestManagerWorkerLifecycleOverWire(t *testing.T) {
	net := newNet(tick)
	sup := startFakeSup(t, net, "node0", "")
	m, _ := startManager(t, net, "mgr", nil)

	info1 := sup.slot("echo")
	sup.slot("echo")
	waitFor(t, "registrations over wire", func() bool { return m.Stats().Workers == 2 })

	// Crash one silently: timeout inference, the roster in the hello and
	// the restart command must work identically when they travel as bytes.
	sup.crash(info1.ID)
	waitFor(t, "restart by name", func() bool { return m.Stats().WorkerRestarts == 1 })
	waitFor(t, "two live workers", func() bool { return m.Stats().Workers == 2 })

	st := net.Stats()
	if st.WireEncodes == 0 || st.WireDecodes == 0 {
		t.Fatalf("codec never ran: %+v", st)
	}
	if st.WireErrors != 0 {
		t.Fatalf("%d manager-protocol messages failed serialization", st.WireErrors)
	}
}
