package manager

import (
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
)

// TestManagerWorkerLifecycleOverWire runs the full manager <-> worker
// protocol — beacons, registration, load reports, TTL expiry, crash
// replacement — over a wire-mode SAN, so every control-plane message
// the manager exchanges round-trips through the production codec.
func TestManagerWorkerLifecycleOverWire(t *testing.T) {
	net := san.NewNetwork(1, san.WithCodec(stub.WireCodec{}))
	sp := newTestSpawner(net, tick)
	defer sp.stopAll()
	m := startManager(t, net, sp, Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1})

	info1 := sp.spawn("echo", false)
	sp.spawn("echo", false)
	waitFor(t, "registrations over wire", func() bool { return m.Stats().Workers == 2 })

	// Crash one silently: timeout inference and the replica floor must
	// work identically when the evidence arrives as bytes.
	sp.crash(info1.ID)
	waitFor(t, "replacement spawn", func() bool { return sp.spawns.Load() >= 3 })
	waitFor(t, "two live workers", func() bool { return m.Stats().Workers == 2 })

	st := net.Stats()
	if st.WireEncodes == 0 || st.WireDecodes == 0 {
		t.Fatalf("codec never ran: %+v", st)
	}
	if st.WireErrors != 0 {
		t.Fatalf("%d manager-protocol messages failed serialization", st.WireErrors)
	}
}
