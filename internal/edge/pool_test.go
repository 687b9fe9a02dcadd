package edge

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/san"
)

// feAddr is front end i's SAN address, pool key "n/fe<i>".
func feAddr(i int) san.Addr { return san.Addr{Node: "n", Proc: fmt.Sprintf("fe%d", i)} }

// fakeClock is a manually advanced Pool clock.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func newTestPool(clk *fakeClock) *Pool {
	// At the default 500 ms beat: a 10 s TTL, a probe after 1 s.
	return NewPool(PoolConfig{Seed: 1, Clock: clk.Now})
}

func TestPoolEjectAfterConsecutiveFailures(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p := newTestPool(clk)
	p.observe(feAddr(0), false)

	// Two failures with a success in between: the counter is
	// *consecutive*, so no eject.
	for _, ok := range []bool{false, false, true, false, false} {
		pk, err := p.Pick(false, "")
		if err != nil {
			t.Fatalf("pick: %v", err)
		}
		pk.Done(ok)
	}
	if st := p.Stats(); st.Ejects != 0 || st.Healthy != 1 {
		t.Fatalf("ejected after non-consecutive failures: %+v", st)
	}

	pk, err := p.Pick(false, "")
	if err != nil {
		t.Fatalf("pick: %v", err)
	}
	pk.Done(false) // third consecutive failure
	st := p.Stats()
	if st.Ejects != 1 || st.Ejected != 1 || st.Healthy != 0 {
		t.Fatalf("want eject after 3 consecutive failures, got %+v", st)
	}
	if _, err := p.Pick(false, ""); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("pick from all-ejected pool: err=%v, want ErrNoBackends", err)
	}
}

func TestPoolHalfOpenProbeReadmission(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p := newTestPool(clk)
	p.observe(feAddr(0), false)
	for i := 0; i < 3; i++ {
		pk, _ := p.Pick(false, "")
		pk.Done(false)
	}
	if st := p.Stats(); st.Ejected != 1 {
		t.Fatalf("setup: want 1 ejected, got %+v", st)
	}

	// Before the probe delay elapses: no probe offered.
	if _, err := p.Pick(true, ""); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("probe before the probe delay: err=%v, want ErrNoBackends", err)
	}

	clk.Advance(2 * time.Second)
	p.observe(feAddr(0), false) // keep the heartbeat fresh
	pk, err := p.Pick(true, "")
	if err != nil {
		t.Fatalf("probe pick: %v", err)
	}
	if !pk.Probe() {
		t.Fatal("pick past the probe delay should be a half-open probe")
	}
	// Only one probe outstanding at a time.
	if _, err := p.Pick(true, ""); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("second concurrent probe: err=%v, want ErrNoBackends", err)
	}

	// Failed probe re-arms the timer.
	pk.Done(false)
	if _, err := p.Pick(true, ""); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("probe immediately after failed probe: err=%v, want ErrNoBackends", err)
	}
	clk.Advance(2 * time.Second)
	p.observe(feAddr(0), false)
	pk, err = p.Pick(true, "")
	if err != nil || !pk.Probe() {
		t.Fatalf("re-armed probe: pick=%v err=%v", pk, err)
	}

	// Successful probe readmits.
	pk.Done(true)
	st := p.Stats()
	if st.Readmits != 1 || st.Healthy != 1 || st.Ejected != 0 {
		t.Fatalf("want readmission after successful probe, got %+v", st)
	}
	pk, err = p.Pick(false, "")
	if err != nil || pk.Probe() {
		t.Fatalf("post-readmit pick: pk=%v err=%v", pk, err)
	}
	pk.Done(true)
}

func TestPoolDrainingExcludedFromPicks(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p := newTestPool(clk)
	p.observe(feAddr(0), false)
	p.Observe("n/fe1", "fe1", "", true) // draining; bench/'s entry point, by key

	for i := 0; i < 16; i++ {
		pk, err := p.Pick(false, "")
		if err != nil {
			t.Fatalf("pick %d: %v", i, err)
		}
		if pk.Key() != "n/fe0" {
			t.Fatalf("pick %d landed on draining backend %s", i, pk.Key())
		}
		pk.Done(true)
	}
	if st := p.Stats(); st.Draining != 1 || st.Healthy != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// Drain the survivor too: nothing left.
	p.observe(feAddr(0), true)
	if _, err := p.Pick(false, ""); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("pick from all-draining pool: err=%v, want ErrNoBackends", err)
	}

	// Un-drain restores service — the hot-upgrade re-enable path.
	p.observe(feAddr(1), false)
	pk, err := p.Pick(false, "")
	if err != nil || pk.Key() != "n/fe1" {
		t.Fatalf("post-enable pick: pk=%v err=%v", pk, err)
	}
	pk.Done(true)
}

func TestPoolLeastInflightUnderSkew(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p := newTestPool(clk)
	p.observe(feAddr(0), false)
	p.observe(feAddr(1), false)

	// Pin one request in flight on fe0; with two backends,
	// power-of-two-choices always compares both, so every subsequent
	// pick must land on the idle fe1.
	var pinned *Pick
	for pinned == nil {
		pk, err := p.Pick(false, "")
		if err != nil {
			t.Fatalf("pin pick: %v", err)
		}
		if pk.Key() == "n/fe0" {
			pinned = pk
		} else {
			pk.Done(true)
		}
	}
	for i := 0; i < 32; i++ {
		pk, err := p.Pick(false, "")
		if err != nil {
			t.Fatalf("pick %d: %v", i, err)
		}
		if pk.Key() != "n/fe1" {
			t.Fatalf("pick %d landed on the loaded backend", i)
		}
		pk.Done(true)
	}
	pinned.Done(true)

	// Skew the other way: pin one on fe1 — the distribution must
	// follow and every pick lands on fe0.
	var pinned1 *Pick
	for pinned1 == nil {
		pk, err := p.Pick(false, "")
		if err != nil {
			t.Fatalf("pin pick: %v", err)
		}
		if pk.Key() == "n/fe1" {
			pinned1 = pk
		} else {
			pk.Done(true)
		}
	}
	for i := 0; i < 32; i++ {
		pk, err := p.Pick(false, "")
		if err != nil {
			t.Fatalf("pick %d: %v", i, err)
		}
		if pk.Key() != "n/fe0" {
			t.Fatalf("pick %d landed on the loaded backend", i)
		}
		pk.Done(true)
	}
	pinned1.Done(true)
}

// TestPoolSequentialTrafficSpreads: a strictly sequential client never
// has more than one request in flight, so every pick is an inflight
// tie — the tie-break must still spread load across replicas rather
// than pinning one (the P2C first sample is uniform).
func TestPoolSequentialTrafficSpreads(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p := newTestPool(clk)
	p.observe(feAddr(0), false)
	p.observe(feAddr(1), false)

	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		pk, err := p.Pick(false, "")
		if err != nil {
			t.Fatalf("pick %d: %v", i, err)
		}
		counts[pk.Key()]++
		pk.Done(true)
	}
	for _, key := range []string{"n/fe0", "n/fe1"} {
		if counts[key] < 50 {
			t.Fatalf("sequential traffic pinned one replica: %v", counts)
		}
	}
}

func TestPoolExpiresStaleBackends(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p := newTestPool(clk)
	p.observe(feAddr(0), false)
	clk.Advance(11 * time.Second) // past TTL
	if st := p.Stats(); st.Backends != 0 || st.Expired != 1 {
		t.Fatalf("want stale backend expired, got %+v", st)
	}
	if _, err := p.Pick(false, ""); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("pick after expiry: err=%v, want ErrNoBackends", err)
	}
}

func TestPoolRespawnRefreshesEjectedSlot(t *testing.T) {
	// The SIGKILL-and-respawn sequence: the backend is ejected, the
	// respawned FE announces itself again under the same SAN address,
	// and the probe against it readmits it.
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p := newTestPool(clk)
	p.observe(feAddr(0), false)
	for i := 0; i < 3; i++ {
		pk, _ := p.Pick(false, "")
		pk.Done(false)
	}
	clk.Advance(2 * time.Second)
	p.observe(feAddr(0), false) // respawned
	pk, err := p.Pick(true, "")
	if err != nil || !pk.Probe() {
		t.Fatalf("probe after respawn: pk=%v err=%v", pk, err)
	}
	if pk.Addr() != feAddr(0) {
		t.Fatalf("probe should target the respawned front end, got %v", pk.Addr())
	}
	pk.Done(true)
	if st := p.Stats(); st.Readmits != 1 || st.Healthy != 1 {
		t.Fatalf("want readmission, got %+v", st)
	}
}
