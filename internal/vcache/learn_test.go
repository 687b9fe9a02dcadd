package vcache

// The ring learned from the partitions' announcements: what Learn and
// Sweep promise a front end that has no other way to find a partition.

import (
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/san"
	"repro/internal/softstate"
	"repro/internal/supervisor"
)

// announcement is what a partition named name on node multicasts once a
// beat.
func announcement(name, node string) san.Message {
	return san.Message{
		Kind:  supervisor.MsgAnnounce,
		Group: supervisor.GroupControl,
		Body:  supervisor.Member{Addr: san.Addr{Node: node, Proc: name}, Kind: supervisor.KindCache, State: supervisor.StateUp},
	}
}

// owners maps n keys to the partition name and address each routes to.
func owners(c *Client, n int) (names []string, addrs []san.Addr) {
	for i := 0; i < n; i++ {
		key := "http://o.example/obj" + strconv.Itoa(i)
		addr, _ := c.owner(key)
		names, addrs = append(names, c.ring.Lookup(objectOf(key))), append(addrs, addr)
	}
	return names, addrs
}

// TestLearnRepeatLeavesRing: a partition announcing the address the
// client already holds changes nothing — the ring's points are the same
// slice, not a rebuilt one — and neither does a message that is not a
// cache's announcement.
func TestLearnRepeatLeavesRing(t *testing.T) {
	c := routingClient(0)
	for i := 0; i < 3; i++ {
		c.Learn(announcement("cache"+strconv.Itoa(i), "cnode"+strconv.Itoa(i)))
	}
	points := c.ring.points
	c.Learn(announcement("cache1", "cnode1"))
	c.Learn(san.Message{Kind: supervisor.MsgAnnounce, Body: supervisor.Member{Addr: san.Addr{Node: "n", Proc: "fe0"}, Kind: supervisor.KindFrontEnd}})
	c.Learn(san.Message{Kind: "mgr.beacon"})
	if len(c.ring.points) != len(points) || &c.ring.points[0] != &points[0] {
		t.Fatal("a repeated announcement rebuilt the ring")
	}
	if got := c.Nodes(); !slices.Equal(got, []string{"cache0", "cache1", "cache2"}) {
		t.Fatalf("ring %v, want the three partitions", got)
	}
}

// TestLearnNewAddressRepoints: a known partition announcing from a new
// node keeps every key it owned — the ring is keyed by name — and those
// keys now go to the new address; no other key moves.
func TestLearnNewAddressRepoints(t *testing.T) {
	c := routingClient(0)
	for i := 0; i < 4; i++ {
		c.Learn(announcement("cache"+strconv.Itoa(i), "cnode"+strconv.Itoa(i)))
	}
	const keys = 10000
	names0, addrs0 := owners(c, keys)
	c.Learn(announcement("cache2", "cnode9"))
	names1, addrs1 := owners(c, keys)
	if !slices.Equal(names0, names1) {
		t.Fatal("re-pointing a partition moved keys between partitions")
	}
	moved := 0
	for i := range addrs1 {
		switch {
		case names1[i] == "cache2" && addrs1[i] != (san.Addr{Node: "cnode9", Proc: "cache2"}):
			t.Fatalf("key %d still routes to %v", i, addrs1[i])
		case names1[i] == "cache2":
			moved++
		case addrs1[i] != addrs0[i]:
			t.Fatalf("key %d of %s changed address %v -> %v", i, names1[i], addrs0[i], addrs1[i])
		}
	}
	if moved == 0 {
		t.Fatal("cache2 owns no key")
	}
}

// TestSweepForgetsSilentPartition: a partition silent past
// softstate.CacheTTL leaves the ring at the next Sweep and its keys go
// to the survivors; one announcement brings it back with its keys.
func TestSweepForgetsSilentPartition(t *testing.T) {
	net := san.NewNetwork(1, san.WithBeacon(2*time.Millisecond))
	c := NewClient(net.Endpoint(san.Addr{Node: "fe", Proc: "client"}, 8))
	for _, name := range []string{"cache0", "cache1"} {
		c.Learn(announcement(name, "cnode-"+name))
	}
	names0, _ := owners(c, 1000)

	ttl := softstate.CacheTTL.Of(net.Beacon())
	deadline := time.Now().Add(100 * ttl)
	for slices.Contains(c.Nodes(), "cache1") {
		if time.Now().After(deadline) {
			t.Fatalf("cache1 still in the ring %s after its last announcement (TTL %s)", 100*ttl, ttl)
		}
		c.Learn(announcement("cache0", "cnode-cache0")) // cache0 keeps announcing
		c.Sweep()
		time.Sleep(ttl / 5)
	}
	if got := c.Nodes(); !slices.Equal(got, []string{"cache0"}) {
		t.Fatalf("ring %v after cache1 fell silent, want [cache0]", got)
	}
	if names, _ := owners(c, 1000); slices.ContainsFunc(names, func(n string) bool { return n != "cache0" }) {
		t.Fatal("a key still routes to the silent partition")
	}

	c.Learn(announcement("cache1", "cnode-cache1"))
	if names, _ := owners(c, 1000); !slices.Equal(names, names0) {
		t.Fatal("cache1's announcement did not bring back the keys it owned")
	}
}

// TestLearnedRingMatchesAddNode: a client that heard live partitions
// announce themselves on the control group routes 10,000 keys exactly as
// a client given the same names and addresses by AddNode.
func TestLearnedRingMatchesAddNode(t *testing.T) {
	net := san.NewNetwork(1)
	cl := cluster.New(net)
	t.Cleanup(cl.StopAll)
	listener := net.Endpoint(san.Addr{Node: "fe", Proc: "client"}, 256)
	listener.Join(supervisor.GroupControl)
	learned, configured := NewClient(listener), routingClient(0)
	for i := 0; i < 5; i++ {
		node, name := fmt.Sprintf("cnode%d", i), fmt.Sprintf("cache%d", i)
		cl.AddNode(node, false)
		svc := NewService(name, net, node, NewPartition(1<<20, nil))
		if _, err := cl.Spawn(node, svc); err != nil {
			t.Fatal(err)
		}
		configured.AddNode(name, svc.Addr())
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(learned.Nodes()) < 5 {
		select {
		case msg := <-listener.Inbox():
			learned.Learn(msg)
		case <-time.After(time.Until(deadline)):
			t.Fatalf("heard %v, want five partitions", learned.Nodes())
		}
	}
	names, addrs := owners(learned, 10000)
	wantNames, wantAddrs := owners(configured, 10000)
	if !slices.Equal(names, wantNames) || !slices.Equal(addrs, wantAddrs) {
		t.Fatal("the learned ring routes keys differently from the configured one")
	}
}
