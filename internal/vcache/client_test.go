package vcache

// The client against live partitions over a SAN.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/san"
)

// startCacheCluster boots n cache services and returns a client wired
// to all of them plus a cleanup func.
func startCacheCluster(t *testing.T, n int) (*Client, *cluster.Cluster) {
	t.Helper()
	net := san.NewNetwork(1)
	cl := cluster.New(net)
	client := NewClient(clientEndpoint(t, net))
	for i := 0; i < n; i++ {
		node := fmt.Sprintf("cnode%d", i)
		cl.AddNode(node, false)
		name := fmt.Sprintf("cache%d", i)
		svc := NewService(name, net, node, NewPartition(1<<20, nil))
		if _, err := cl.Spawn(node, svc); err != nil {
			t.Fatal(err)
		}
		client.AddNode(name, svc.Addr())
	}
	t.Cleanup(cl.StopAll)
	return client, cl
}

// clientEndpoint creates an endpoint with a reply pump.
func clientEndpoint(t *testing.T, net *san.Network) *san.Endpoint {
	t.Helper()
	ep := net.Endpoint(san.Addr{Node: "fe", Proc: "client"}, 256)
	return ep
}

func TestClientVirtualCache(t *testing.T) {
	client, _ := startCacheCluster(t, 4)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("obj-%d", i)
		client.Put(ctx, key, []byte(key+"-data"), "text/html", 0)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("obj-%d", i)
		data, mime, ok := client.Get(ctx, key)
		if !ok || string(data) != key+"-data" || mime != "text/html" {
			t.Fatalf("key %s: %q %q %v", key, data, mime, ok)
		}
	}
	// Objects must be spread across partitions.
	populated := 0
	for _, name := range client.Nodes() {
		st, err := client.StatsOf(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Objects > 0 {
			populated++
		}
	}
	if populated < 3 {
		t.Fatalf("only %d partitions populated", populated)
	}
}

func TestClientNodeLossIsAMiss(t *testing.T) {
	client, cl := startCacheCluster(t, 3)
	ctx := context.Background()
	client.Timeout = 100 * time.Millisecond
	// Find a key on cache1.
	var key string
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if client.ring.Lookup(objectOf(k)) == "cache1" {
			key = k
			break
		}
	}
	client.Put(ctx, key, []byte("v"), "b", 0)
	if _, _, ok := client.Get(ctx, key); !ok {
		t.Fatal("warm get failed")
	}
	// Kill the owning node: the get times out and reads as a miss.
	if err := cl.KillNode("cnode1"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := client.Get(ctx, key); ok {
		t.Fatal("got data from dead node")
	}
	// After re-hashing, the key lands on a live partition.
	client.RemoveNode("cache1")
	client.Put(ctx, key, []byte("v2"), "b", 0)
	data, _, ok := client.Get(ctx, key)
	if !ok || string(data) != "v2" {
		t.Fatal("re-hashed key unreachable")
	}
}

// TestClientWritesAreOneWay: Put and Inject are datagrams. Against a
// partition endpoint nobody reads, both return while the messages still
// sit in its inbox — before any reply could exist — and with the
// client's timeout at an hour a write that waited for a receipt would
// hang this test rather than slow it. Once the endpoint is dropped the
// SAN refuses the send, which the caller sees only as a counter.
func TestClientWritesAreOneWay(t *testing.T) {
	net := san.NewNetwork(1)
	silent := net.Endpoint(san.Addr{Node: "cnode", Proc: "silent"}, 8)
	client := NewClient(clientEndpoint(t, net))
	client.Timeout = time.Hour
	client.AddNode("silent", silent.Addr())
	ctx := context.Background()

	client.Put(ctx, "k", []byte("original"), "b", 0)
	client.Inject(ctx, "k|distilled", []byte("small"), "b", 0)
	if queued := len(silent.Inbox()); queued != 2 {
		t.Fatalf("%d messages in the unread inbox, want the 2 writes", queued)
	}
	if writes, refused := client.WriteStats(); writes != 2 || refused != 0 {
		t.Fatalf("writes %d refused %d, want 2 and 0", writes, refused)
	}

	net.Drop(silent.Addr())
	client.Put(ctx, "k", []byte("original"), "b", 0)
	client.Inject(ctx, "k|distilled", []byte("small"), "b", 0)
	if writes, refused := client.WriteStats(); writes != 4 || refused != 2 {
		t.Fatalf("after the partition is gone: writes %d refused %d, want 4 and 2", writes, refused)
	}
}

func TestClientInjectAndStats(t *testing.T) {
	client, _ := startCacheCluster(t, 2)
	ctx := context.Background()
	client.Inject(ctx, "post-transform", []byte("tiny"), "image/sgif", 0)
	total := uint64(0)
	for _, name := range client.Nodes() {
		st, err := client.StatsOf(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Injects
	}
	if total != 1 {
		t.Fatalf("injects = %d", total)
	}
	if _, err := client.StatsOf(ctx, "ghost"); err == nil {
		t.Fatal("StatsOf unknown partition should error")
	}
}

func TestClientEmptyRing(t *testing.T) {
	net := san.NewNetwork(1)
	client := NewClient(clientEndpoint(t, net))
	if _, _, ok := client.Get(context.Background(), "x"); ok {
		t.Fatal("hit with no partitions")
	}
	client.Put(context.Background(), "x", []byte("v"), "b", 0) // no panic
}

func TestServiceTimeModel(t *testing.T) {
	net := san.NewNetwork(1)
	cl := cluster.New(net)
	cl.AddNode("c0", false)
	svc := NewService("cache0", net, "c0", NewPartition(1<<20, nil))
	svc.ServiceTime = func() time.Duration { return 20 * time.Millisecond }
	if _, err := cl.Spawn("c0", svc); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	client := NewClient(clientEndpoint(t, net))
	client.AddNode("cache0", san.Addr{Node: "c0", Proc: "cache0"})
	ctx := context.Background()
	client.Put(ctx, "k", []byte("v"), "b", 0)
	start := time.Now()
	client.Get(ctx, "k")
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("service time not applied: %v", elapsed)
	}
}
