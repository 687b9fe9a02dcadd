package vcache

// View-mode equivalence over a SAN.
// Get and GetView must be observationally identical — same data, mime,
// and hit/miss verdicts — and the copy-on-retain discipline must hold:
// bytes a caller keeps past release stay stable while the zero-copy
// pool churns underneath.

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/san"
)

func startViewCache(t *testing.T) *Client {
	t.Helper()
	client, _ := startViewCacheOn(t, NewPartition(1<<20, nil))
	return client
}

// startViewCacheOn serves part over the SAN and returns a
// client of it, and the network for tests that add endpoints.
func startViewCacheOn(t *testing.T, part *Partition) (*Client, *san.Network) {
	t.Helper()
	// Every delivery decodes views: cache responses arrive as leased
	// buffers, exactly as in production.
	net := san.NewNetwork(1)
	t.Cleanup(net.Close)
	svc := NewService("cache0", net, "cnode", part)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = svc.Run(ctx) }()

	ep := net.Endpoint(san.Addr{Node: "fe", Proc: "client"}, 256)
	client := NewClient(ep)
	client.AddNode("cache0", svc.Addr())
	return client, net
}

// TestGetViewEquivalence: for every key, Get (owning) and GetView
// (zero-copy) agree byte for byte, on hits and on misses.
func TestGetViewEquivalence(t *testing.T) {
	client := startViewCache(t)
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("obj-%d", i)
		payload := bytes.Repeat([]byte{byte(i)}, 16+i*37)
		client.Put(ctx, key, payload, "image/sjpg", 0)
	}
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("obj-%d", i)
		owned, mimeA, okA := client.Get(ctx, key)
		view, mimeB, release, okB := client.GetView(ctx, key)
		if okA != okB || mimeA != mimeB {
			t.Fatalf("%s: Get (%v,%q) vs GetView (%v,%q)", key, okA, mimeA, okB, mimeB)
		}
		if !okA {
			t.Fatalf("%s: stored object missed", key)
		}
		if !bytes.Equal(owned, view) {
			t.Fatalf("%s: Get returned %d bytes, GetView %d", key, len(owned), len(view))
		}
		if release != nil {
			release()
		}
	}
	if _, _, ok := client.Get(ctx, "absent"); ok {
		t.Fatal("Get hit on an absent key")
	}
	if _, _, release, ok := client.GetView(ctx, "absent"); ok || release != nil {
		t.Fatal("GetView hit (or leaked a release) on an absent key")
	}
}

// TestGetViewCopyOnRetain: bytes kept past release — whether from the
// owning Get or cloned out of a view — must not change while heavy
// traffic recycles the underlying lease buffers.
func TestGetViewCopyOnRetain(t *testing.T) {
	client := startViewCache(t)
	ctx := context.Background()
	want := bytes.Repeat([]byte{0x42}, 4096)
	client.Put(ctx, "keep", want, "image/gif", 0)

	owned, _, ok := client.Get(ctx, "keep")
	if !ok {
		t.Fatal("owned get missed")
	}
	view, _, release, ok := client.GetView(ctx, "keep")
	if !ok {
		t.Fatal("view get missed")
	}
	cloned := san.CloneBytes(view)
	if release != nil {
		release()
	}

	// Churn: overwrite the key and push enough distinct payloads
	// through the same wire path that the released buffers get reused
	// and refilled many times over.
	client.Put(ctx, "keep", bytes.Repeat([]byte{0x99}, 4096), "image/gif", 0)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("churn-%d", i%8)
		client.Put(ctx, key, bytes.Repeat([]byte{byte(i)}, 4096), "x", 0)
		if _, _, rel, ok := client.GetView(ctx, key); ok && rel != nil {
			rel()
		}
	}

	if !bytes.Equal(owned, want) {
		t.Fatal("bytes from the owning Get changed under pool churn")
	}
	if !bytes.Equal(cloned, want) {
		t.Fatal("bytes cloned from a view changed under pool churn")
	}
}

// TestProbePairTable walks the paired probe — key, else elseKey, in
// one round trip — through every answer it can give, over the wire
// codec so hits arrive as leased views. The "aged" entries carry a TTL
// the test's clock then runs past, so only a stale-accepting probe may
// see them.
func TestProbePairTable(t *testing.T) {
	var now atomic.Int64
	part := NewPartition(1<<20, func() time.Time { return time.Unix(0, now.Load()) })
	client, _ := startViewCacheOn(t, part)
	ctx := context.Background()
	put := func(key, body string, ttl time.Duration) {
		client.Put(ctx, key, []byte(body), "text/html", ttl)
	}
	put("U-both|d#", "both distilled", 0)
	put("orig|U-both", "both original", 0)
	put("orig|U-orig", "only original", 0)
	put("U-aged|d#", "aged distilled", time.Second)
	put("orig|U-agedorig", "aged original", time.Second)
	if _, _, ok := client.Get(ctx, "orig|U-agedorig"); !ok { // rides behind the writes: all five are stored
		t.Fatal("warm-up get missed")
	}
	now.Store(int64(2 * time.Second))
	before := part.Stats()

	cases := []struct {
		name         string
		key, elseKey string
		stale        bool
		want         string // body; "" is a miss
		wantElse     bool
		wantStale    bool
		misses       uint64 // partition misses this probe must count
	}{
		{"primary hit", "U-both|d#", "orig|U-both", false, "both distilled", false, false, 0},
		{"fallback hit", "U-orig|d#", "orig|U-orig", false, "only original", true, false, 1},
		{"both miss", "U-none|d#", "orig|U-none", false, "", false, false, 2},
		{"no fallback is the single probe", "U-orig|d#", "", false, "", false, false, 1},
		{"stale widens the primary", "U-aged|d#", "orig|U-aged", true, "aged distilled", false, true, 0},
		{"stale widens the fallback", "U-agedorig|d#", "orig|U-agedorig", true, "aged original", true, true, 1},
		{"stale asked, fresh answered", "U-both|d#", "orig|U-both", true, "both distilled", false, false, 0},
		// Last: a fresh-only Get evicts the expired entry it refuses.
		{"expired primary reads as a miss", "U-aged|d#", "orig|U-aged", false, "", false, false, 2},
	}
	for _, c := range cases {
		missed := part.Stats().Misses
		got, release := client.Probe(ctx, c.key, c.elseKey, c.stale)
		if got.Found != (c.want != "") || string(got.Data) != c.want || got.Else != c.wantElse || got.Stale != c.wantStale {
			t.Errorf("%s: found=%v else=%v stale=%v %q; want %q else=%v stale=%v", c.name, got.Found, got.Else, got.Stale, got.Data, c.want, c.wantElse, c.wantStale)
		}
		// A hit hands its caller the reply's one lease reference; a miss
		// has already returned it and hands out nothing to release.
		if (release != nil) != got.Found {
			t.Errorf("%s: found=%v but release non-nil=%v", c.name, got.Found, release != nil)
		}
		if release != nil {
			release()
		}
		if n := part.Stats().Misses - missed; n != c.misses {
			t.Errorf("%s: %d partition misses, want %d", c.name, n, c.misses)
		}
	}
	if n := client.Probes(); n != uint64(len(cases))+1 {
		t.Errorf("client counted %d probes, want one per call: %d", n, len(cases)+1)
	}
	if after := part.Stats(); after.Hits-before.Hits != 5 {
		t.Errorf("%d partition hits over the table, want 5", after.Hits-before.Hits)
	}
}

// TestProbeDeadPartitionIsAMiss: a partition that never answers costs
// a paired probe its Timeout and reads as a miss; one whose endpoint is
// gone is refused at once.
func TestProbeDeadPartitionIsAMiss(t *testing.T) {
	client, net := startViewCacheOn(t, NewPartition(1<<20, nil))
	silent := net.Endpoint(san.Addr{Node: "cnode", Proc: "silent"}, 8)
	client.RemoveNode("cache0")
	client.AddNode("silent", silent.Addr())
	client.Timeout = 50 * time.Millisecond
	for _, gone := range []bool{false, true} {
		if gone {
			net.Drop(silent.Addr())
		}
		start := time.Now()
		got, release := client.Probe(context.Background(), "U|d#", "orig|U", true)
		if got.Found || release != nil {
			t.Fatalf("endpoint gone=%v: found=%v release non-nil=%v, want a plain miss", gone, got.Found, release != nil)
		}
		if took := time.Since(start); took > 2*time.Second || (!gone && took < client.Timeout) {
			t.Fatalf("endpoint gone=%v: miss after %v with Timeout %v", gone, took, client.Timeout)
		}
	}
}
