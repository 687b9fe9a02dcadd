package transport

// Blob relay: the FE→cache→FE data path over a real two-bridge SAN,
// exercised at the paper's content sizes (a small HTML page, a mid-size
// image, a huge GIF). This is the path the zero-copy data plane exists
// for: the root micro-benchmark table (go test -bench 'Micro/blob_relay'
// repro) tracks per-request cost at each size, and the latency test
// here pins down the property chunked relay buys — a 512 KB body in
// flight does not stall small frames behind it.

import (
	"bytes"
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/vcache"
)

// relayPair is the FE→cache→FE harness: a vcache service behind one
// bridge, a client endpoint behind the other, loopback TCP between.
type relayPair struct {
	client     *vcache.Client
	netA, netB *san.Network
	ba, bb     *Bridge
}

func startRelayPair(tb testing.TB) *relayPair {
	tb.Helper()
	netA, netB := newWireNet(1), newWireNet(2)
	tb.Cleanup(func() { netA.Close() })
	tb.Cleanup(func() { netB.Close() })
	ba, err := New(Config{Net: netA, Listen: "tcp:127.0.0.1:0", ID: "relay-a"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ba.Close() })
	bb, err := New(Config{Net: netB, Listen: "tcp:127.0.0.1:0", ID: "relay-b", Join: []string{ba.Advertise()}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { bb.Close() })
	if !ba.WaitPeers(1, 5*time.Second) || !bb.WaitPeers(1, 5*time.Second) {
		tb.Fatal("bridges never connected")
	}

	svc := vcache.NewService("cache0", netB, "b-cnode", vcache.NewPartition(256<<20, nil))
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	go func() { _ = svc.Run(ctx) }()

	ep := netA.Endpoint(san.Addr{Node: "a-fe", Proc: "client"}, 256)
	go func() {
		for msg := range ep.Inbox() {
			ep.DeliverReply(msg)
		}
	}()
	client := vcache.NewClient(ep)
	client.AddNode("cache0", svc.Addr())
	return &relayPair{client: client, netA: netA, netB: netB, ba: ba, bb: bb}
}

// TestChunkedRelayLatency: while 512 KB responses stream continuously
// across the bridge, interleaved small requests must keep answering
// promptly — the chunked relay splits the big body into chunkFrag
// fragments precisely so a small frame is never queued behind more
// than a couple of them. Also asserts the stream arrived intact, via
// the chunk counters and a clean wire-error count.
func TestChunkedRelayLatency(t *testing.T) {
	pair := startRelayPair(t)
	ctx := context.Background()
	const big = 512 << 10
	payload := bytes.Repeat([]byte{0xCD}, big)
	pair.client.Put(ctx, "big", payload, "image/gif", 0)
	pair.client.Put(ctx, "small", []byte("tiny object"), "text/html", 0)

	// Saturate the B→A direction with chunked 512 KB responses.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			data, _, release, ok := pair.client.GetView(ctx, "big")
			if ok {
				if len(data) != big || data[0] != 0xCD || data[big-1] != 0xCD {
					t.Errorf("big body corrupt: len=%d", len(data))
				}
				if release != nil {
					release()
				}
			}
		}
	}()

	// Interleave small fetches and collect their round-trip times.
	rtts := make([]time.Duration, 0, 100)
	deadline := time.Now().Add(10 * time.Second)
	for len(rtts) < 100 && time.Now().Before(deadline) {
		start := time.Now()
		data, _, release, ok := pair.client.GetView(ctx, "small")
		if !ok {
			t.Fatal("small get missed while big bodies streamed")
		}
		if string(data) != "tiny object" {
			t.Fatalf("small body corrupt: %q", data)
		}
		if release != nil {
			release()
		}
		rtts = append(rtts, time.Since(start))
	}
	close(stop)
	<-done

	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	median := rtts[len(rtts)/2]
	// The bound is deliberately far above a loopback RTT but far below
	// what a wedged batcher (small frames stuck behind 512 KB bodies
	// for a write-deadline's worth of flushes) would produce.
	if median > 100*time.Millisecond {
		t.Fatalf("median small-frame RTT %v while 512 KB bodies streamed; chunked relay is not interleaving", median)
	}

	if st := pair.bb.Stats(); st.Chunked == 0 {
		t.Fatal("cache-side bridge never chunked a 512 KB response")
	}
	if st := pair.ba.Stats(); st.Reassembled == 0 {
		t.Fatal("client-side bridge never reassembled a chunk stream")
	}
	if we := pair.netA.Stats().WireErrors + pair.netB.Stats().WireErrors; we != 0 {
		t.Fatalf("wire errors: %d", we)
	}
	if fe := pair.ba.Stats().FrameErrors + pair.bb.Stats().FrameErrors; fe != 0 {
		t.Fatalf("frame errors: %d", fe)
	}
}
