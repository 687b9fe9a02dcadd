package transport

// Blob relay: the FE→cache→FE data path over a real two-bridge SAN,
// exercised at the paper's content sizes (a small HTML page, a mid-size
// image, a huge GIF). This is the path the zero-copy data plane exists
// for: the root micro-benchmark table (go test -bench 'Micro/blob_relay'
// repro) tracks per-request cost at each size, and the tests here pin
// what a chunked body costs: one write per stream, and a 512 KB body in
// flight stalls a small frame for no more than that one write.

import (
	"bytes"
	"context"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/vcache"
)

// relayPair is the FE→cache→FE harness: a vcache service behind one
// bridge, a client endpoint behind the other, loopback TCP between.
type relayPair struct {
	client     *vcache.Client
	cache      san.Addr
	netA, netB *san.Network
	ba, bb     *Bridge
}

// newRelayClient attaches one more virtual-cache client, on an endpoint
// of its own, to a network bridged to the pair's cache.
func (p *relayPair) newRelayClient(net *san.Network, node, proc string) *vcache.Client {
	ep := net.Endpoint(san.Addr{Node: node, Proc: proc}, 256)
	client := vcache.NewClient(ep)
	client.AddNode("cache0", p.cache)
	return client
}

func startRelayPair(tb testing.TB) *relayPair {
	tb.Helper()
	netA, netB := san.NewNetwork(1), san.NewNetwork(2)
	tb.Cleanup(func() { netA.Close() })
	tb.Cleanup(func() { netB.Close() })
	ba, err := New(Config{Net: netA, Listen: "tcp:127.0.0.1:0", ID: "a-"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ba.Close() })
	bb, err := New(Config{Net: netB, Listen: "tcp:127.0.0.1:0", ID: "b-", Join: []string{ba.Advertise()}})
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

	pair := &relayPair{cache: svc.Addr(), netA: netA, netB: netB, ba: ba, bb: bb}
	pair.client = pair.newRelayClient(netA, "a-fe", "client")
	return pair
}

// fillRound stamps body with a pattern unique to (round, position), so
// a probe answered with any earlier round's bytes cannot pass.
func fillRound(body []byte, round int) {
	for i := range body {
		body[i] = byte(round + i)
	}
}

// probeRound fetches key and reports whether it holds exactly body.
func probeRound(client *vcache.Client, key string, body []byte) (hit, same bool) {
	data, _, release, ok := client.GetView(context.Background(), key)
	if !ok {
		return false, false
	}
	same = bytes.Equal(data, body)
	if release != nil {
		release()
	}
	return true, same
}

// probePair issues the paired probe (key, else elseKey) and reports
// whether the expected key answered it with the expected bytes.
func probePair(client *vcache.Client, key, elseKey string, want []byte, wantElse bool) bool {
	got, release := client.Probe(context.Background(), key, elseKey, false)
	ok := got.Found && got.Else == wantElse && bytes.Equal(got.Data, want)
	if release != nil {
		release()
	}
	return ok
}

// TestCacheWritesReadYourWrites is the argument one-way cache writes
// rest on: Put and Inject send no receipt, yet a probe issued after the
// write returns always sees it, because both ride one connection whose
// batcher keeps append order, the peer's read loop injects in arrival
// order, and the partition drains its inbox serially. The three sizes
// are the three ways a write leaves: 32 KiB is one vectored frame its
// appender writes at once, 4 KiB is staged for the flush timer (the
// prompt probe behind it writes both), 256 KiB crosses as chunk
// fragments that are reassembled before the probe behind them is
// injected. They run concurrently off one endpoint so fragments and
// small frames interleave. Every round overwrites its key: a hit with
// the previous round's bytes is a failure too. A fourth writer does what
// a miss does, on a URL new every round: right behind only the Put of
// the original, the paired probe (variant, else original) is answered
// by the fallback key; right behind the Inject of the variant, by the
// primary.
func TestCacheWritesReadYourWrites(t *testing.T) {
	pair := startRelayPair(t)
	ctx := context.Background()
	cases := []struct {
		key    string
		size   int
		inject bool
	}{
		{"put-32k", 32 << 10, false},
		{"inject-4k", 4 << 10, true},
		{"put-256k-chunked", 256 << 10, false},
	}
	var wg sync.WaitGroup
	for _, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := make([]byte, c.size)
			for round := 0; round < 500; round++ {
				fillRound(body, round)
				if c.inject {
					pair.client.Inject(ctx, c.key, body, "image/sjpg", 0)
				} else {
					pair.client.Put(ctx, c.key, body, "image/sjpg", 0)
				}
				if hit, same := probeRound(pair.client, c.key, body); !hit || !same {
					t.Errorf("%s round %d: probe right behind the write: hit=%v right bytes=%v", c.key, round, hit, same)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		orig, variant := make([]byte, 12<<10), make([]byte, 3<<10)
		for round := 0; round < 500; round++ {
			url := "http://pair.example/" + strconv.Itoa(round) + ".sjpg"
			origKey, variantKey := "orig|"+url, url+"|distill-sjpg#"
			fillRound(orig, round)
			fillRound(variant, round+1)
			pair.client.Put(ctx, origKey, orig, "image/sjpg", 0)
			if !probePair(pair.client, variantKey, origKey, orig, true) {
				t.Errorf("round %d: paired probe behind only the Put was not answered by the original", round)
				return
			}
			pair.client.Inject(ctx, variantKey, variant, "image/sjpg", 0)
			if !probePair(pair.client, variantKey, origKey, variant, false) {
				t.Errorf("round %d: paired probe behind the Inject was not answered by the variant", round)
				return
			}
		}
	}()
	wg.Wait()
	if st := pair.ba.Stats(); st.Chunked < 500 || st.Backpressure != 0 {
		t.Fatalf("client-side bridge: chunked %d (want >= 500), backpressure %d (want 0)", st.Chunked, st.Backpressure)
	}
	if w, werrs := pair.client.WriteStats(); w != 2500 || werrs != 0 {
		t.Fatalf("client counted %d writes, %d refused; want 2500, 0", w, werrs)
	}
}

// TestCacheWritesAcrossEndpoints marks the edge of that promise. It is
// per connection, not per endpoint: two endpoints of one process (two
// front ends in one node) share the bridge connection, so what one
// wrote the other reads as soon as the write has returned. A writer in
// a third process has a connection of its own to the cache's process,
// and nothing orders the two: the reader's probe may overtake the
// write, so all that is asserted there is that the write arrives.
func TestCacheWritesAcrossEndpoints(t *testing.T) {
	pair := startRelayPair(t)
	ctx := context.Background()
	body := make([]byte, 4<<10)

	sibling := pair.newRelayClient(pair.netA, "a-fe", "sibling")
	for round := 0; round < 200; round++ {
		fillRound(body, round)
		sibling.Inject(ctx, "shared", body, "image/sjpg", 0)
		if hit, same := probeRound(pair.client, "shared", body); !hit || !same {
			t.Fatalf("round %d: sibling endpoint's write, same connection: hit=%v right bytes=%v", round, hit, same)
		}
	}

	netC := san.NewNetwork(3)
	t.Cleanup(netC.Close)
	bc, err := New(Config{Net: netC, Listen: "tcp:127.0.0.1:0", ID: "c-", Join: []string{pair.bb.Advertise()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	if !bc.WaitPeers(2, 5*time.Second) {
		t.Fatalf("third process only reached %v", bc.Peers())
	}
	remote := pair.newRelayClient(netC, "c-fe", "remote")
	overtaken := 0
	deadline := time.Now().Add(10 * time.Second)
	for round := 0; round < 50; round++ {
		fillRound(body, 1000+round)
		remote.Inject(ctx, "shared", body, "image/sjpg", 0)
		// Each probe is a full round trip, so this polls without spinning.
		for first := true; ; first = false {
			if _, same := probeRound(pair.client, "shared", body); same {
				break
			}
			if first {
				overtaken++
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: a write from another process never became visible", round)
			}
		}
	}
	t.Logf("%d of 50 probes overtook a write made over another connection", overtaken)
}

// TestChunkedRelayLatency: while 512 KB responses stream continuously
// across the bridge, interleaved small requests must keep answering
// promptly. A stream is one append and one write, so a small frame
// staged meanwhile waits behind at most one stream's write (a 512 KB
// writev on loopback), then rides the next. Also asserts the stream
// arrived intact, via the chunk counters and a clean wire-error count.
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
	t.Logf("median small-frame RTT %v over %d fetches while 512 KB bodies streamed", median, len(rtts))
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

// TestChunkedReplyOneWrite: a 256 KB Call reply with a 100-byte tail
// (a cache.got's shape) crosses as 17 chunk fragments handed to the
// responder's batcher in one append, so each reply costs the
// responder's bridge exactly one write, run at once by the responder:
// no fragment is a write of its own, and the tail never waits for the
// flush timer.
func TestChunkedReplyOneWrite(t *testing.T) {
	netA, netB, _, bb := bridgePair(t)
	caller := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "fe0"}, 8)
	callee := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "cache0"}, 8)
	reply := make([]byte, 256<<10+100)
	go func() {
		for msg := range callee.Inbox() {
			_ = callee.Respond(msg, "blob", reply, len(reply))
			msg.Release()
		}
	}()

	const calls = 20
	before := bb.Stats()
	for i := 0; i < calls; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := caller.Call(ctx, callee.Addr(), "blob", []byte("get"), 3)
		cancel()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := len(resp.Body.([]byte)); got != len(reply) {
			t.Fatalf("call %d: reply of %d bytes, want %d", i, got, len(reply))
		}
		resp.Release()
	}
	// The drainer counts its write after the bytes have left, so the
	// last reply can arrive a moment before its batch is counted.
	deadline := time.Now().Add(2 * time.Second)
	for bb.Stats().Batches-before.Batches < calls && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	after := bb.Stats()
	frames := after.FramesOut - before.FramesOut
	if batches := after.Batches - before.Batches; batches != calls {
		t.Fatalf("%d replies of 256 KB cost %d writes (%d frames), want one each", calls, batches, frames)
	}
	if timer := after.TimerWrites - before.TimerWrites; timer != 0 {
		t.Fatalf("%d of the writes waited for the flush timer, want none", timer)
	}
	if frames != calls*17 {
		t.Fatalf("%d replies crossed as %d frames, want 17 each", calls, frames)
	}
}
