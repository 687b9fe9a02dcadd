package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/tacc"
)

// newWireNet builds a network carrying the production codec.
func newWireNet(seed int64) *san.Network {
	return san.NewNetwork(seed, san.WithCodec(stub.WireCodec{}))
}

// bridgePair splices two fresh networks over loopback TCP and waits
// for the mesh to form.
func bridgePair(t *testing.T) (*san.Network, *san.Network, *Bridge, *Bridge) {
	t.Helper()
	netA, netB := newWireNet(1), newWireNet(2)
	ba, err := New(Config{Net: netA, Listen: "tcp:127.0.0.1:0", ID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ba.Close() })
	bb, err := New(Config{Net: netB, Listen: "tcp:127.0.0.1:0", ID: "b", Join: []string{ba.Advertise()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bb.Close() })
	if !ba.WaitPeers(1, 5*time.Second) || !bb.WaitPeers(1, 5*time.Second) {
		t.Fatal("bridges never connected")
	}
	return netA, netB, ba, bb
}

// drainTo collects inbox messages into a channel-agnostic poller.
func awaitMsg(t *testing.T, ep *san.Endpoint, timeout time.Duration) san.Message {
	t.Helper()
	select {
	case msg, ok := <-ep.Inbox():
		if !ok {
			t.Fatal("inbox closed while waiting")
		}
		return msg
	case <-time.After(timeout):
		t.Fatal("no message within timeout")
	}
	return san.Message{}
}

// TestBridgeUnicastAndReply: a Send crosses the wire, and a Call/
// Respond round trip works across processes — call ids and the reply
// flag survive framing.
func TestBridgeUnicastAndReply(t *testing.T) {
	netA, netB, ba, bb := bridgePair(t)

	// The caller's inbox is full and nobody reads it: the reply frame
	// goes from the bridge's reader straight to the waiting Call.
	fe := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "fe0"}, 1)
	wk := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "w0"}, 64)
	if err := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "noise"}, 1).Send(fe.Addr(), stub.MsgEnable, nil, 0); err != nil {
		t.Fatal(err)
	}

	// Worker loop: echo every task back as a result.
	go func() {
		for msg := range wk.Inbox() {
			if msg.Kind == stub.MsgTask {
				tm := msg.Body.(stub.TaskMsg)
				_ = wk.Respond(msg, stub.MsgResult, stub.ResultMsg{Blob: tm.Task.Input}, 64)
			}
		}
	}()

	// Plain send A->B (routed by B's advert, or flooded until it lands).
	if err := fe.Send(wk.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "echo"}, 16); err != nil {
		t.Fatalf("cross-process send: %v", err)
	}

	// Call round trip.
	task := stub.TaskMsg{Task: taccTask("hello-across-processes")}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var resp san.Message
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		cctx, ccancel := context.WithTimeout(ctx, 2*time.Second)
		resp, err = fe.Call(cctx, wk.Addr(), stub.MsgTask, task, 128)
		ccancel()
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("cross-process call: %v", err)
	}
	rm, ok := resp.Body.(stub.ResultMsg)
	if !ok || string(rm.Blob.Data) != "hello-across-processes" {
		t.Fatalf("reply body wrong: %#v", resp.Body)
	}
	if n := len(fe.Inbox()); n != 1 {
		t.Fatalf("caller's inbox holds %d messages, want the 1 it was filled with", n)
	}

	// Zero wire errors anywhere, and frames flowed both ways.
	for name, n := range map[string]*san.Network{"A": netA, "B": netB} {
		if s := n.Stats(); s.WireErrors != 0 {
			t.Fatalf("net %s: WireErrors=%d", name, s.WireErrors)
		}
	}
	if ba.Stats().FramesIn == 0 || bb.Stats().FramesIn == 0 {
		t.Fatal("frames did not flow both ways")
	}
}

// TestBridgeMulticast: a multicast on one network reaches group
// members on the other; encode-once bytes cross the wire once per
// peer, not once per remote member.
func TestBridgeMulticast(t *testing.T) {
	netA, netB, _, bb := bridgePair(t)

	mgr := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "manager"}, 64)
	w1 := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "w1"}, 64)
	w2 := netB.Endpoint(san.Addr{Node: "b-n1", Proc: "w2"}, 64)
	w1.Join(stub.GroupControl)
	w2.Join(stub.GroupControl)
	// Membership changes are local; the bridge needs no announcement.

	beacon := stub.Beacon{Manager: mgr.Addr(), Seq: 7}
	deadline := time.Now().Add(5 * time.Second)
	got1, got2 := false, false
	for !(got1 && got2) && time.Now().Before(deadline) {
		mgr.Multicast(stub.GroupControl, stub.MsgBeacon, beacon, 64)
		select {
		case m := <-w1.Inbox():
			if b, ok := m.Body.(stub.Beacon); ok && b.Seq == 7 {
				got1 = true
			}
		case <-time.After(20 * time.Millisecond):
		}
		select {
		case m := <-w2.Inbox():
			if b, ok := m.Body.(stub.Beacon); ok && b.Seq == 7 {
				got2 = true
			}
		case <-time.After(20 * time.Millisecond):
		}
	}
	if !got1 || !got2 {
		t.Fatalf("multicast did not reach remote members: w1=%v w2=%v", got1, got2)
	}
	if s := netB.Stats(); s.WireErrors != 0 {
		t.Fatalf("WireErrors=%d on receiving net", s.WireErrors)
	}
	if bb.Stats().Injected == 0 {
		t.Fatal("nothing injected on B")
	}
}

// TestBridgeBurstBatches is the batching acceptance test on the real
// path: a send burst across the bridge must average >=2 frames per
// write syscall.
func TestBridgeBurstBatches(t *testing.T) {
	netA, netB, ba, _ := bridgePair(t)
	src := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "src"}, 64)
	dst := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "dst"}, 1<<14)
	go func() {
		for range dst.Inbox() {
		}
	}()

	const burst = 1000
	req := stub.SpawnReq{Class: "burst"}
	for i := 0; i < burst; i++ {
		if err := src.Send(dst.Addr(), stub.MsgSpawnReq, req, 16); err != nil {
			t.Fatal(err)
		}
	}
	// Allow the tail flush.
	time.Sleep(20 * time.Millisecond)
	st := ba.Stats()
	if st.FramesOut < burst {
		t.Fatalf("only %d frames left the bridge, want >= %d", st.FramesOut, burst)
	}
	perBatch := float64(st.FramesOut) / float64(st.Batches)
	if perBatch < 2 {
		t.Fatalf("burst averaged %.2f frames/batch (frames=%d batches=%d), want >= 2",
			perBatch, st.FramesOut, st.Batches)
	}
	t.Logf("burst packing: %d frames in %d batches (%.1f frames/batch)", st.FramesOut, st.Batches, perBatch)
}

// TestBridgeAdvertRouting: endpoint-table advertisement kills the
// first-packet flood. In a three-process mesh, a send to a remote
// endpoint that has produced no traffic yet routes straight to the
// advertising peer — the bridge never floods.
func TestBridgeAdvertRouting(t *testing.T) {
	netA, netB, ba, _ := bridgePair(t)
	netC := newWireNet(3)
	bc, err := New(Config{Net: netC, Listen: "tcp:127.0.0.1:0", ID: "c", Join: []string{ba.Advertise()}})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if !ba.WaitPeers(2, 5*time.Second) || !bc.WaitPeers(2, 5*time.Second) {
		t.Fatal("mesh never formed")
	}

	src := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "src"}, 8)
	dst := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "dst"}, 64)

	// Wait until A has seen B's advert for dst (hello or incremental).
	waitAdvertised := func() bool {
		ba.mu.RLock()
		_, ok := ba.advertised[dst.Addr()]
		ba.mu.RUnlock()
		return ok
	}
	deadline := time.Now().Add(5 * time.Second)
	for !waitAdvertised() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !waitAdvertised() {
		t.Fatal("dst was never advertised to A")
	}

	if err := src.Send(dst.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "routed"}, 16); err != nil {
		t.Fatalf("advert-routed send: %v", err)
	}
	if m := awaitMsg(t, dst, 5*time.Second); m.Body.(stub.SpawnReq).Class != "routed" {
		t.Fatal("advert-routed message wrong")
	}
	if f := ba.Stats().Floods; f != 0 {
		t.Fatalf("first packet flooded %d times despite the advert", f)
	}
	// C, the uninvolved peer, never saw the unicast.
	if inj := bc.Stats().Injected; inj != 0 {
		t.Fatalf("bystander process received %d injected frames", inj)
	}
}

// TestBridgeInvalidationOnClose: closing a remote endpoint reaches the
// sender as an advert-down; the next send fails fast with
// ErrUnknownAddr instead of silently flooding the mesh forever.
func TestBridgeInvalidationOnClose(t *testing.T) {
	netA, netB, ba, _ := bridgePair(t)
	src := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "src"}, 8)
	dst := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "dst"}, 64)

	// Establish the route (and drain the delivery).
	deadline := time.Now().Add(5 * time.Second)
	delivered := false
	for !delivered && time.Now().Before(deadline) {
		_ = src.Send(dst.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "pre"}, 16)
		select {
		case <-dst.Inbox():
			delivered = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !delivered {
		t.Fatal("route never established")
	}

	// Crash the endpoint (no goodbye traffic): the SAN tells the
	// bridge, the bridge tells its peers.
	netB.Drop(dst.Addr())
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		err := src.Send(dst.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "post"}, 16)
		if errors.Is(err, san.ErrUnknownAddr) {
			if ba.Stats().Unroutable == 0 {
				t.Fatal("unroutable send not counted")
			}
			// Re-registration revives the address.
			dst2 := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "dst"}, 64)
			for time.Now().Before(deadline) {
				if err := src.Send(dst2.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "back"}, 16); err == nil {
					select {
					case <-dst2.Inbox():
						return
					case <-time.After(10 * time.Millisecond):
					}
				}
			}
			t.Fatal("address never revived after re-registration")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("dead endpoint never became unroutable at the sender")
}

// TestBridgeMeshGossip: a third process joining via one seed learns of
// — and connects to — the seed's existing peer.
func TestBridgeMeshGossip(t *testing.T) {
	netA, _, ba, _ := bridgePair(t)
	_ = netA
	netC := newWireNet(3)
	bc, err := New(Config{Net: netC, Listen: "tcp:127.0.0.1:0", ID: "c", Join: []string{ba.Advertise()}})
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if !bc.WaitPeers(2, 5*time.Second) {
		t.Fatalf("joiner only reached %v; gossip did not complete the mesh", bc.Peers())
	}
	if !ba.WaitPeers(2, 5*time.Second) {
		t.Fatalf("seed only sees %v", ba.Peers())
	}
}

// TestBridgeReconnect: severing a connection heals automatically and
// traffic resumes.
func TestBridgeReconnect(t *testing.T) {
	netA, netB, ba, bb := bridgePair(t)
	src := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "src"}, 64)
	dst := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "dst"}, 256)

	if err := src.Send(dst.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "pre"}, 16); err != nil {
		t.Fatal(err)
	}
	if m := awaitMsg(t, dst, 5*time.Second); m.Body.(stub.SpawnReq).Class != "pre" {
		t.Fatal("pre-cut message wrong")
	}

	// Cut every live connection out from under both bridges.
	ba.SeverPeers(0)
	bb.SeverPeers(0)

	// Datagram semantics: sends during the outage may drop. Keep
	// sending until one lands again.
	deadline := time.Now().Add(10 * time.Second)
	recovered := false
	for !recovered && time.Now().Before(deadline) {
		_ = src.Send(dst.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "post"}, 16)
		select {
		case m, ok := <-dst.Inbox():
			if ok {
				if r, is := m.Body.(stub.SpawnReq); is && r.Class == "post" {
					recovered = true
				}
			}
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !recovered {
		t.Fatal("traffic never resumed after the cut")
	}
}

// TestBridgeUnixSocket: the same splice over a unix domain socket —
// the zero-config local deployment mode.
func TestBridgeUnixSocket(t *testing.T) {
	dir := t.TempDir()
	netA, netB := newWireNet(1), newWireNet(2)
	ba, err := New(Config{Net: netA, Listen: "unix:" + dir + "/a.sock", ID: "ua"})
	if err != nil {
		t.Fatal(err)
	}
	defer ba.Close()
	if ba.ID() != "ua" {
		t.Fatalf("ID() = %q", ba.ID())
	}
	bb, err := New(Config{Net: netB, Listen: "unix:" + dir + "/b.sock", ID: "ub", Join: []string{ba.Advertise()}})
	if err != nil {
		t.Fatal(err)
	}
	defer bb.Close()
	if !ba.WaitPeers(1, 5*time.Second) {
		t.Fatal("unix-socket bridges never connected")
	}
	if peers := ba.Peers(); len(peers) != 1 || peers[0] != "ub" {
		t.Fatalf("Peers() = %v", peers)
	}

	src := netA.Endpoint(san.Addr{Node: "n0", Proc: "src"}, 8)
	dst := netB.Endpoint(san.Addr{Node: "n1", Proc: "dst"}, 64)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_ = src.Send(dst.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "ux"}, 16)
		select {
		case m := <-dst.Inbox():
			if m.Body.(stub.SpawnReq).Class == "ux" {
				return
			}
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("no delivery over unix sockets")
}

// TestBridgeRejectsBadConfig: a bridge needs a network and an address
// to listen on.
func TestBridgeRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Listen: "tcp:127.0.0.1:0"}); err == nil {
		t.Fatal("bridge accepted a nil network")
	}
	if _, err := New(Config{Net: newWireNet(1), Listen: ""}); err == nil {
		t.Fatal("bridge accepted an empty listen address")
	}
}

// TestBridgeTeardownNoLeaks: the Close path — bridge, then network —
// joins every goroutine it started. This is the regression test for
// san.Network.Close's contract with the transport layer.
func TestBridgeTeardownNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		netA, netB := newWireNet(10), newWireNet(11)
		ba, err := New(Config{Net: netA, Listen: "tcp:127.0.0.1:0", ID: fmt.Sprintf("la%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		bb, err := New(Config{Net: netB, Listen: "tcp:127.0.0.1:0", ID: fmt.Sprintf("lb%d", i), Join: []string{ba.Advertise()}})
		if err != nil {
			t.Fatal(err)
		}
		if !ba.WaitPeers(1, 5*time.Second) {
			t.Fatal("no peer")
		}
		src := netA.Endpoint(san.Addr{Node: "n0", Proc: "src"}, 64)
		dst := netB.Endpoint(san.Addr{Node: "n1", Proc: "dst"}, 64)
		go func() {
			for range dst.Inbox() {
			}
		}()
		for j := 0; j < 50; j++ {
			_ = src.Send(dst.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "x"}, 16)
		}
		_ = bb.Close()
		_ = ba.Close()
		netA.Close()
		netB.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after teardown", before, runtime.NumGoroutine())
}

func taccTask(payload string) tacc.Task {
	return tacc.Task{Key: "k", Input: tacc.Blob{MIME: "text/plain", Data: []byte(payload)}}
}
