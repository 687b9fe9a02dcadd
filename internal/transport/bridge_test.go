package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// bridgePair splices two fresh networks over loopback TCP and waits
// for the mesh to form. A owns the "a-" nodes, B the "b-" nodes.
func bridgePair(t *testing.T) (*san.Network, *san.Network, *Bridge, *Bridge) {
	t.Helper()
	netA, netB := san.NewNetwork(1), san.NewNetwork(2)
	ba, err := New(Config{Net: netA, Listen: "tcp:127.0.0.1:0", ID: "a-"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ba.Close() })
	bb, err := New(Config{Net: netB, Listen: "tcp:127.0.0.1:0", ID: "b-", Join: []string{ba.Advertise()}})
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
	if err := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "noise"}, 1).Send(fe.Addr(), vcache.MsgStats, nil, 0); err != nil {
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

	// Plain send A->B, routed to B: it owns b-n0.
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
	// The bridge counts an injection once InjectMulticast returns, which
	// may be after a member already holds the frame.
	for deadline := time.Now().Add(5 * time.Second); bb.Stats().Injected == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
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

// joinThird adds bridge C, owner of the "c-" nodes, to a's mesh and
// waits until all three are connected.
func joinThird(t *testing.T, ba *Bridge) (*san.Network, *Bridge) {
	t.Helper()
	netC := san.NewNetwork(3)
	t.Cleanup(netC.Close)
	bc, err := New(Config{Net: netC, Listen: "tcp:127.0.0.1:0", ID: "c-", Join: []string{ba.Advertise()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	if !ba.WaitPeers(2, 5*time.Second) || !bc.WaitPeers(2, 5*time.Second) {
		t.Fatal("mesh never formed")
	}
	return netC, bc
}

// callWithin makes one Call under a 5 s timeout and returns its error
// and how long it took.
func callWithin(src *san.Endpoint, to san.Addr) (error, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := src.Call(ctx, to, stub.MsgTask, stub.TaskMsg{}, 16)
	return err, time.Since(start)
}

// TestBridgePrefixRouting: a node's owner is its name prefix. In a
// three-process mesh, the very first packet to a remote endpoint that
// has produced no traffic goes straight to the process owning its node,
// and the uninvolved peer never sees it.
func TestBridgePrefixRouting(t *testing.T) {
	netA, netB, ba, _ := bridgePair(t)
	_, bc := joinThird(t, ba)

	src := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "src"}, 8)
	dst := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "dst"}, 64)
	if err := src.Send(dst.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "routed"}, 16); err != nil {
		t.Fatalf("first send: %v", err)
	}
	if m := awaitMsg(t, dst, 5*time.Second); m.Body.(stub.SpawnReq).Class != "routed" {
		t.Fatal("routed message wrong")
	}
	if inj := bc.Stats().Injected; inj != 0 {
		t.Fatalf("bystander process received %d injected frames", inj)
	}
	if st := ba.Stats(); st.Unroutable != 0 || st.Floods != 0 {
		t.Fatalf("unroutable %d, floods %d: want the send routed", st.Unroutable, st.Floods)
	}
}

// TestBridgeInvalidationOnClose: a remote endpoint that crashed (no
// goodbye traffic) is invalid where it lived: a Call to it is answered
// by its owning process and ends with ErrUnknownAddr at once instead of
// at its timeout, and re-registering the address revives it.
func TestBridgeInvalidationOnClose(t *testing.T) {
	netA, netB, ba, _ := bridgePair(t)
	src := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "src"}, 8)
	dst := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "dst"}, 64)
	if err := src.Send(dst.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "pre"}, 16); err != nil {
		t.Fatal(err)
	}
	awaitMsg(t, dst, 5*time.Second)

	netB.Drop(dst.Addr())
	if err, took := callWithin(src, dst.Addr()); !errors.Is(err, san.ErrUnknownAddr) || took > time.Second {
		t.Fatalf("a Call to a crashed endpoint: %v after %v, want %v at once", err, took, san.ErrUnknownAddr)
	}
	if u := ba.Stats().Unroutable; u != 0 {
		t.Fatalf("%d sends refused at the caller: the owner, not the sender, knows the endpoint is gone", u)
	}

	dst2 := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "dst"}, 64)
	if err := src.Send(dst2.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "back"}, 16); err != nil {
		t.Fatal(err)
	}
	if m := awaitMsg(t, dst2, 5*time.Second); m.Body.(stub.SpawnReq).Class != "back" {
		t.Fatal("address never revived after re-registration")
	}
}

// TestBridgeCallToUnknownAddrEndsAtOnce: a Call to an address nobody
// ever registered, on a node a connected peer owns, is answered by that
// peer: it ends with ErrUnknownAddr within 100 ms of a 5 s timeout. A
// Call to a live endpoint beside it is answered normally.
func TestBridgeCallToUnknownAddrEndsAtOnce(t *testing.T) {
	netA, netB, _, bb := bridgePair(t)
	src := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "fe0"}, 8)
	live := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "w0"}, 64)
	go func() {
		for msg := range live.Inbox() {
			_ = live.Respond(msg, stub.MsgResult, stub.ResultMsg{}, 16)
		}
	}()

	for i := 0; i < 3; i++ {
		err, took := callWithin(src, san.Addr{Node: "b-n0", Proc: "nobody"})
		if !errors.Is(err, san.ErrUnknownAddr) || took >= 100*time.Millisecond {
			t.Fatalf("call %d to a never-registered address: %v after %v, want %v within 100 ms", i, err, took, san.ErrUnknownAddr)
		}
		if err, _ := callWithin(src, live.Addr()); err != nil {
			t.Fatalf("call %d to the live endpoint beside it: %v", i, err)
		}
	}
	if u := bb.Stats().Unroutable; u != 0 {
		t.Fatalf("the owner refused %d of its own answers", u)
	}
}

// TestBridgeCallToFullInboxEndsAtOnce: a Call whose request reaches its
// callee's process but finds the callee's inbox full is answered by that
// process with a down frame, so it ends with ErrUnknownAddr in
// milliseconds, not at its 5 s deadline — as a local Call to a full
// inbox does. Once the inbox drains, the next Call reaches the callee.
func TestBridgeCallToFullInboxEndsAtOnce(t *testing.T) {
	netA, netB, _, _ := bridgePair(t)
	src := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "fe0"}, 8)
	callee := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "cache0"}, 1) // read by nobody yet
	if err := src.Send(callee.Addr(), stub.MsgSpawnReq, stub.SpawnReq{Class: "fill"}, 16); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(callee.Inbox()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the filling send never arrived")
		}
	}

	err, took := callWithin(src, callee.Addr())
	if !errors.Is(err, san.ErrUnknownAddr) || took >= 100*time.Millisecond {
		t.Fatalf("a Call to a full inbox in another process: %v after %v, want %v within 100 ms", err, took, san.ErrUnknownAddr)
	}
	if full := netB.Stats().InboxFull; full != 1 {
		t.Fatalf("callee's process counted %d full-inbox drops, want 1", full)
	}

	<-callee.Inbox()
	go func() {
		for msg := range callee.Inbox() {
			_ = callee.Respond(msg, stub.MsgResult, stub.ResultMsg{}, 16)
		}
	}()
	if err, _ := callWithin(src, callee.Addr()); err != nil {
		t.Fatalf("a Call once the inbox drained: %v", err)
	}
}

// TestBridgeSeveredOwnerEndsAtOnce: with three bridges, once C has
// severed its peers no connected process owns the "c-" nodes, so a Call
// from A to one is refused at A and ends at once — nothing is sent to
// B on the chance that it hosts the address.
func TestBridgeSeveredOwnerEndsAtOnce(t *testing.T) {
	netA, _, ba, bb := bridgePair(t)
	netC, bc := joinThird(t, ba)
	dst := netC.Endpoint(san.Addr{Node: "c-n0", Proc: "w0"}, 64)
	src := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "fe0"}, 8)

	bc.SeverPeers(time.Minute)
	for start := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		if len(ba.Peers()) == 1 {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("A still sees peers %v after C severed them", ba.Peers())
		}
	}
	injected := bb.Stats().Injected
	if err, took := callWithin(src, dst.Addr()); !errors.Is(err, san.ErrUnknownAddr) || took >= 100*time.Millisecond {
		t.Fatalf("a Call to a severed owner's node: %v after %v, want %v within 100 ms", err, took, san.ErrUnknownAddr)
	}
	if u := ba.Stats().Unroutable; u != 1 {
		t.Fatalf("unroutable = %d at the caller, want 1", u)
	}
	if got := bb.Stats().Injected; got != injected {
		t.Fatalf("the bystander received %d frames meant for C's node", got-injected)
	}
}

// TestOwnerRule: san.Owner is the one rule, and the bridge's route and
// supervisor.Owner agree on it: the longest prefix owns a node, the
// empty prefix owns whatever no other claims, this process's own prefix
// competes like a peer's, and with no match nobody owns it.
func TestOwnerRule(t *testing.T) {
	cases := []struct {
		name, self string
		peers      []string
		node       string
		want       string // owning prefix; "" with ok false: nobody
		ok         bool
	}{
		{"longest of nested", "x-", []string{"a", "ab"}, "abc0", "ab", true},
		{"shorter when the longer misses", "x-", []string{"a", "ab"}, "ac0", "a", true},
		{"empty prefix owns the rest", "x-", []string{"", "a"}, "b0", "", true},
		{"no match", "x-", []string{"a", "ab"}, "b0", "", false},
		{"self", "ab", []string{"a"}, "abc0", "ab", true},
		{"self, shorter than a peer", "a", []string{"ab"}, "abc0", "ab", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			candidates := append([]string{c.self}, c.peers...)
			got, ok := san.Owner(c.node, slices.Values(candidates), ownedPrefix, ownedPrefix)
			if ok != c.ok || got != c.want {
				t.Fatalf("san.Owner(%q) = %q, %v; want %q, %v", c.node, got, ok, c.want, c.ok)
			}

			// The bridge routes to the owning peer, and nowhere when it
			// owns the node itself or nobody does.
			b := &Bridge{cfg: Config{ID: c.self}, peers: map[string]*peer{}}
			for _, id := range c.peers {
				b.peers[id] = &peer{id: id}
			}
			route := b.ownerLocked(c.node)
			switch wantPeer := ok && got != c.self; {
			case wantPeer && (route == nil || route.id != got):
				t.Fatalf("bridge routes %q to %v, want peer %q", c.node, route, got)
			case !wantPeer && route != nil:
				t.Fatalf("bridge routes %q to peer %q, want no route", c.node, route.id)
			}

			// A manager delegating the node's repairs picks the same process.
			sups := map[string]supervisor.HelloMsg{}
			for i, prefix := range candidates {
				a := san.Addr{Node: prefix + "node0", Proc: fmt.Sprintf("sup%d", i)}
				sups[a.String()] = supervisor.HelloMsg{Addr: a, Prefix: prefix}
			}
			hb, sok := supervisor.Owner(c.node, sups)
			if sok != ok || (ok && hb.Prefix != got) {
				t.Fatalf("supervisor.Owner(%q) = %q, %v; want %q, %v", c.node, hb.Prefix, sok, got, ok)
			}
		})
	}
}

// TestBridgeCallEndsWhenCalleeCloses: a Call whose callee closes on the
// far side ends with ErrUnknownAddr when the close's down frame
// arrives, not at its timeout — a request that crossed the close is
// dropped on arrival, and nothing else would answer it. A reply sent
// before the close still wins: it travels ahead of the down frame.
func TestBridgeCallEndsWhenCalleeCloses(t *testing.T) {
	netA, netB, _, _ := bridgePair(t)
	src := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "fe0"}, 8)
	dst := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "w0"}, 64)
	call := func() (san.Message, error, time.Duration) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		start := time.Now()
		resp, err := src.Call(ctx, dst.Addr(), stub.MsgTask, stub.TaskMsg{}, 16)
		return resp, err, time.Since(start)
	}

	// Answered, then closed at once: the reply arrives. Each goroutine
	// gets its endpoint as an argument: the first may still be closing
	// its own after dst names the second.
	go func(dst *san.Endpoint) {
		req := awaitMsg(t, dst, 5*time.Second)
		_ = dst.Respond(req, stub.MsgResult, stub.ResultMsg{Err: "worker disabled"}, 16)
		dst.Close()
	}(dst)
	if resp, err, _ := call(); err != nil || resp.Body.(stub.ResultMsg).Err != "worker disabled" {
		t.Fatalf("a reply sent before the close: %+v, %v", resp.Body, err)
	}

	// Closed with the request unanswered: the Call ends with the down frame.
	dst = netB.Endpoint(san.Addr{Node: "b-n0", Proc: "w0"}, 64)
	go func(dst *san.Endpoint) {
		awaitMsg(t, dst, 5*time.Second)
		dst.Close()
	}(dst)
	if _, err, took := call(); !errors.Is(err, san.ErrUnknownAddr) || took > time.Second {
		t.Fatalf("a Call to a callee that closed: %v after %v, want %v at once", err, took, san.ErrUnknownAddr)
	}
}

// TestBridgeMeshGossip: a third process joining via one seed learns of
// — and connects to — the seed's existing peer.
func TestBridgeMeshGossip(t *testing.T) {
	netA, _, ba, _ := bridgePair(t)
	_ = netA
	netC := san.NewNetwork(3)
	bc, err := New(Config{Net: netC, Listen: "tcp:127.0.0.1:0", ID: "c-", Join: []string{ba.Advertise()}})
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
	netA, netB := san.NewNetwork(1), san.NewNetwork(2)
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

	src := netA.Endpoint(san.Addr{Node: "ua-n0", Proc: "src"}, 8)
	dst := netB.Endpoint(san.Addr{Node: "ub-n1", Proc: "dst"}, 64)
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
	if _, err := New(Config{Net: san.NewNetwork(1), Listen: ""}); err == nil {
		t.Fatal("bridge accepted an empty listen address")
	}
}

// TestBridgeTeardownNoLeaks: the Close path — bridge, then network —
// joins every goroutine it started. This is the regression test for
// san.Network.Close's contract with the transport layer.
func TestBridgeTeardownNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		netA, netB := san.NewNetwork(10), san.NewNetwork(11)
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
		src := netA.Endpoint(san.Addr{Node: fmt.Sprintf("la%d-n0", i), Proc: "src"}, 64)
		dst := netB.Endpoint(san.Addr{Node: fmt.Sprintf("lb%d-n1", i), Proc: "dst"}, 64)
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
