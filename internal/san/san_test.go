package san

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func addr(node, proc string) Addr { return Addr{Node: node, Proc: proc} }

func TestPointToPoint(t *testing.T) {
	n := newNet(1)
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 8)
	if err := a.Send(b.Addr(), "ping", "hello", 5); err != nil {
		t.Fatal(err)
	}
	msg := <-b.Inbox()
	if msg.Kind != "ping" || msg.Body.(string) != "hello" || msg.From != a.Addr() {
		t.Fatalf("bad message: %+v", msg)
	}
	s := n.Stats()
	if s.Sent != 1 || s.Bytes != 5 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestFullInboxDropsAndCounts: an endpoint pushed past InboxSize by
// both kinds of send keeps the first InboxSize messages, drops the rest
// (each counted once in inbox_full, alongside the totals dropped and
// mcast_dropped), and inbox_max reads the size. Impairment losses are
// not inbox_full's.
func TestFullInboxDropsAndCounts(t *testing.T) {
	n := newNet(1)
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 0)
	b.Join("ctl")
	const extra = 5
	for i := 0; i < InboxSize+extra; i++ {
		if err := a.Send(b.Addr(), "d", "x", 1); err != nil {
			t.Fatal(err)
		}
	}
	a.Multicast("ctl", "beacon", nil, 1)
	n.SetLoss(1, 1)
	_ = a.Send(b.Addr(), "lost", nil, 1)
	a.Multicast("ctl", "lost", nil, 1)

	if got := len(b.Inbox()); got != InboxSize {
		t.Fatalf("inbox holds %d, want %d", got, InboxSize)
	}
	st := n.Stats()
	if st.InboxMax != InboxSize || st.InboxFull != extra+1 || st.Dropped != extra+1 || st.McastDropped != 2 {
		t.Fatalf("stats = %+v, want inbox_max %d, inbox_full %d, dropped %d, mcast_dropped 2", st, InboxSize, extra+1, extra+1)
	}
	reg := n.Registry().Snapshot()
	if reg["san.inbox_max"] != InboxSize || reg["san.inbox_full"] != extra+1 {
		t.Fatalf("registry san.inbox_max %v, san.inbox_full %v", reg["san.inbox_max"], reg["san.inbox_full"])
	}
}

func TestSendUnknownAddr(t *testing.T) {
	n := newNet(1)
	a := n.Endpoint(addr("n1", "a"), 8)
	err := a.Send(addr("nx", "ghost"), "ping", nil, 0)
	if err == nil {
		t.Fatal("expected ErrUnknownAddr")
	}
}

func TestMulticast(t *testing.T) {
	n := newNet(1)
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 8)
	c := n.Endpoint(addr("n3", "c"), 8)
	b.Join("ctl")
	c.Join("ctl")
	a.Join("ctl") // sender should not receive its own multicast
	if got := a.Multicast("ctl", "beacon", "7", 10); got != 2 {
		t.Fatalf("delivered = %d, want 2", got)
	}
	for _, ep := range []*Endpoint{b, c} {
		msg := <-ep.Inbox()
		if msg.Group != "ctl" || msg.Kind != "beacon" || msg.Body != "7" {
			t.Fatalf("bad multicast: %+v", msg)
		}
	}
	select {
	case m := <-a.Inbox():
		t.Fatalf("sender received own multicast: %+v", m)
	default:
	}
}

func TestLeaveGroup(t *testing.T) {
	n := newNet(1)
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 8)
	b.Join("ctl")
	b.Leave("ctl")
	if got := a.Multicast("ctl", "x", nil, 0); got != 0 {
		t.Fatalf("delivered after leave = %d", got)
	}
}

func TestPartitionDropsTraffic(t *testing.T) {
	n := newNet(1)
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 8)
	b.Join("ctl")
	n.Partition(map[string]int{"n1": 0, "n2": 1})
	if err := a.Send(b.Addr(), "ping", nil, 1); err != nil {
		t.Fatal(err) // silent drop, not an error
	}
	a.Multicast("ctl", "beacon", nil, 1)
	select {
	case m := <-b.Inbox():
		t.Fatalf("message crossed partition: %+v", m)
	case <-time.After(10 * time.Millisecond):
	}
	n.Heal()
	if err := a.Send(b.Addr(), "ping", nil, 1); err != nil {
		t.Fatal(err)
	}
	if msg := <-b.Inbox(); msg.Kind != "ping" {
		t.Fatalf("bad message after heal: %+v", msg)
	}
}

func TestLoss(t *testing.T) {
	n := newNet(42)
	a := n.Endpoint(addr("n1", "a"), 4096)
	b := n.Endpoint(addr("n2", "b"), 4096)
	n.SetLoss(0.5, 0)
	const total = 2000
	for i := 0; i < total; i++ {
		if err := a.Send(b.Addr(), "d", "x", 1); err != nil {
			t.Fatal(err)
		}
	}
	got := len(b.Inbox())
	if got < total/3 || got > 2*total/3 {
		t.Fatalf("with 50%% loss, delivered %d/%d", got, total)
	}
}

func TestMulticastLoss(t *testing.T) {
	n := newNet(42)
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 4096)
	b.Join("ctl")
	n.SetLoss(0, 1.0)
	if got := a.Multicast("ctl", "x", nil, 1); got != 0 {
		t.Fatalf("delivered %d with 100%% mcast loss", got)
	}
	if n.Stats().McastDropped == 0 {
		t.Fatal("expected multicast drops counted")
	}
}

func TestCallRespond(t *testing.T) {
	n := newNet(1)
	client := n.Endpoint(addr("n1", "client"), 8)
	server := n.Endpoint(addr("n2", "server"), 8)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for msg := range server.Inbox() {
			if msg.Kind == "add" {
				server.Respond(msg, "sum", msg.Body.(string)+"+1", 8)
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, err := client.Call(ctx, server.Addr(), "add", "41", 8)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "sum" || resp.Body != "41+1" {
		t.Fatalf("bad reply: %+v", resp)
	}
	<-done
}

func TestCallTimeout(t *testing.T) {
	n := newNet(1)
	client := n.Endpoint(addr("n1", "client"), 8)
	n.Endpoint(addr("n2", "server"), 8) // never answers
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := client.Call(ctx, addr("n2", "server"), "add", "1", 8)
	if err == nil {
		t.Fatal("expected timeout")
	}
}

func TestCallToDeadEndpoint(t *testing.T) {
	n := newNet(1)
	client := n.Endpoint(addr("n1", "client"), 8)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := client.Call(ctx, addr("nx", "ghost"), "add", "1", 8)
	if err == nil {
		t.Fatal("expected error calling unknown address")
	}
}

func TestLateReplyIsConsumedQuietly(t *testing.T) {
	n := newNet(1)
	client := n.Endpoint(addr("n1", "client"), 8)
	server := n.Endpoint(addr("n2", "server"), 8)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := client.Call(ctx, server.Addr(), "slow", nil, 0)
	if err == nil {
		t.Fatal("expected timeout")
	}
	// Server answers after the caller gave up: the reply counts as
	// delivered and is consumed there, never parked in the inbox.
	req := <-server.Inbox()
	sent := n.Stats().Sent
	if err := server.Respond(req, "late", nil, 0); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.Sent != sent+1 || st.Dropped != 0 || len(client.Inbox()) != 0 {
		t.Fatalf("late reply: stats %+v, inbox %d; want one more sent, none dropped, inbox empty", st, len(client.Inbox()))
	}
}

// viewCodec is countingCodec decoding zero-copy: the body is the wire
// bytes themselves, so every delivery carries a lease.
type viewCodec struct{ countingCodec }

func (c *viewCodec) DecodeBodyView(kind string, data []byte) (any, bool, error) {
	return data, true, nil
}

// TestCallNeedsNoReceiveLoop: delivery hands a reply to the Call that
// awaits it, so the call completes on an endpoint whose inbox nobody
// reads and which is full — whether or not the reply's body aliases
// its wire bytes.
func TestCallNeedsNoReceiveLoop(t *testing.T) {
	for name, codec := range map[string]Codec{
		"wire": &countingCodec{},
		"view": &viewCodec{},
	} {
		t.Run(name, func(t *testing.T) {
			n := NewNetwork(1, WithCodec(codec))
			client := n.Endpoint(addr("n1", "client"), 2)
			server := n.Endpoint(addr("n2", "server"), 2)
			for i := 0; i < 3; i++ { // the third finds the inbox full
				if err := server.Send(client.Addr(), "noise", "x", 1); err != nil {
					t.Fatal(err)
				}
			}
			if st := n.Stats(); st.Sent != 2 || st.Dropped != 1 {
				t.Fatalf("inbox not full: %+v", st)
			}
			go func() {
				req := <-server.Inbox()
				req.Release()
				server.Respond(req, "pong", "pong", 4)
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			resp, err := client.Call(ctx, server.Addr(), "ping", "ping", 4)
			if err != nil {
				t.Fatal(err)
			}
			if (resp.Lease != nil) != (name == "view") {
				t.Fatalf("reply lease = %v in %s mode", resp.Lease, name)
			}
			resp.Release()
			if len(client.Inbox()) != 2 {
				t.Fatalf("inbox holds %d messages, want the 2 it was filled with", len(client.Inbox()))
			}
		})
	}
}

// TestCloseDuringReply: replies racing their caller's Close reach the
// Call or are dropped — never a send on a closed channel, never a
// pending call left behind. Run with -race -count=50.
func TestCloseDuringReply(t *testing.T) {
	n := NewNetwork(1, WithCodec(&viewCodec{}))
	server := n.Endpoint(addr("n2", "server"), 64)
	go func() {
		for req := range server.Inbox() {
			req.Release()
			server.Respond(req, "pong", "pong", 4)
		}
	}()
	defer server.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for round := 0; round < 100; round++ {
		client := n.Endpoint(addr("n1", "client"), 1)
		const callers = 4
		errc := make(chan error, callers)
		for c := 0; c < callers; c++ {
			go func() {
				resp, err := client.Call(ctx, server.Addr(), "ping", "ping", 4)
				resp.Release()
				errc <- err
			}()
		}
		client.Close()
		for c := 0; c < callers; c++ {
			if err := <-errc; err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		client.mu.Lock()
		left := len(client.pending)
		client.mu.Unlock()
		if left != 0 {
			t.Fatalf("round %d: %d pending calls survive Close", round, left)
		}
	}
}

func TestDropNode(t *testing.T) {
	n := newNet(1)
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 8)
	b.Join("ctl")
	n.DropNode("n2")
	if n.Lookup(b.Addr()) {
		t.Fatal("endpoint survived node drop")
	}
	if err := a.Send(b.Addr(), "ping", nil, 0); err == nil {
		t.Fatal("expected unknown-address error after node drop")
	}
	if got := a.Multicast("ctl", "x", nil, 0); got != 0 {
		t.Fatalf("multicast reached dropped node: %d", got)
	}
	// The dropped endpoint's inbox is closed.
	if _, ok := <-b.Inbox(); ok {
		t.Fatal("inbox not closed after node drop")
	}
	// And the dead process it stood for says nothing, to one or to many.
	a.Join("ctl")
	if err := b.Send(a.Addr(), "ping", nil, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("send from a dropped endpoint: %v, want ErrClosed", err)
	}
	if got := b.Multicast("ctl", "x", nil, 0); got != 0 {
		t.Fatalf("multicast from a dropped endpoint reached %d", got)
	}
}

func TestReRegisterReplacesEndpoint(t *testing.T) {
	n := newNet(1)
	old := n.Endpoint(addr("n1", "p"), 8)
	nu := n.Endpoint(addr("n1", "p"), 8)
	if _, ok := <-old.Inbox(); ok {
		t.Fatal("old endpoint not closed on re-register")
	}
	src := n.Endpoint(addr("n2", "src"), 8)
	if err := src.Send(addr("n1", "p"), "ping", nil, 0); err != nil {
		t.Fatal(err)
	}
	if msg := <-nu.Inbox(); msg.Kind != "ping" {
		t.Fatalf("new endpoint missed message: %+v", msg)
	}
}

func TestFullInboxDrops(t *testing.T) {
	n := newNet(1)
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 1)
	if err := a.Send(b.Addr(), "one", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), "two", nil, 0); err != nil {
		t.Fatal(err) // silently dropped
	}
	if n.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", n.Stats().Dropped)
	}
}

func TestLatency(t *testing.T) {
	n := newNet(1)
	n.SetLatency(func() time.Duration { return 10 * time.Millisecond })
	a := n.Endpoint(addr("n1", "a"), 8)
	b := n.Endpoint(addr("n2", "b"), 8)
	start := time.Now()
	if err := a.Send(b.Addr(), "ping", nil, 0); err != nil {
		t.Fatal(err)
	}
	<-b.Inbox()
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
}

func TestConcurrentSendersRace(t *testing.T) {
	n := newNet(1)
	dst := n.Endpoint(addr("n0", "sink"), 100000)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := n.Endpoint(Addr{Node: "n1", Proc: "p" + string(rune('a'+g))}, 8)
			for i := 0; i < 500; i++ {
				_ = ep.Send(dst.Addr(), "d", "x", 1)
			}
		}()
	}
	wg.Wait()
	if got := len(dst.Inbox()); got != 16*500 {
		t.Fatalf("received %d, want %d", got, 16*500)
	}
}

func TestCloseFailsPendingCalls(t *testing.T) {
	n := newNet(1)
	client := n.Endpoint(addr("n1", "client"), 8)
	server := n.Endpoint(addr("n2", "server"), 8)
	errc := make(chan error, 1)
	go func() {
		ctx := context.Background()
		_, err := client.Call(ctx, server.Addr(), "never", nil, 0)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	client.Close()
	if err := <-errc; err == nil {
		t.Fatal("pending call survived endpoint close")
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{Node: "n1", Proc: "fe0"}
	if a.String() != "n1/fe0" {
		t.Fatalf("String = %q", a.String())
	}
	if a.IsZero() || (Addr{}).IsZero() == false {
		t.Fatal("IsZero broken")
	}
}

func TestLossBurstRestoresPriorLoss(t *testing.T) {
	n := newNet(1)
	a := n.Endpoint(addr("n1", "a"), 256)
	b := n.Endpoint(addr("n2", "b"), 256)

	n.SetLoss(0, 0)
	n.LossBurst(1, 1, 30*time.Millisecond) // drop everything briefly
	if err := a.Send(b.Addr(), "k", nil, 1); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().Dropped; got != 1 {
		t.Fatalf("dropped = %d during burst", got)
	}
	// After the burst the pre-burst (lossless) config returns.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := a.Send(b.Addr(), "k", nil, 1); err != nil {
			t.Fatal(err)
		}
		select {
		case <-b.Inbox():
			return // delivered: loss restored to 0
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("loss never restored after burst")
		}
	}
}

func TestPartitionForHeals(t *testing.T) {
	n := newNet(1)
	a := n.Endpoint(addr("n1", "a"), 256)
	b := n.Endpoint(addr("n2", "b"), 256)

	n.PartitionFor(map[string]int{"n2": 1}, 30*time.Millisecond)
	if err := a.Send(b.Addr(), "k", nil, 1); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().Dropped; got != 1 {
		t.Fatalf("dropped = %d across partition", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := a.Send(b.Addr(), "k", nil, 1); err != nil {
			t.Fatal(err)
		}
		select {
		case <-b.Inbox():
			return // healed
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("partition never healed")
		}
	}
}
