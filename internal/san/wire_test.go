package san

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// The package's test kinds carry string bodies, decoded into fresh
// strings that alias nothing, and count every encode and decode: the
// instrument behind the encode-once fan-out assertions. viewKinds
// decode zero-copy instead: the body is the wire bytes themselves, so
// every delivery carries a lease.
var (
	testKinds        = []string{"add", "beacon", "d", "k", "noise", "ping", "pong", "req", "sum"}
	viewKinds        = []string{"view.ping", "view.pong"}
	encodes, decodes atomic.Int64
)

func init() {
	enc := func(w Writer, s string) (Writer, error) {
		encodes.Add(1)
		return append(w, s...), nil
	}
	for _, k := range testKinds {
		RegisterKind(k, enc, func(data []byte) (any, bool, error) {
			decodes.Add(1)
			return string(data), false, nil
		})
	}
	for _, k := range viewKinds {
		RegisterKind(k, enc, func(data []byte) (any, bool, error) { return data, true, nil })
	}
}

// codecCounts reads the test kinds' encodes and decodes since it was
// made (the package's tests run one at a time).
type codecCounts struct{ enc0, dec0 int64 }

func (c codecCounts) encodes() int64 { return encodes.Load() - c.enc0 }
func (c codecCounts) decodes() int64 { return decodes.Load() - c.dec0 }

func wireNet(t *testing.T) (*Network, codecCounts) {
	t.Helper()
	return NewNetwork(1), codecCounts{encodes.Load(), decodes.Load()}
}

// TestWireSendRoundTrip: a point-to-point send crosses the SAN as
// bytes and the receiver gets an equal, independent value.
func TestWireSendRoundTrip(t *testing.T) {
	n, c := wireNet(t)
	a := n.Endpoint(Addr{Node: "n1", Proc: "a"}, 4)
	b := n.Endpoint(Addr{Node: "n2", Proc: "b"}, 4)
	if err := a.Send(b.Addr(), "ping", "hello", 5); err != nil {
		t.Fatal(err)
	}
	msg := <-b.Inbox()
	if msg.Body != "hello" {
		t.Fatalf("body = %#v, want %q", msg.Body, "hello")
	}
	if msg.Size != 5 {
		t.Fatalf("size = %d, want the encoded length 5", msg.Size)
	}
	if c.encodes() != 1 || c.decodes() != 1 {
		t.Fatalf("encodes=%d decodes=%d, want 1/1", c.encodes(), c.decodes())
	}
	st := n.Stats()
	if st.WireEncodes != 1 || st.WireDecodes != 1 || st.WireErrors != 0 {
		t.Fatalf("wire stats = %+v", st)
	}
	if st.Bytes != 5 {
		t.Fatalf("bytes = %d, want actual wire bytes 5", st.Bytes)
	}
}

// TestWireMulticastEncodesOnce is the acceptance-criterion assertion:
// one Multicast encodes the body exactly once regardless of group
// size, and decodes once per actual delivery.
func TestWireMulticastEncodesOnce(t *testing.T) {
	n, c := wireNet(t)
	const members = 9
	src := n.Endpoint(Addr{Node: "s", Proc: "src"}, 4)
	src.Join("grp")
	var sinks []*Endpoint
	for i := 0; i < members; i++ {
		ep := n.Endpoint(Addr{Node: "m", Proc: fmt.Sprintf("p%d", i)}, 16)
		ep.Join("grp")
		sinks = append(sinks, ep)
	}
	if got := src.Multicast("grp", "beacon", "payload", 7); got != members {
		t.Fatalf("delivered %d, want %d", got, members)
	}
	if c.encodes() != 1 {
		t.Fatalf("encodes = %d, want exactly 1 for the whole fanout", c.encodes())
	}
	if c.decodes() != members {
		t.Fatalf("decodes = %d, want one per delivery (%d)", c.decodes(), members)
	}
	for _, ep := range sinks {
		msg := <-ep.Inbox()
		if msg.Body != "payload" {
			t.Fatalf("member got %#v", msg.Body)
		}
	}
	// A second fanout encodes once more — the count scales with calls,
	// not with group size.
	src.Multicast("grp", "beacon", "again", 5)
	if c.encodes() != 2 {
		t.Fatalf("encodes after 2nd multicast = %d, want 2", c.encodes())
	}
}

// TestWireMulticastLostDeliveriesNotDecoded: a datagram the network
// drops never reaches a decoder (receivers cannot parse packets they
// never saw).
func TestWireMulticastLostDeliveriesNotDecoded(t *testing.T) {
	n, c := wireNet(t)
	src := n.Endpoint(Addr{Node: "s", Proc: "src"}, 4)
	for i := 0; i < 4; i++ {
		ep := n.Endpoint(Addr{Node: "m", Proc: fmt.Sprintf("p%d", i)}, 16)
		ep.Join("grp")
	}
	n.SetLoss(0, 1.0) // every multicast delivery is lost
	if got := src.Multicast("grp", "beacon", "x", 1); got != 0 {
		t.Fatalf("delivered %d under total loss", got)
	}
	if c.encodes() != 1 {
		t.Fatalf("encodes = %d, want 1 (sender still pays serialization)", c.encodes())
	}
	if c.decodes() != 0 {
		t.Fatalf("decodes = %d, want 0 for all-lost fanout", c.decodes())
	}
}

// TestWireSendLostDeliveriesNotDecoded: the point-to-point twin of
// the multicast assertion — a dropped datagram still costs the sender
// its encode, but is never decoded.
func TestWireSendLostDeliveriesNotDecoded(t *testing.T) {
	n, c := wireNet(t)
	a := n.Endpoint(Addr{Node: "n1", Proc: "a"}, 4)
	b := n.Endpoint(Addr{Node: "n2", Proc: "b"}, 16)
	n.SetLoss(1.0, 0) // every p2p delivery is lost
	const sends = 10
	for i := 0; i < sends; i++ {
		if err := a.Send(b.Addr(), "ping", "x", 1); err != nil {
			t.Fatal(err)
		}
	}
	if c.encodes() != sends {
		t.Fatalf("encodes = %d, want %d (sender pays serialization before the drop)", c.encodes(), sends)
	}
	if c.decodes() != 0 {
		t.Fatalf("decodes = %d, want 0 for all-lost sends", c.decodes())
	}
	if st := n.Stats(); st.Dropped != sends || st.WireDecodes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWireEncodeErrors: an unencodable body fails the send with
// ErrCodec, reaches nobody, and is counted.
func TestWireEncodeErrors(t *testing.T) {
	n := NewNetwork(1)
	a := n.Endpoint(Addr{Node: "n1", Proc: "a"}, 4)
	b := n.Endpoint(Addr{Node: "n1", Proc: "b"}, 4)
	b.Join("grp")
	if err := a.Send(b.Addr(), "k", 42, 8); !errors.Is(err, ErrCodec) {
		t.Fatalf("send err = %v, want ErrCodec", err)
	}
	if got := a.Multicast("grp", "k", 42, 8); got != 0 {
		t.Fatalf("multicast delivered %d with unencodable body", got)
	}
	st := n.Stats()
	if st.WireErrors != 2 {
		t.Fatalf("wire errors = %d, want 2", st.WireErrors)
	}
	if st.Sent != 0 || st.McastSent != 0 {
		t.Fatalf("unencodable body leaked into delivery stats: %+v", st)
	}
	select {
	case msg := <-b.Inbox():
		t.Fatalf("receiver got %#v", msg)
	default:
	}
}

// TestWireCallRoundTrip: the request/response convention works
// unchanged over the byte path (Call and Respond both transit the
// codec).
func TestWireCallRoundTrip(t *testing.T) {
	n, c := wireNet(t)
	client := n.Endpoint(Addr{Node: "n1", Proc: "client"}, 16)
	server := n.Endpoint(Addr{Node: "n2", Proc: "server"}, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for msg := range server.Inbox() {
			if msg.Kind == "add" {
				server.Respond(msg, "sum", msg.Body.(string)+"!", 8)
				return
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := client.Call(ctx, server.Addr(), "add", "41", 2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Body != "41!" {
		t.Fatalf("reply body = %#v", resp.Body)
	}
	<-done
	if c.encodes() != 2 || c.decodes() != 2 {
		t.Fatalf("encodes=%d decodes=%d, want 2/2 (request + reply)", c.encodes(), c.decodes())
	}
}

// TestWireBufferReuseIsSafe: pooled lease buffers never leak one
// message's bytes into another's body, even under concurrency.
func TestWireBufferReuseIsSafe(t *testing.T) {
	n := NewNetwork(1)
	const senders, msgs = 4, 200
	sinks := make([]*Endpoint, senders)
	for i := range sinks {
		sinks[i] = n.Endpoint(Addr{Node: "sink", Proc: fmt.Sprintf("d%d", i)}, msgs)
	}
	done := make(chan error, senders)
	for i := 0; i < senders; i++ {
		go func(i int) {
			src := n.Endpoint(Addr{Node: "src", Proc: fmt.Sprintf("s%d", i)}, 4)
			for j := 0; j < msgs; j++ {
				if err := src.Send(sinks[i].Addr(), "d", fmt.Sprintf("s%d-m%d", i, j), 0); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < senders; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i, sink := range sinks {
		for j := 0; j < msgs; j++ {
			msg := <-sink.Inbox()
			want := fmt.Sprintf("s%d-m%d", i, j)
			if msg.Body != want {
				t.Fatalf("sink %d msg %d: body %#v, want %q", i, j, msg.Body, want)
			}
		}
	}
}

// TestRegisterKindTwicePanics: a kind has one layout, so a second
// registration of it is a construction bug.
func TestRegisterKindTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a second RegisterKind of one kind did not panic")
		}
	}()
	RegisterKind("k", func(w Writer, _ int) (Writer, error) { return w, nil }, nil)
}

// TestUnregisteredKind: a kind without a row carries no body. A body of
// one is refused at the sender with ErrCodec, and wire bytes of one
// arriving from another process are dropped; both count as wire errors.
// A nil body and empty wire pass, as a signal does.
func TestUnregisteredKind(t *testing.T) {
	n := NewNetwork(1)
	a := n.Endpoint(Addr{Node: "n1", Proc: "a"}, 4)
	b := n.Endpoint(Addr{Node: "n2", Proc: "b"}, 4)
	b.Join("grp")
	if err := a.Send(b.Addr(), "unregistered", "body", 0); !errors.Is(err, ErrCodec) {
		t.Fatalf("send of a body under an unregistered kind: %v, want ErrCodec", err)
	}
	if got := a.Multicast("grp", "unregistered", "body", 0); got != 0 {
		t.Fatalf("multicast of a body under an unregistered kind reached %d", got)
	}
	from := Addr{Node: "other", Proc: "src"}
	if n.InjectUnicast(from, b.Addr(), "unregistered", 0, false, 0, []byte("p"), nil) == nil {
		t.Fatal("wire bytes of an unregistered kind were delivered")
	}
	if got := n.InjectMulticast(from, "grp", "unregistered", []byte("p"), nil); got != 0 {
		t.Fatalf("wire bytes of an unregistered kind reached %d members", got)
	}
	if st := n.Stats(); st.WireErrors != 4 || st.Sent != 0 || st.McastSent != 1 || st.McastDropped != 1 {
		t.Fatalf("stats = %+v, want 4 wire errors and nothing delivered", st)
	}
	if err := a.Send(b.Addr(), "unregistered", nil, 0); err != nil {
		t.Fatalf("signal under an unregistered kind: %v", err)
	}
	if n.InjectUnicast(from, b.Addr(), "unregistered", 0, false, 0, nil, nil) != nil {
		t.Fatal("empty wire of an unregistered kind was not delivered")
	}
	if st := n.Stats(); st.WireErrors != 4 || st.Sent != 2 {
		t.Fatalf("stats after two signals = %+v", st)
	}
}
