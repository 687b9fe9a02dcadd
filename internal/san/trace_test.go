package san

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestCallPropagatesTrace: a trace id attached to the Call context
// rides the delivered request (Message.Trace) and is echoed on the
// reply, exactly like the deadline convention.
func TestCallPropagatesTrace(t *testing.T) {
	n := NewNetwork(1)
	client := n.Endpoint(Addr{Node: "n1", Proc: "client"}, 8)
	server := n.Endpoint(Addr{Node: "n2", Proc: "server"}, 8)

	id := n.Tracer().NewTrace()
	seen := make(chan obs.TraceID, 1)
	go func() {
		for msg := range server.Inbox() {
			seen <- msg.Trace
			server.Respond(msg, "pong", nil, 0)
			return
		}
	}()

	ctx, cancel := context.WithTimeout(obs.WithTrace(context.Background(), id), time.Second)
	defer cancel()
	reply, err := client.Call(ctx, server.Addr(), "ping", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != id {
		t.Fatalf("request trace = %v, want %v", got, id)
	}
	if reply.Trace != id {
		t.Fatalf("reply trace = %v, want %v", reply.Trace, id)
	}

	// Plain sends stay untraced.
	if err := client.Send(server.Addr(), "k", nil, 0); err != nil {
		t.Fatal(err)
	}
}

// TestInjectStampsTrace: a trace id arriving over the fabric is
// stamped on the delivered message.
func TestInjectStampsTrace(t *testing.T) {
	n := NewNetwork(1)
	dst := n.Endpoint(Addr{Node: "n0", Proc: "dst"}, 8)
	from := Addr{Node: "other", Proc: "src"}
	if n.InjectUnicast(from, dst.Addr(), "k", 7, false, obs.TraceID(0x55), []byte("p"), nil) != nil {
		t.Fatal("inject failed")
	}
	select {
	case msg := <-dst.Inbox():
		if msg.Trace != obs.TraceID(0x55) {
			t.Fatalf("injected trace = %v, want 0x55", msg.Trace)
		}
	case <-time.After(time.Second):
		t.Fatal("delivery never arrived")
	}
}

// TestNetworkObsPlane: the network owns one tracer/registry pair and
// the san collector publishes its stats.
func TestNetworkObsPlane(t *testing.T) {
	n := NewNetwork(3)
	if n.Tracer() == nil || n.Registry() == nil {
		t.Fatal("network missing obs plane")
	}
	a := n.Endpoint(Addr{Node: "n0", Proc: "a"}, 8)
	b := n.Endpoint(Addr{Node: "n0", Proc: "b"}, 8)
	if a.Tracer() != n.Tracer() || a.Registry() != n.Registry() {
		t.Fatal("endpoint accessors must return the network's obs plane")
	}
	if err := a.Send(b.Addr(), "k", nil, 4); err != nil {
		t.Fatal(err)
	}
	<-b.Inbox()
	snap := n.Registry().Snapshot()
	if snap["san.sent"] != 1 {
		t.Fatalf("san.sent = %v, want 1 (snapshot %v)", snap["san.sent"], snap)
	}
}
