package san

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestNetworkClose: the graceful-shutdown regression test. Close must
// (a) close every endpoint so receive loops drain and exit, (b) fail
// pending Calls instead of stranding them, (c) make subsequent sends
// and multicasts no-ops with a deterministic error, and (d) drop — not
// deliver — latency-delayed messages still in flight, so a transport
// bridge tearing a network down cannot leak goroutines or push into
// freed endpoints.
func TestNetworkClose(t *testing.T) {
	n := NewNetwork(1)
	a := n.Endpoint(Addr{Node: "n0", Proc: "a"}, 8)
	b := n.Endpoint(Addr{Node: "n0", Proc: "b"}, 8)
	b.Join("g")

	if err := a.Send(b.Addr(), "k", "hello", 8); err != nil {
		t.Fatal(err)
	}

	// A call pending when the network closes must fail, not hang.
	callErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := a.Call(ctx, b.Addr(), "req", nil, 8)
		callErr <- err
	}()
	// Wait until the request is actually in b's inbox (send happened).
	deadline := time.Now().Add(2 * time.Second)
	for n.Stats().Sent < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	n.Close()
	n.Close() // idempotent

	if err := <-callErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("pending call after Close: got %v, want ErrClosed", err)
	}
	if err := a.Send(b.Addr(), "k", "late", 8); !errors.Is(err, ErrClosed) && !errors.Is(err, ErrNetworkClosed) {
		t.Fatalf("send after Close: got %v, want ErrClosed/ErrNetworkClosed", err)
	}
	if got := a.Multicast("g", "k", "late", 8); got != 0 {
		t.Fatalf("multicast after Close delivered %d", got)
	}
	if !n.Closed() {
		t.Fatal("Closed() = false after Close")
	}

	// Buffered messages drain, then the channel reports closed.
	msg, ok := <-b.Inbox()
	if !ok || msg.Body != "hello" {
		t.Fatalf("pre-close message lost: ok=%v body=%v", ok, msg.Body)
	}
	// The pending call request is also still drainable; after the
	// buffer empties the inbox must report closed.
	for ok {
		_, ok = <-b.Inbox()
	}

	// Registering on a closed network yields a dead endpoint.
	late := n.Endpoint(Addr{Node: "n0", Proc: "late"}, 8)
	if _, open := <-late.Inbox(); open {
		t.Fatal("endpoint registered after Close has an open inbox")
	}
	if n.Lookup(Addr{Node: "n0", Proc: "late"}) {
		t.Fatal("closed network still registers addresses")
	}
}

// TestLocalCallEndsWhenCalleeRemoved: a Call whose callee leaves the
// table with the request still queued ends with ErrUnknownAddr at once,
// not at its timeout, whether the callee is dropped, its node dropped or
// it closes — a local caller fails as fast as a remote one. A restart
// that reclaims the name removes nothing: that Call waits out its own
// deadline, since the address is held again.
func TestLocalCallEndsWhenCalleeRemoved(t *testing.T) {
	callee := Addr{Node: "n1", Proc: "w0"}
	for _, c := range []struct {
		name    string
		remove  func(n *Network, ep *Endpoint)
		timeout time.Duration
		want    error
	}{
		{"drop", func(n *Network, _ *Endpoint) { n.Drop(callee) }, 5 * time.Second, ErrUnknownAddr},
		{"drop node", func(n *Network, _ *Endpoint) { n.DropNode(callee.Node) }, 5 * time.Second, ErrUnknownAddr},
		{"close", func(_ *Network, ep *Endpoint) { ep.Close() }, 5 * time.Second, ErrUnknownAddr},
		{"reclaim", func(n *Network, _ *Endpoint) { n.Endpoint(callee, 8) }, 200 * time.Millisecond, ErrTimeout},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := NewNetwork(1)
			caller := n.Endpoint(Addr{Node: "n0", Proc: "fe0"}, 8)
			ep := n.Endpoint(callee, 8)
			done := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
				defer cancel()
				_, err := caller.Call(ctx, callee, "req", "x", 0)
				done <- err
			}()
			for deadline := time.Now().Add(2 * time.Second); len(ep.Inbox()) == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the request never reached the callee's inbox")
				}
			}
			removed := time.Now()
			c.remove(n, ep)
			err := <-done
			if took := time.Since(removed); !errors.Is(err, c.want) || c.want == ErrUnknownAddr && took >= 100*time.Millisecond {
				t.Fatalf("Call after the callee's %s: %v %v later, want %v", c.name, err, took, c.want)
			}
		})
	}
}
