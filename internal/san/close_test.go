package san

import (
	"context"
	"errors"
	"runtime"
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
	n := newNet(1)
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

// TestNetworkCloseDropsDelayedDeliveries: messages sitting in latency
// timers when the network closes are dropped deterministically, and
// the timer goroutines do not outlive the drop.
func TestNetworkCloseDropsDelayedDeliveries(t *testing.T) {
	n := newNet(1)
	n.SetLatency(func() time.Duration { return 20 * time.Millisecond })
	a := n.Endpoint(Addr{Node: "n0", Proc: "a"}, 8)
	b := n.Endpoint(Addr{Node: "n0", Proc: "b"}, 8)
	for i := 0; i < 16; i++ {
		if err := a.Send(b.Addr(), "k", "x", 8); err != nil {
			t.Fatal(err)
		}
	}
	n.Close()
	// Drain whatever raced in before the close; nothing may arrive
	// after the inbox reports closed.
	for range b.Inbox() {
	}
	time.Sleep(50 * time.Millisecond) // let the delayed pushes fire into the closed endpoint
	base := runtime.NumGoroutine()
	time.Sleep(10 * time.Millisecond)
	if g := runtime.NumGoroutine(); g > base+2 {
		t.Fatalf("goroutines still growing after Close: %d -> %d", base, g)
	}
}
