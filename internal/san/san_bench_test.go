package san

import (
	"context"
	"strings"
	"testing"
)

// kib is the 1 KiB body the throughput benchmarks send.
var kib = strings.Repeat("x", 1024)

func BenchmarkSendReceive(b *testing.B) {
	n := NewNetwork(1)
	src := n.Endpoint(Addr{Node: "a", Proc: "src"}, 64)
	dst := n.Endpoint(Addr{Node: "b", Proc: "dst"}, 1024)
	go func() {
		for range dst.Inbox() {
		}
	}()
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for src.Send(dst.Addr(), "d", kib, 1024) != nil {
			b.Fatal("send failed")
		}
	}
}

func BenchmarkMulticastFanout(b *testing.B) {
	n := NewNetwork(1)
	src := n.Endpoint(Addr{Node: "a", Proc: "src"}, 64)
	const members = 32
	for i := 0; i < members; i++ {
		ep := n.Endpoint(Addr{Node: "m", Proc: string(rune('a' + i))}, 4096)
		ep.Join("grp")
		go func() {
			for range ep.Inbox() {
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Multicast("grp", "beacon", nil, 128)
	}
}

func BenchmarkCallRoundTrip(b *testing.B) {
	n := NewNetwork(1)
	client := n.Endpoint(Addr{Node: "a", Proc: "client"}, 256)
	server := n.Endpoint(Addr{Node: "b", Proc: "server"}, 256)
	go func() {
		for msg := range server.Inbox() {
			server.Respond(msg, "pong", nil, 16)
		}
	}()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Call(ctx, server.Addr(), "ping", nil, 16); err != nil {
			b.Fatal(err)
		}
	}
}
