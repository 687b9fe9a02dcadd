package san

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkSANSendParallel measures point-to-point throughput with many
// concurrent sender/receiver pairs — the hot path that serialized on
// the network's RWMutex plus the shared rng mutex before the snapshot
// rework. Distinct destination pairs keep the measurement on the
// network layer rather than a single inbox.
func BenchmarkSANSendParallel(b *testing.B) {
	n := NewNetwork(1)
	// Nonzero loss keeps the rng on the hot path, as in impaired runs.
	n.SetLoss(0.01, 0)
	var next atomic.Int64
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := fmt.Sprint(next.Add(1))
		src := n.Endpoint(Addr{Node: "senders", Proc: id}, 8)
		dst := n.Endpoint(Addr{Node: "sinks", Proc: id}, 4096)
		go func() {
			for range dst.Inbox() {
			}
		}()
		for pb.Next() {
			if err := src.Send(dst.Addr(), "d", kib, 1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSANSendParallelSharedSink is the adversarial variant: every
// sender targets one inbox, so the receiving endpoint's channel is the
// shared resource.
func BenchmarkSANSendParallelSharedSink(b *testing.B) {
	n := NewNetwork(1)
	dst := n.Endpoint(Addr{Node: "sink", Proc: "dst"}, 4096)
	go func() {
		for range dst.Inbox() {
		}
	}()
	n.SetLoss(0.01, 0)
	var next atomic.Int64
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src := n.Endpoint(Addr{Node: "senders", Proc: fmt.Sprint(next.Add(1))}, 8)
		for pb.Next() {
			if err := src.Send(dst.Addr(), "d", kib, 1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSANMulticastParallel measures concurrent multicast fanout —
// manager beacons and monitor reports all share this path.
func BenchmarkSANMulticastParallel(b *testing.B) {
	n := NewNetwork(1)
	const members = 16
	for i := 0; i < members; i++ {
		ep := n.Endpoint(Addr{Node: "m", Proc: string(rune('a' + i))}, 4096)
		ep.Join("grp")
		go func() {
			for range ep.Inbox() {
			}
		}()
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		src := n.Endpoint(Addr{Node: "senders", Proc: fmt.Sprint(next.Add(1))}, 8)
		for pb.Next() {
			src.Multicast("grp", "beacon", nil, 128)
		}
	})
}
