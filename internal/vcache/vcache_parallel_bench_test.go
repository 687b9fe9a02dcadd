package vcache

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkPartitionGetParallel measures concurrent hit throughput on
// one partition: every Get takes the partition's one mutex.
func BenchmarkPartitionGetParallel(b *testing.B) {
	p := NewPartition(64<<20, nil)
	data := make([]byte, 4096)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		p.Put(keys[i], data, "b", 0)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stagger start offsets so goroutines are not in lockstep on
		// the same key every iteration.
		i := int(next.Add(1)) * 257
		for pb.Next() {
			p.Get(keys[i%len(keys)])
			i++
		}
	})
}

// BenchmarkPartitionMixedParallel is a 90/10 get/put mix under a budget
// that forces steady eviction pressure.
func BenchmarkPartitionMixedParallel(b *testing.B) {
	p := NewPartition(16<<20, nil)
	data := make([]byte, 4096)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	for _, k := range keys[:1024] {
		p.Put(k, data, "b", 0)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 257
		for pb.Next() {
			if i%10 == 9 {
				p.Put(keys[i%len(keys)], data, "b", 0)
			} else {
				p.Get(keys[i%1024])
			}
			i++
		}
	})
}
