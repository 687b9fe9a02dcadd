package vcache

import (
	"fmt"
	"testing"
)

func BenchmarkPartitionPutEvict(b *testing.B) {
	p := NewPartition(1<<20, nil) // small budget: constant eviction
	data := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Put(fmt.Sprintf("k%d", i), data, "b", 0)
	}
}

func BenchmarkRingLookup(b *testing.B) {
	r := NewRing(128)
	for i := 0; i < 16; i++ {
		r.Add(fmt.Sprintf("cache%d", i))
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("object-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(keys[i%len(keys)])
	}
}
