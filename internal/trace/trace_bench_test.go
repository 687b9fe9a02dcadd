package trace

import (
	"math/rand"
	"testing"
	"time"
)

func BenchmarkContentModelSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewContentModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sample(rng)
	}
}

func BenchmarkArrivalGenerateMinute(b *testing.B) {
	m := DefaultArrivals(1)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Generate(rng, 12*time.Hour, 12*time.Hour+time.Minute)
	}
}
