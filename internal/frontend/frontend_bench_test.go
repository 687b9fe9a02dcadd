package frontend

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/media"
	"repro/internal/origin"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// benchFE boots a front end backed by one cache partition and a static
// origin, mirroring startFE but for benchmarks.
func benchFE(b *testing.B, mutate func(*Config)) (*FrontEnd, *origin.Static) {
	b.Helper()
	net := san.NewNetwork(1, san.WithCodec(stub.WireCodec{}))
	cl := cluster.New(net)
	cl.AddNode("fe-node", false)
	cl.AddNode("c-node", false)

	static := origin.NewStatic()
	svc := vcache.NewService("cache0", net, "c-node", vcache.NewPartition(64<<20, nil))
	if _, err := cl.Spawn("c-node", svc); err != nil {
		b.Fatal(err)
	}

	cfg := Config{
		Name:        "fe0",
		Node:        "fe-node",
		Net:         net,
		Origin:      static,
		CacheNodes:  map[string]san.Addr{"cache0": svc.Addr()},
		ManagerStub: stub.ManagerStubConfig{CallTimeout: 50 * time.Millisecond},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	fe := New(cfg)
	if _, err := cl.Spawn("fe-node", fe); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.StopAll)
	deadline := time.Now().Add(5 * time.Second)
	for !fe.Running() {
		if time.Now().After(deadline) {
			b.Fatal("front end never started")
		}
		time.Sleep(time.Millisecond)
	}
	return fe, static
}

// BenchmarkFrontEndHotKey drives concurrent requests for one hot URL
// through the full path: worker pool, virtual-cache probe over the SAN,
// origin on the first miss. The Zipf-skewed workloads of §4.1 make this
// the dominant request shape.
func BenchmarkFrontEndHotKey(b *testing.B) {
	fe, static := benchFE(b, nil)
	static.Put("http://a/hot.bin", tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 4096)})
	ctx := context.Background()
	// Warm the cache so the steady state is all hits.
	if _, err := fe.Do(ctx, Request{URL: "http://a/hot.bin"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := fe.Do(ctx, Request{URL: "http://a/hot.bin"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFrontEndZipfMix spreads parallel load over a small hot set,
// so distinct keys hash to distinct cache shards.
func BenchmarkFrontEndZipfMix(b *testing.B) {
	fe, static := benchFE(b, nil)
	urls := make([]string, 64)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://a/obj%d.bin", i)
		static.Put(urls[i], tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 4096)})
	}
	ctx := context.Background()
	for _, u := range urls {
		if _, err := fe.Do(ctx, Request{URL: u}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			// Crude Zipf-ish skew: half the traffic on the top 4 URLs.
			var u string
			if i%2 == 0 {
				u = urls[i%4]
			} else {
				u = urls[i%len(urls)]
			}
			if _, err := fe.Do(ctx, Request{URL: u}); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
