package frontend

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/media"
	"repro/internal/origin"
	"repro/internal/profiledb"
	"repro/internal/san"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// TestCacheInboxAtAdmissionBound measures how deep a cache partition's
// inbox runs when two front ends, each at its default admission bound,
// probe it at once for one warm URL — the load san.ServerInboxSize is
// sized for. A partition serves its inbox one message at a time, so with
// a 1 ms service time nearly every prober has a request queued there at
// once; nothing may be dropped (a dropped probe would stall its request
// for the cache timeout, then fetch the origin again).
func TestCacheInboxAtAdmissionBound(t *testing.T) {
	for name, service := range map[string]time.Duration{"1ms": time.Millisecond, "none": 0} {
		t.Run(name, func(t *testing.T) {
			net := san.NewNetwork(1)
			cl := cluster.New(net)
			t.Cleanup(cl.StopAll)
			cl.AddNode("fe-node", false)
			cl.AddNode("c-node", false)
			db, err := profiledb.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			static := origin.NewStatic()
			const url = "http://a/warm.bin"
			static.Put(url, tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 5000)})

			svc := vcache.NewService("cache0", net, "c-node", vcache.NewPartition(1<<20, nil))
			svc.ServiceTime = func() time.Duration { return service }
			if _, err := cl.Spawn("c-node", svc); err != nil {
				t.Fatal(err)
			}
			var fes []*FrontEnd
			for i := 0; i < 2; i++ {
				fe := New(Config{
					Name:           fmt.Sprintf("fe%d", i),
					Node:           "fe-node",
					Net:            net,
					Profiles:       profiledb.NewReadCache(db),
					Origin:         static,
					MinDistillSize: 100,
				})
				if _, err := cl.Spawn("fe-node", fe); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "fe running", fe.Running)
				waitFor(t, "cache0 heard", func() bool { return len(fe.Cache().Nodes()) == 1 })
				fes = append(fes, fe)
			}
			ctx := context.Background()
			if _, err := fes[0].Do(ctx, Request{URL: url, User: "u"}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the original cached", func() bool {
				_, err := fes[1].Do(ctx, Request{URL: url, User: "u"})
				return err == nil && fes[1].Stats().CacheOriginal > 0
			})

			probers := len(fes) * defaultMaxInflight
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < probers; i++ {
				wg.Add(1)
				go func(fe *FrontEnd) {
					defer wg.Done()
					<-start
					if _, err := fe.Do(ctx, Request{URL: url, User: "u"}); err != nil {
						t.Errorf("Do: %v", err)
					}
				}(fes[i%len(fes)])
			}
			before := time.Now()
			close(start)
			wg.Wait()

			st := net.Stats()
			t.Logf("%d probers, %v a probe: inbox_max %d, inbox_full %d, %v", probers, service, st.InboxMax, st.InboxFull, time.Since(before))
			if st.InboxFull != 0 {
				t.Fatalf("%d messages dropped at a full inbox (inbox_max %d, ServerInboxSize %d)", st.InboxFull, st.InboxMax, san.ServerInboxSize)
			}
			if fetches := fes[0].Stats().OriginFetches + fes[1].Stats().OriginFetches; fetches != 1 {
				t.Fatalf("%d origin fetches, want the warm-up's 1: a probe went unanswered", fetches)
			}
			if service > 0 && st.InboxMax <= san.InboxSize {
				t.Fatalf("inbox_max %d: the probers never queued past an event loop's InboxSize %d", st.InboxMax, san.InboxSize)
			}
		})
	}
}
