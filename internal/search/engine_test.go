package search_test

// The engine as a tenant of the SNS layer: core.Start runs one worker
// class per partition, and every shard query is a task dispatched
// through a front end's manager stub (an external test package, so it
// may import core).

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/search"
	"repro/internal/stub"
	"repro/internal/tacc"
)

// startEngine boots a small engine on core.Start and returns it with
// the system and the front end's manager stub, whose Dispatch it
// queries through.
func startEngine(t *testing.T, mode search.FailureMode, parts int) (*search.Engine, *core.System, *stub.ManagerStub, []search.Doc) {
	t.Helper()
	docs := search.GenerateCorpus(rand.New(rand.NewSource(3)), 3000, 800)
	reg := tacc.NewRegistry()
	e := search.Deploy(search.Config{
		Partitions:   parts,
		Mode:         mode,
		Seed:         7,
		QueryTimeout: 300 * time.Millisecond,
	}, reg, docs)
	sys, err := core.Start(core.Config{
		Seed:           1,
		CacheParts:     1,
		Registry:       reg,
		Workers:        e.Workers(),
		BeaconInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	if !sys.WaitReady(10 * time.Second) {
		t.Fatal("system not ready")
	}
	return e, sys, sys.FrontEnds()[0].ManagerStub(), docs
}

// killShard crashes one worker of partition i's class.
func killShard(t *testing.T, sys *core.System, i int) {
	t.Helper()
	for _, id := range sys.Workers() {
		if strings.HasPrefix(id, search.ShardClass(i)+".") {
			if err := sys.Kill(id); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no worker of %s in %v", search.ShardClass(i), sys.Workers())
}

func TestEngineFullCoverageQuery(t *testing.T) {
	e, _, ms, docs := startEngine(t, search.FastRestart, 4)
	res := e.Query(context.Background(), ms.Dispatch, "ba", 10)
	if res.Partial {
		t.Fatalf("partial with all workers up: %+v", res)
	}
	if res.DocsSearched != len(docs) {
		t.Fatalf("searched %d of %d", res.DocsSearched, len(docs))
	}
	if res.ShardsAlive != 4 {
		t.Fatalf("shards alive = %d", res.ShardsAlive)
	}
}

func TestEngineMatchesSingleShardReference(t *testing.T) {
	// A partitioned engine must return the same top hits as one big
	// local index (random partitioning preserves ranking to within
	// idf noise; we check the top result and hit count).
	e, _, ms, docs := startEngine(t, search.FastRestart, 4)
	reference := search.BuildShard(0, docs)
	query := "ba be"
	got := e.Query(context.Background(), ms.Dispatch, query, 20)
	want := reference.Search(query, 20)
	if len(got.Hits) == 0 || len(want) == 0 {
		t.Fatalf("no hits: engine=%d ref=%d", len(got.Hits), len(want))
	}
	wantDocs := map[int]bool{}
	for _, h := range want {
		wantDocs[h.Doc] = true
	}
	overlap := 0
	for _, h := range got.Hits {
		if wantDocs[h.Doc] {
			overlap++
		}
	}
	if float64(overlap)/float64(len(got.Hits)) < 0.6 {
		t.Fatalf("only %d/%d overlap with reference ranking", overlap, len(got.Hits))
	}
}

func TestFastRestartDegradesGracefully(t *testing.T) {
	e, sys, ms, docs := startEngine(t, search.FastRestart, 4)
	ctx := context.Background()

	// Lose one partition's only worker: the 54M -> 51M story in miniature.
	killed := time.Now()
	killShard(t, sys, 1)
	res := e.Query(ctx, ms.Dispatch, "bi", 10)
	if !res.Partial {
		t.Fatal("worker loss not reflected as partial result")
	}
	if res.DocsSearched >= len(docs) {
		t.Fatal("docs searched did not shrink")
	}
	if res.ShardsAlive != 3 {
		t.Fatalf("shards alive = %d, want 3", res.ShardsAlive)
	}
	// Still useful: roughly 3/4 of the corpus searched.
	frac := float64(res.DocsSearched) / float64(len(docs))
	if frac < 0.6 {
		t.Fatalf("coverage %.2f too low for one lost partition of four", frac)
	}
	if e.Stats().PartialAnswers == 0 {
		t.Fatal("partial answers not counted")
	}

	// Fast restart: the manager restarts the worker by name, and the
	// same query is whole again (a partial answer is not cached).
	for {
		res = e.Query(ctx, ms.Dispatch, "bi", 10)
		if !res.Partial && res.DocsSearched == len(docs) {
			t.Logf("full again %v after the kill", time.Since(killed).Round(time.Millisecond))
			return
		}
		if time.Since(killed) > 2*time.Second {
			t.Fatalf("still partial 2 s after the kill: %d shards, %d of %d docs", res.ShardsAlive, res.DocsSearched, len(docs))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCrossMountKeepsFullAvailability(t *testing.T) {
	e, sys, ms, docs := startEngine(t, search.CrossMount, 4)
	ctx := context.Background()
	killed := time.Now()
	killShard(t, sys, 1)
	// The stub fails over to the surviving replica whenever its lottery
	// picks the dead one; query until it has, every answer full.
	for n := 0; ms.Stats().Failovers == 0; n++ {
		res := e.Query(ctx, ms.Dispatch, fmt.Sprintf("bi %d", n), 10)
		if res.Partial || res.DocsSearched != len(docs) {
			t.Fatalf("cross-mount went partial: %d shards, %d of %d docs", res.ShardsAlive, res.DocsSearched, len(docs))
		}
		if time.Since(killed) > 2*time.Second {
			t.Fatal("no failover to the surviving replica in 2 s")
		}
	}
}

func TestResultCacheIncrementalDelivery(t *testing.T) {
	e, _, ms, _ := startEngine(t, search.FastRestart, 2)
	ctx := context.Background()
	res := e.Query(ctx, ms.Dispatch, "ba", 50)
	if res.FromCache {
		t.Fatal("first query claimed cache")
	}
	res2 := e.Query(ctx, ms.Dispatch, "ba", 50)
	if !res2.FromCache {
		t.Fatal("repeat query missed cache")
	}
	if e.Stats().CacheHits != 1 {
		t.Fatalf("cache hits = %d", e.Stats().CacheHits)
	}
	// Page 2 straight from the cache.
	if len(res.Hits) > 10 {
		page2, ok := e.Page("ba", 2, 10)
		if !ok || len(page2) == 0 {
			t.Fatal("page 2 unavailable from cache")
		}
		if page2[0].Doc != res.Hits[10].Doc {
			t.Fatal("page 2 content wrong")
		}
	}
	if _, ok := e.Page("never-queried", 1, 10); ok {
		t.Fatal("uncached query paged")
	}
	if _, ok := e.Page("ba", 0, 10); ok {
		t.Fatal("page 0 accepted")
	}
}
