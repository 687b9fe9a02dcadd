package search_test

// The engine over a SAN running stub's codec, so every shard query and
// answer crosses as bytes (an external test package: stub imports
// search).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/san"
	"repro/internal/search"
	"repro/internal/stub"
)

// deployTestEngine boots a small engine over a fresh cluster.
func deployTestEngine(t *testing.T, mode search.FailureMode, parts int) (*search.Engine, *cluster.Cluster, []search.Doc) {
	t.Helper()
	net := san.NewNetwork(1, san.WithCodec(stub.WireCodec{}))
	cl := cluster.New(net)
	for i := 0; i < parts; i++ {
		cl.AddNode(fmt.Sprintf("snode%d", i), false)
	}
	rng := rand.New(rand.NewSource(3))
	docs := search.GenerateCorpus(rng, 3000, 800)
	e, err := search.Deploy(search.Config{
		Net:          net,
		Cluster:      cl,
		Partitions:   parts,
		Mode:         mode,
		Seed:         7,
		QueryTimeout: 300 * time.Millisecond,
	}, docs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.StopAll)
	return e, cl, docs
}

func TestEngineFullCoverageQuery(t *testing.T) {
	e, _, docs := deployTestEngine(t, search.FastRestart, 4)
	res := e.Query(context.Background(), "ba", 10)
	if res.Partial {
		t.Fatalf("partial with all nodes up: %+v", res)
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
	e, _, docs := deployTestEngine(t, search.FastRestart, 4)
	reference := search.BuildShard(0, docs)
	query := "ba be"
	got := e.Query(context.Background(), query, 20)
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
	e, cl, docs := deployTestEngine(t, search.FastRestart, 4)
	ctx := context.Background()

	// Kill one shard node: the 54M -> 51M story in miniature.
	if err := cl.KillNode("snode1"); err != nil {
		t.Fatal(err)
	}
	res := e.Query(ctx, "bi", 10)
	if !res.Partial {
		t.Fatal("node loss not reflected as partial result")
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
		t.Fatalf("coverage %.2f too low for one lost node of four", frac)
	}
	if e.Stats().PartialAnswers == 0 {
		t.Fatal("partial answers not counted")
	}
}

func TestCrossMountKeepsFullAvailability(t *testing.T) {
	e, cl, docs := deployTestEngine(t, search.CrossMount, 4)
	ctx := context.Background()
	if err := cl.KillNode("snode1"); err != nil {
		t.Fatal(err)
	}
	res := e.Query(ctx, "bi", 10)
	if res.Partial {
		t.Fatalf("cross-mount mode went partial: %+v", res)
	}
	if res.DocsSearched != len(docs) {
		t.Fatalf("searched %d of %d despite replicas", res.DocsSearched, len(docs))
	}
	if e.Stats().ReplicaFallbacks == 0 {
		t.Fatal("replica fallback not exercised")
	}
}

func TestResultCacheIncrementalDelivery(t *testing.T) {
	e, _, _ := deployTestEngine(t, search.FastRestart, 2)
	ctx := context.Background()
	res := e.Query(ctx, "ba", 50)
	if res.FromCache {
		t.Fatal("first query claimed cache")
	}
	res2 := e.Query(ctx, "ba", 50)
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

func TestDeployNeedsEnoughNodes(t *testing.T) {
	net := san.NewNetwork(1, san.WithCodec(stub.WireCodec{}))
	cl := cluster.New(net)
	cl.AddNode("only", false)
	_, err := search.Deploy(search.Config{Net: net, Cluster: cl, Partitions: 4}, nil)
	if err == nil {
		t.Fatal("deploy with too few nodes succeeded")
	}
}
