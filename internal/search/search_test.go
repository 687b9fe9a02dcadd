package search

import (
	"math/rand"
	"strings"
	"testing"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("The Quick-Brown FOX, jumps 42 times!")
	want := []string{"the", "quick", "brown", "fox", "jumps", "42", "times"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens = %v", got)
		}
	}
}

func TestShardSearchRanking(t *testing.T) {
	docs := []Doc{
		{ID: 0, Title: "cluster computing", Body: "cluster cluster cluster workstation"},
		{ID: 1, Title: "databases", Body: "transaction acid durability"},
		{ID: 2, Title: "networks", Body: "cluster appears once here"},
	}
	s := BuildShard(0, docs)
	hits := s.Search("cluster", 10)
	if len(hits) != 2 {
		t.Fatalf("hits = %+v", hits)
	}
	if hits[0].Doc != 0 || hits[1].Doc != 2 {
		t.Fatalf("ranking wrong: %+v", hits)
	}
	if hits[0].Score <= hits[1].Score {
		t.Fatal("tf weighting missing")
	}
	if got := s.Search("zebra", 10); len(got) != 0 {
		t.Fatalf("unknown term returned hits: %v", got)
	}
	if got := s.Search("", 10); got != nil {
		t.Fatal("empty query should return nil")
	}
}

func TestShardTopKBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	docs := GenerateCorpus(rng, 500, 200)
	s := BuildShard(0, docs)
	term := Tokenize(docs[0].Body)[0]
	hits := s.Search(term, 5)
	if len(hits) > 5 {
		t.Fatalf("top-k bound violated: %d", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatal("hits not sorted by score")
		}
	}
}

func TestPartitionCoversAllDocsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	docs := GenerateCorpus(rng, 2000, 500)
	parts := Partition(docs, 7, 42)
	seen := map[int]int{}
	for _, p := range parts {
		for _, d := range p {
			seen[d.ID]++
		}
	}
	if len(seen) != 2000 {
		t.Fatalf("covered %d docs", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("doc %d assigned %d times", id, n)
		}
	}
	// Roughly balanced.
	for i, p := range parts {
		if len(p) < 2000/7/2 || len(p) > 2000/7*2 {
			t.Fatalf("partition %d has %d docs", i, len(p))
		}
	}
}

func TestMergeHits(t *testing.T) {
	a := []Hit{{Doc: 1, Score: 5}, {Doc: 2, Score: 1}}
	b := []Hit{{Doc: 3, Score: 3}}
	merged := MergeHits([][]Hit{a, b}, 2)
	if len(merged) != 2 || merged[0].Doc != 1 || merged[1].Doc != 3 {
		t.Fatalf("merged = %+v", merged)
	}
}

func TestResultCacheEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", &QueryResult{Query: "a"})
	c.put("b", &QueryResult{Query: "b"})
	c.put("c", &QueryResult{Query: "c"})
	if _, ok := c.get("a"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("newest entry evicted")
	}
}

func TestRenderResults(t *testing.T) {
	page := RenderResults(QueryResult{
		Query:        "clusters",
		Hits:         []Hit{{Doc: 1, Title: "a doc", Score: 2.5}},
		DocsSearched: 50,
		TotalDocs:    100,
		Partial:      true,
	})
	if !strings.Contains(page, "Partial results") {
		t.Fatal("partial banner missing")
	}
	if !strings.Contains(page, "a doc") {
		t.Fatal("hit missing")
	}
}

func TestGenerateCorpusDeterministic(t *testing.T) {
	a := GenerateCorpus(rand.New(rand.NewSource(5)), 50, 200)
	b := GenerateCorpus(rand.New(rand.NewSource(5)), 50, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("corpus not deterministic")
		}
	}
	if syntheticWord(0) == syntheticWord(1) {
		t.Fatal("word collision")
	}
}
