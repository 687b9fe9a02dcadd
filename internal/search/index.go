// Package search implements the HotBot-style search engine of paper
// §3.2: an inverted full-text index statically partitioned across
// worker nodes ("each worker handles a subset of the database
// proportional to its CPU power, and every query goes to all workers
// in parallel"), a collating front end, a cache of recent searches for
// incremental delivery, and both failure-management modes the paper
// describes — cross-mounted replicas (the original Inktomi design,
// 100% data availability) and fast-restart with temporary partition
// loss (the HotBot/RAID design, graceful corpus degradation: losing 1
// of 26 nodes drops 54M docs to ~51M).
//
// HotBot predates the layered SNS framework, but this package runs it
// on that layer as a second tenant beside TranSend: each partition is a
// TACC worker class (ShardClass) whose one or two workers the manager
// places, restarts by name and load-balances like any other, and the
// collator fans a query out through the front end's stub dispatch, one
// task per class. It imports neither the stub nor the SAN.
package search

import (
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Doc is one document in the corpus.
type Doc struct {
	ID    int
	Title string
	Body  string
}

// Hit is one scored search result.
type Hit struct {
	Doc   int
	Title string
	Score float64
	Shard int
}

// Tokenize lowercases and splits text into terms. Deliberately
// simple: the reproduction's claims are about distribution, not IR
// quality.
func Tokenize(text string) []string {
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !('a' <= r && r <= 'z' || '0' <= r && r <= '9')
	})
	out := fields[:0]
	for _, f := range fields {
		if len(f) > 1 {
			out = append(out, f)
		}
	}
	return out
}

type posting struct {
	doc int32
	tf  int32
}

// Shard is an inverted index over one partition of the corpus.
type Shard struct {
	ID       int
	postings map[string][]posting
	titles   map[int32]string
	docCount int
}

// BuildShard indexes one partition.
func BuildShard(id int, docs []Doc) *Shard {
	s := &Shard{
		ID:       id,
		postings: make(map[string][]posting),
		titles:   make(map[int32]string, len(docs)),
	}
	counts := map[string]int32{} // one document's term frequencies, reused
	for _, d := range docs {
		s.titles[int32(d.ID)] = d.Title
		clear(counts)
		for _, t := range Tokenize(d.Title + " " + d.Body) {
			counts[t]++
		}
		for term, tf := range counts {
			s.postings[term] = append(s.postings[term], posting{doc: int32(d.ID), tf: tf})
		}
		s.docCount++
	}
	return s
}

// Docs returns the number of documents indexed.
func (s *Shard) Docs() int { return s.docCount }

// Search scores the query against the shard and returns the top k
// hits. Scoring is tf * idf with shard-local document frequencies —
// sufficient for stable ranking within and across partitions of a
// randomly partitioned corpus.
func (s *Shard) Search(query string, k int) []Hit {
	terms := Tokenize(query)
	if len(terms) == 0 || k <= 0 {
		return nil
	}
	scores := map[int32]float64{}
	for _, term := range terms {
		plist, ok := s.postings[term]
		if !ok {
			continue
		}
		idf := idf(s.docCount, len(plist))
		for _, p := range plist {
			scores[p.doc] += float64(p.tf) * idf
		}
	}
	hits := make([]Hit, 0, len(scores))
	for doc, score := range scores {
		hits = append(hits, Hit{Doc: int(doc), Title: s.titles[doc], Score: score, Shard: s.ID})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc < hits[j].Doc
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

func idf(docs, df int) float64 {
	if df == 0 {
		return 0
	}
	// log((N+1)/(df+1)) + 1, always positive.
	return math.Log(float64(docs+1)/float64(df+1)) + 1
}

// MergeHits collates per-shard top-k lists into a global top-k (the
// front end's collation step).
func MergeHits(lists [][]Hit, k int) []Hit {
	var all []Hit
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Doc < all[j].Doc
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Partition assigns documents to n partitions uniformly at random
// (deterministic per seed) — "the database partitioning distributes
// documents randomly".
func Partition(docs []Doc, n int, seed int64) [][]Doc {
	if n <= 0 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Doc, n)
	for _, d := range docs {
		i := rng.Intn(n)
		out[i] = append(out[i], d)
	}
	return out
}

// GenerateCorpus synthesizes a corpus with a Zipf vocabulary, standing
// in for the 54M-page web crawl.
func GenerateCorpus(rng *rand.Rand, nDocs, vocab int) []Doc {
	if vocab < 100 {
		vocab = 100
	}
	words := make([]string, vocab)
	for i := range words {
		words[i] = syntheticWord(i)
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(vocab-1))
	docs := make([]Doc, nDocs)
	for i := range docs {
		var title strings.Builder
		for w := 0; w < 3+rng.Intn(5); w++ {
			if w > 0 {
				title.WriteByte(' ')
			}
			title.WriteString(words[zipf.Uint64()])
		}
		var body strings.Builder
		for w := 0; w < 40+rng.Intn(160); w++ {
			if w > 0 {
				body.WriteByte(' ')
			}
			body.WriteString(words[zipf.Uint64()])
		}
		docs[i] = Doc{ID: i, Title: title.String(), Body: body.String()}
	}
	return docs
}

// syntheticWord produces a pronounceable token for a vocabulary rank.
func syntheticWord(i int) string {
	consonants := "bcdfghklmnprstvw"
	vowels := "aeiou"
	var b strings.Builder
	n := i
	for {
		b.WriteByte(consonants[n%len(consonants)])
		n /= len(consonants)
		b.WriteByte(vowels[n%len(vowels)])
		n /= len(vowels)
		if n == 0 {
			break
		}
	}
	return b.String()
}
