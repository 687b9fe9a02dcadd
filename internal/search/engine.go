package search

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/tacc"
)

// FailureMode selects how the service rides out a lost worker (§3.2):
// how many replicas serve each partition.
type FailureMode int

const (
	// FastRestart is the HotBot production design: one copy of each
	// partition; a lost worker temporarily shrinks the searchable
	// corpus until the manager restarts it by name.
	FastRestart FailureMode = iota
	// CrossMount is the original Inktomi design: every partition is
	// served by two workers, so data availability stays at 100% with
	// graceful performance degradation.
	CrossMount
)

// String renders the mode.
func (m FailureMode) String() string {
	if m == CrossMount {
		return "cross-mount"
	}
	return "fast-restart"
}

// Config describes the search service.
type Config struct {
	// Partitions is the number of index partitions (the paper's
	// HotBot ran 26 nodes; tests use fewer).
	Partitions int
	Mode       FailureMode
	Seed       int64
	// QueryTimeout bounds each per-shard query.
	QueryTimeout time.Duration
}

// resultCacheSize bounds the recent-results cache (queries).
const resultCacheSize = 1024

// QueryResult is a collated answer.
type QueryResult struct {
	Query string
	Hits  []Hit
	// DocsSearched / TotalDocs expose graceful degradation: while a
	// partition has no worker to answer, DocsSearched < TotalDocs.
	DocsSearched int
	TotalDocs    int
	Partial      bool
	FromCache    bool
	ShardsAsked  int
	ShardsAlive  int
}

// Dispatch runs one task on some worker of a class: the SNS layer's
// stub.ManagerStub.Dispatch, passed as a method value, so this package
// depends on neither the stub nor the SAN.
type Dispatch func(ctx context.Context, class string, task *tacc.Task) (tacc.Blob, error)

// ShardClass names the worker class that serves index partition i.
func ShardClass(i int) string { return fmt.Sprintf("search-shard%d", i) }

// shardAnswer is a shard worker's result, JSON in its Blob: its top hits
// and how many documents it searched (the collator's measure of harvest).
type shardAnswer struct {
	Hits []Hit
	Docs int
}

// shardWorker serves one partition: the task's Key is the query, its
// "k" param how many hits to return.
type shardWorker struct {
	class string
	shard *Shard
}

func (w shardWorker) Class() string { return w.class }

func (w shardWorker) Process(_ context.Context, task *tacc.Task) (tacc.Blob, error) {
	data, err := json.Marshal(shardAnswer{Hits: w.shard.Search(task.Key, task.ParamInt("k", 10)), Docs: w.shard.Docs()})
	if err != nil {
		return tacc.Blob{}, err
	}
	return tacc.Blob{MIME: "application/json", Data: data}, nil
}

// Engine is the search service's collator: it sends each query to one
// worker of every partition's class and merges the answers.
type Engine struct {
	cfg   Config
	total int

	mu    sync.Mutex
	cache *resultCache
	stats EngineStats
}

// EngineStats counts engine activity.
type EngineStats struct {
	Queries        uint64
	CacheHits      uint64
	PartialAnswers uint64
}

// Deploy partitions the corpus and registers one worker class per
// partition in reg. Partitions are distinct classes and a partition's
// replicas are interchangeable clones of its class (Devlin/Gray). A
// class's factory builds its partition's shard, so a worker the manager
// restarts by name comes back with its partition: HotBot's fast
// restart. Start the SNS layer with reg and Workers, then Query through
// a front end's dispatch.
func Deploy(cfg Config, reg *tacc.Registry, docs []Doc) *Engine {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 4
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 2 * time.Second
	}
	for i, part := range Partition(docs, cfg.Partitions, cfg.Seed) {
		class := ShardClass(i)
		reg.Register(class, func() tacc.Worker { return shardWorker{class: class, shard: BuildShard(i, part)} })
	}
	return &Engine{cfg: cfg, total: len(docs), cache: newResultCache(resultCacheSize)}
}

// Workers is the core.Config.Workers map: every partition's class, one
// worker each in FastRestart mode, two in CrossMount.
func (e *Engine) Workers() map[string]int {
	n := 1
	if e.cfg.Mode == CrossMount {
		n = 2
	}
	out := make(map[string]int, e.cfg.Partitions)
	for i := 0; i < e.cfg.Partitions; i++ {
		out[ShardClass(i)] = n
	}
	return out
}

// Stats returns engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Query sends the query to every partition's class in parallel, each
// task bounded by QueryTimeout, collates the top k, and caches a full
// result for incremental delivery. A partition no worker answers for is
// left out: the answer shrinks instead of failing, and is not cached, so
// the same query asked after the partition's restart is whole again.
func (e *Engine) Query(ctx context.Context, dispatch Dispatch, query string, k int) QueryResult {
	e.mu.Lock()
	e.stats.Queries++
	if cached, ok := e.cache.get(query); ok {
		e.stats.CacheHits++
		e.mu.Unlock()
		out := *cached
		if len(out.Hits) > k {
			out.Hits = out.Hits[:k]
		}
		out.FromCache = true
		return out
	}
	e.mu.Unlock()

	answers := make([]*shardAnswer, e.cfg.Partitions)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, e.cfg.QueryTimeout)
			defer cancel()
			task := &tacc.Task{Key: query, Params: map[string]string{"k": strconv.Itoa(k)}}
			out, err := dispatch(cctx, ShardClass(i), task)
			var a shardAnswer
			if err == nil && json.Unmarshal(out.Data, &a) == nil {
				answers[i] = &a
			}
		}()
	}
	wg.Wait()

	res := QueryResult{Query: query, TotalDocs: e.total, ShardsAsked: len(answers)}
	lists := make([][]Hit, 0, len(answers))
	for _, a := range answers {
		if a != nil {
			res.ShardsAlive++
			res.DocsSearched += a.Docs
			lists = append(lists, a.Hits)
		}
	}
	res.Hits = MergeHits(lists, k)
	res.Partial = res.ShardsAlive < res.ShardsAsked
	e.mu.Lock()
	if res.Partial {
		e.stats.PartialAnswers++
	} else {
		e.cache.put(query, &res)
	}
	e.mu.Unlock()
	return res
}

// resultCache is a small LRU of recent query results.
type resultCache struct {
	cap   int
	order []string
	m     map[string]*QueryResult
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, m: make(map[string]*QueryResult)}
}

func (c *resultCache) get(q string) (*QueryResult, bool) {
	res, ok := c.m[q]
	return res, ok
}

func (c *resultCache) put(q string, res *QueryResult) {
	if _, exists := c.m[q]; !exists {
		c.order = append(c.order, q)
		if len(c.order) > c.cap {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.m, oldest)
		}
	}
	c.m[q] = res
}

// RenderResults produces the dynamic-HTML result page (the paper's
// Tcl-macro presentation layer, Table 1's "dynamic HTML generation").
func RenderResults(res QueryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>HotBot: %s</title></head><body>\n", res.Query)
	fmt.Fprintf(&b, "<h1>Results for %q</h1>\n", res.Query)
	if res.Partial {
		fmt.Fprintf(&b, "<p><i>Partial results: searched %d of %d documents.</i></p>\n",
			res.DocsSearched, res.TotalDocs)
	}
	b.WriteString("<ol>\n")
	for _, h := range res.Hits {
		fmt.Fprintf(&b, `<li><a href="http://doc%d.example/">%s</a> <small>(%.2f)</small></li>`+"\n",
			h.Doc, h.Title, h.Score)
	}
	b.WriteString("</ol></body></html>\n")
	return b.String()
}
