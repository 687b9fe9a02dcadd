package snsim

import (
	"container/list"
	"math/rand"

	"repro/internal/trace"
)

// This file reproduces the §4.4 cache simulations: "we ran a number of
// cache simulations to explore the relationship between user
// population size, cache size, and cache hit rate, using LRU
// replacement". The paper's findings:
//
//   - hit rate increases monotonically with cache size, then plateaus
//     at a level set by the population size (6 GB -> ~56% for the
//     traced ~8000 users);
//   - for a fixed cache size, a larger population raises the hit rate
//     (cross-user locality) until the sum of working sets exceeds the
//     cache, after which it falls.

// CacheCurveParams configures one LRU simulation point.
type CacheCurveParams struct {
	Seed       int64
	Users      int
	ReqPerUser int
	// Universe is the number of distinct objects reachable (the
	// "web"); it does not scale with population.
	Universe int
	// PrivateSet is the size of each user's private working set
	// (bookmarks, home pages); see the popularity mixture below.
	PrivateSet int
	// CacheBytes is the total virtual-cache budget across all
	// partitions.
	CacheBytes int64
}

// Popularity is a three-way mixture per request:
//
//	locality     -> the shared Zipf head (cross-user popular set),
//	privateFrac  -> the requesting user's private working set of
//	                PrivateSet objects; the paper's "sum of the
//	                users' working sets",
//	remainder    -> uniform one-timers over the whole universe.
//
// zipfS/zipfV shape the head: P(k) ~ (zipfV+k)^-zipfS.
const (
	locality    = 0.48
	privateFrac = 0.22
	zipfS       = 1.1
	zipfV       = 4
)

func (p CacheCurveParams) withDefaults() CacheCurveParams {
	if p.Users <= 0 {
		p.Users = 8000
	}
	if p.ReqPerUser <= 0 {
		p.ReqPerUser = 250
	}
	if p.Universe <= 0 {
		p.Universe = 2_000_000
	}
	if p.PrivateSet <= 0 {
		p.PrivateSet = 60
	}
	if p.CacheBytes <= 0 {
		p.CacheBytes = 6 << 30
	}
	return p
}

// CacheCurveResult is one simulated point.
type CacheCurveResult struct {
	Params      CacheCurveParams
	Requests    int
	HitRate     float64
	UniqueBytes int64 // total working set touched
	ColdMisses  int
}

// byteLRU is a sizes-only LRU cache (no payloads — this is a
// simulation of byte occupancy, not a data store).
type byteLRU struct {
	budget int64
	used   int64
	ll     *list.List
	index  map[int]*list.Element
}

type lruEnt struct {
	obj  int
	size int64
}

func newByteLRU(budget int64) *byteLRU {
	return &byteLRU{budget: budget, ll: list.New(), index: make(map[int]*list.Element)}
}

// access touches an object, returning true on a hit; on a miss the
// object is inserted and LRU entries evicted to fit.
func (c *byteLRU) access(obj int, size int64) bool {
	if el, ok := c.index[obj]; ok {
		c.ll.MoveToFront(el)
		return true
	}
	if size > c.budget {
		return false // uncacheable
	}
	el := c.ll.PushFront(lruEnt{obj: obj, size: size})
	c.index[obj] = el
	c.used += size
	for c.used > c.budget {
		back := c.ll.Back()
		ent := back.Value.(lruEnt)
		c.ll.Remove(back)
		delete(c.index, ent.obj)
		c.used -= ent.size
	}
	return false
}

// RunCacheCurve simulates one (population, cache size) point.
//
// Every user draws from the same global popularity distribution (the
// paper's cross-user locality); a larger population therefore
// generates more requests over the same popular objects, raising the
// attainable hit rate — until the touched working set outgrows the
// cache.
func RunCacheCurve(p CacheCurveParams) CacheCurveResult {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(p.Universe-1))
	draw := func() int {
		u := rng.Float64()
		switch {
		case u < locality:
			return int(z.Uint64())
		case u < locality+privateFrac:
			// The requesting user's private working set lives past
			// the shared universe in id space.
			user := rng.Intn(p.Users)
			return p.Universe + user*p.PrivateSet + rng.Intn(p.PrivateSet)
		default:
			return rng.Intn(p.Universe)
		}
	}
	model := trace.NewContentModel()

	cache := newByteLRU(p.CacheBytes)
	requests := p.Users * p.ReqPerUser
	hits := 0
	cold := 0
	var uniqueBytes int64
	// sizes memoizes the deterministic per-object size: sampling the
	// content model (a fresh seeded rng per draw) dominated the
	// simulation's runtime, and repeat accesses — the common case in
	// a locality-driven workload — need only the lookup.
	sizes := make(map[int]int64, requests/4)

	for i := 0; i < requests; i++ {
		obj := draw()
		size, ok := sizes[obj]
		if !ok {
			size = objSize(p.Seed, obj, model)
			sizes[obj] = size
			uniqueBytes += size
			cold++
		}
		if cache.access(obj, size) {
			hits++
		}
	}
	return CacheCurveResult{
		Params:      p,
		Requests:    requests,
		HitRate:     float64(hits) / float64(requests),
		UniqueBytes: uniqueBytes,
		ColdMisses:  cold,
	}
}

// objSize returns a deterministic per-object size without the full
// content-generation cost.
func objSize(seed int64, obj int, model *trace.ContentModel) int64 {
	r := rand.New(rand.NewSource(seed ^ int64(obj)*0x9e3779b9 + 0x5151))
	_, size := model.Sample(r)
	return int64(size)
}
