// Package vcache implements TranSend's caching subsystem (paper
// §3.1.5): per-node object-cache partitions with LRU eviction under a
// byte budget, and a client-side "single virtual cache" that hashes
// the key space across partitions with consistent hashing and
// automatically re-hashes when cache nodes are added or removed —
// the two fixes the paper applied to stock Harvest (no sibling
// queries, and direct injection of post-transformation data).
//
// Cached data is BASE: "all cached data can be thrown away at the
// cost of performance — cache nodes are workers whose only job is the
// management of BASE data."
//
// A Partition is one map and one LRU list under one mutex: its cache
// node's Service serves the inbox serially, so the lock is only ever
// shared with Stats readers.
//
// A Service is a roster row like a front end: it announces itself on the
// control group once an interval (supervisor.MsgAnnounce, a Member of
// kind cache, always up — a cache has nothing to drain), and the manager
// restarts one whose announcements stop. A Client finds the partitions
// by the same announcements (Learn, Sweep): where they live is heard in
// every process, not computed by any.
package vcache

import (
	"container/list"
	"sync"
	"time"
)

// Entry is one cached object.
type Entry struct {
	Key     string
	Data    []byte
	MIME    string
	Expires time.Time // zero = no TTL
}

// Stats counts partition activity.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Puts      uint64
	Injects   uint64 // post-transform data injected by workers
	Evictions uint64
	Expired   uint64
	Used      int64 // bytes currently cached
	Objects   int
}

// Partition is one cache node's store: an LRU map bounded by a byte
// budget. Safe for concurrent use.
type Partition struct {
	budget int64
	clock  func() time.Time

	mu    sync.Mutex
	ll    *list.List // front = most recent
	index map[string]*list.Element
	used  int64
	stats Stats
}

type lruItem struct {
	entry Entry
	size  int64
}

// NewPartition creates a partition holding at most budget bytes of
// object data. A nil clock uses real time.
func NewPartition(budget int64, clock func() time.Time) *Partition {
	if budget <= 0 {
		panic("vcache: budget must be positive")
	}
	if clock == nil {
		clock = time.Now
	}
	return &Partition{budget: budget, clock: clock, ll: list.New(), index: make(map[string]*list.Element)}
}

// Get returns the cached entry for key and refreshes its recency. An
// entry past its TTL is removed and reads as a miss.
func (p *Partition) Get(key string) (Entry, bool) {
	e, _, ok := p.get(key, false)
	return e, ok
}

// GetStale returns the cached entry for key even when its TTL has
// passed, reporting stale=true for an expired hit. Unlike Get it never
// removes the expired entry: the degraded-mode read (BASE — stale data
// beats no data under overload) must stay repeatable while the entry
// remains resident, and LRU eviction already bounds how long that is.
// A stale hit refreshes recency like any other hit.
func (p *Partition) GetStale(key string) (e Entry, stale, found bool) {
	return p.get(key, true)
}

func (p *Partition) get(key string, keepStale bool) (e Entry, stale, found bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.index[key]
	if !ok {
		p.stats.Misses++
		return Entry{}, false, false
	}
	item := el.Value.(*lruItem)
	stale = !item.entry.Expires.IsZero() && p.clock().After(item.entry.Expires)
	if stale && !keepStale {
		p.removeLocked(el)
		p.stats.Expired++
		p.stats.Misses++
		return Entry{}, false, false
	}
	p.ll.MoveToFront(el)
	p.stats.Hits++
	return item.entry, stale, true
}

// Put stores original (pre-transformation) content.
func (p *Partition) Put(key string, data []byte, mime string, ttl time.Duration) {
	p.store(key, data, mime, ttl, false)
}

// Inject stores post-transformation or intermediate-state content —
// the capability the paper added to Harvest so distillers could cache
// their outputs (§3.1.5).
func (p *Partition) Inject(key string, data []byte, mime string, ttl time.Duration) {
	p.store(key, data, mime, ttl, true)
}

func (p *Partition) store(key string, data []byte, mime string, ttl time.Duration, inject bool) {
	size := int64(len(data)) + int64(len(key))
	if size > p.budget {
		return // larger than the whole budget: uncacheable
	}
	e := Entry{Key: key, Data: data, MIME: mime}
	if ttl > 0 {
		e.Expires = p.clock().Add(ttl)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if inject {
		p.stats.Injects++
	} else {
		p.stats.Puts++
	}
	if el, ok := p.index[key]; ok {
		item := el.Value.(*lruItem)
		p.used += size - item.size
		item.entry, item.size = e, size
		p.ll.MoveToFront(el)
	} else {
		p.index[key] = p.ll.PushFront(&lruItem{entry: e, size: size})
		p.used += size
	}
	for p.used > p.budget {
		p.removeLocked(p.ll.Back())
		p.stats.Evictions++
	}
}

// Remove deletes an entry.
func (p *Partition) Remove(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.index[key]
	if ok {
		p.removeLocked(el)
	}
	return ok
}

func (p *Partition) removeLocked(el *list.Element) {
	item := p.ll.Remove(el).(*lruItem)
	delete(p.index, item.entry.Key)
	p.used -= item.size
}

// Flush discards everything — legal at any time for BASE data.
func (p *Partition) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ll.Init()
	p.index = make(map[string]*list.Element)
	p.used = 0
}

// Len returns the number of cached objects.
func (p *Partition) Len() int { return p.Stats().Objects }

// Used returns the bytes currently cached.
func (p *Partition) Used() int64 { return p.Stats().Used }

// Stats returns a snapshot of counters.
func (p *Partition) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Used, st.Objects = p.used, len(p.index)
	return st
}

// HitRate returns hits / (hits + misses), or 0 before any lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
