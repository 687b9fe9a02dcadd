package vcache

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/softstate"
	"repro/internal/supervisor"
)

// Message kinds for the cache wire protocol. Cache nodes are plain
// workers reachable over the SAN; the paper notes each Harvest request
// cost a TCP connection — here a read is one SAN round trip (an
// optional ServiceTime models the measured per-hit cost, §4.4) and a
// write is one datagram: the cache is BASE soft state, nobody acts on
// a store's receipt, so none is sent. A process still reads its own
// writes, by ordering: a write and any later probe from that process
// ride one connection to the partition's process, which keeps append
// order, and Run drains the inbox serially. Writers in two processes
// are promised nothing about each other.
//
// A read may name two keys: the partition looks up GetReq.Else only
// when Key missed (two Partition.Gets, so a double miss counts twice)
// and GetResp.Else says which answered — "the distilled variant, else
// the original" in one round trip. That works because routing is by
// object, not by key: Client.owner hashes objectOf(key), so "orig|U"
// and every Pipeline.CacheKey(U, ...) name one partition. The price
// under BASE: losing a partition loses a URL's original and variants
// together (whole-key hashing sometimes lost only one) — still a miss.
const (
	MsgGet    = "cache.get"
	MsgGot    = "cache.got"
	MsgPut    = "cache.put"
	MsgInject = "cache.inject"
	MsgStats  = "cache.stats"
	MsgStatsR = "cache.stats.reply"
)

// GetReq asks for Key and, when Key misses and Else is set, for Else on
// the same partition. Stale widens both lookups to entries whose TTL
// has passed but which are still resident: the BASE degraded-mode read
// an overloaded front end uses when stale data beats no data.
type GetReq struct {
	Key   string
	Stale bool
	Else  string
}

// GetResp answers a GetReq. Stale marks an entry served past its TTL
// (only possible when the request asked for it); Else marks an answer
// found under the request's Else key, not its Key.
type GetResp struct {
	Found bool
	Data  []byte
	MIME  string
	Stale bool
	Else  bool
}

// PutReq stores content (Put or Inject depending on message kind).
type PutReq struct {
	Key  string
	Data []byte
	MIME string
	TTL  time.Duration
}

// The layouts of the cache protocol: rows of san's kind table (MsgStats,
// a signal, has none).
func init() {
	san.RegisterKind(MsgGet, appendGet, decodeGet)
	san.RegisterKind(MsgGot, appendGot, decodeGot)
	san.RegisterKind(MsgPut, appendPut, decodePut)
	san.RegisterKind(MsgInject, appendPut, decodePut)
	san.RegisterKind(MsgStatsR, appendStats, decodeStats)
}

func appendGet(w san.Writer, m GetReq) (san.Writer, error) {
	w.Str(m.Key)
	w.Bool(m.Stale)
	w.Str(m.Else)
	return w, nil
}

func decodeGet(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	return r.Done(GetReq{Key: r.Str(), Stale: r.Bool(), Else: r.Str()})
}

func appendGot(w san.Writer, m GetResp) (san.Writer, error) {
	w.Bool(m.Found)
	w.Bytes(m.Data)
	w.Str(m.MIME)
	w.Bool(m.Stale)
	w.Bool(m.Else)
	return w, nil
}

func decodeGot(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	return r.Done(GetResp{Found: r.Bool(), Data: r.Bytes(), MIME: r.Str(), Stale: r.Bool(), Else: r.Bool()})
}

func appendPut(w san.Writer, m PutReq) (san.Writer, error) {
	w.Str(m.Key)
	w.Bytes(m.Data)
	w.Str(m.MIME)
	w.Varint(int64(m.TTL))
	return w, nil
}

func decodePut(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	return r.Done(PutReq{Key: r.Str(), Data: r.Bytes(), MIME: r.Str(), TTL: time.Duration(r.Varint())})
}

func appendStats(w san.Writer, m Stats) (san.Writer, error) {
	w.U64(m.Hits)
	w.U64(m.Misses)
	w.U64(m.Puts)
	w.U64(m.Injects)
	w.U64(m.Evictions)
	w.U64(m.Expired)
	w.Varint(m.Used)
	w.Varint(int64(m.Objects))
	return w, nil
}

func decodeStats(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	return r.Done(Stats{
		Hits:      r.U64(),
		Misses:    r.U64(),
		Puts:      r.U64(),
		Injects:   r.U64(),
		Evictions: r.U64(),
		Expired:   r.U64(),
		Used:      r.Varint(),
		Objects:   int(r.Varint()),
	})
}

// Service hosts one cache partition on a cluster node. It implements
// cluster.Process.
type Service struct {
	// Name is the process id (e.g. "cache0").
	Name string
	// Net and Node place the service's endpoint.
	Net  *san.Network
	Node string
	// Partition is the backing store.
	Partition *Partition
	// ServiceTime, if non-nil, delays each Get response to model
	// per-request service cost (the paper's 27 ms average hit).
	ServiceTime func() time.Duration

	ep *san.Endpoint
}

// NewService constructs a cache service and registers its SAN
// endpoint immediately, so clients can address it as soon as it is
// spawned (no startup race between Spawn and the first request).
func NewService(name string, net *san.Network, node string, part *Partition) *Service {
	s := &Service{Name: name, Net: net, Node: node, Partition: part}
	s.ep = net.Endpoint(s.addr(), san.ServerInboxSize)
	return s
}

func (s *Service) addr() san.Addr { return san.Addr{Node: s.Node, Proc: s.Name} }

// Addr returns the service's SAN address.
func (s *Service) Addr() san.Addr { return s.addr() }

// ID implements cluster.Process.
func (s *Service) ID() string { return s.Name }

// Run implements cluster.Process: it serves cache requests until ctx
// is cancelled. If the endpoint is missing (struct-literal
// construction, or a respawn after its node was dropped) it is
// registered here.
func (s *Service) Run(ctx context.Context) error {
	if s.ep == nil || !s.Net.Lookup(s.addr()) {
		s.ep = s.Net.Endpoint(s.addr(), san.ServerInboxSize)
	}
	ep := s.ep
	defer ep.Close()
	s.Net.Registry().SetCollector("cache."+s.Name, func(emit func(string, float64)) {
		st := s.Partition.Stats()
		emit("hits", float64(st.Hits))
		emit("misses", float64(st.Misses))
		emit("puts", float64(st.Puts))
		emit("injects", float64(st.Injects))
		emit("evictions", float64(st.Evictions))
		emit("expired", float64(st.Expired))
		emit("used_bytes", float64(st.Used))
		emit("objects", float64(st.Objects))
		emit("hit_rate", st.HitRate())
	})

	// Run announces the service (supervisor.MsgAnnounce, a cache Member)
	// on the control group once a beat, so the manager can supervise it
	// (§3.1.3 timeout inference) and front ends route to it. It answers
	// each beacon head at once — the primary greets a newcomer front end
	// with one — and its own schedule, pushed back by each answer, speaks
	// while no manager beacons.
	ep.Join(supervisor.GroupBeacon)
	hb := softstate.NewSchedule(softstate.Announce.Of(s.Net.Beacon()))
	defer hb.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-hb.C:
			s.announce(ep)
			hb.Next()
		case msg, ok := <-ep.Inbox():
			if !ok {
				return fmt.Errorf("vcache: %s endpoint closed", s.Name)
			}
			if msg.Group == supervisor.GroupBeacon {
				msg.Release()
				s.announce(ep)
				hb.Next()
				continue
			}
			s.handle(ep, msg)
		}
	}
}

func (s *Service) announce(ep *san.Endpoint) {
	ep.Multicast(supervisor.GroupControl, supervisor.MsgAnnounce,
		supervisor.Member{Addr: s.addr(), Kind: supervisor.KindCache, State: supervisor.StateUp}, 48)
}

func (s *Service) handle(ep *san.Endpoint, msg san.Message) {
	switch msg.Kind {
	case MsgGet:
		req, ok := msg.Body.(GetReq)
		if !ok {
			return
		}
		gstart := time.Now()
		if s.ServiceTime != nil {
			if d := s.ServiceTime(); d > 0 {
				time.Sleep(d)
			}
		}
		resp := s.lookup(req.Key, req.Stale)
		if !resp.Found && req.Else != "" {
			resp = s.lookup(req.Else, req.Stale)
			resp.Else = resp.Found
		}
		if msg.Trace.Sampled() {
			s.Net.Tracer().Record(obs.Span{
				Trace: msg.Trace, Comp: s.Name, Hop: "cache.serve", Note: resp.Answered(),
				Start: gstart.UnixNano(), Dur: int64(time.Since(gstart)),
			})
		}
		_ = ep.Respond(msg, MsgGot, resp, len(resp.Data)+32)
	case MsgPut, MsgInject:
		req, ok := msg.Body.(PutReq)
		if !ok {
			msg.Release()
			return
		}
		start := time.Now()
		if msg.Lease != nil {
			// Copy-on-retain: with decode views on, req.Data aliases a
			// pooled receive buffer, and the partition stores data far
			// past this message's lifetime. This is the one copy a put
			// pays; everything upstream was zero-copy.
			req.Data = san.CloneBytes(req.Data)
		}
		if msg.Kind == MsgInject {
			s.Partition.Inject(req.Key, req.Data, req.MIME, req.TTL)
		} else {
			s.Partition.Put(req.Key, req.Data, req.MIME, req.TTL)
		}
		msg.Release()
		if msg.Trace.Sampled() {
			s.Net.Tracer().Record(obs.Span{
				Trace: msg.Trace, Comp: s.Name, Hop: "cache.store", Note: msg.Kind,
				Start: start.UnixNano(), Dur: int64(time.Since(start)),
			})
		}
	case MsgStats:
		_ = ep.Respond(msg, MsgStatsR, s.Partition.Stats(), 64)
	}
}

// lookup is one partition read, fresh-only or widened to stale entries.
func (s *Service) lookup(key string, acceptStale bool) GetResp {
	if acceptStale {
		e, stale, found := s.Partition.GetStale(key)
		return GetResp{Found: found, Data: e.Data, MIME: e.MIME, Stale: stale}
	}
	e, found := s.Partition.Get(key)
	return GetResp{Found: found, Data: e.Data, MIME: e.MIME}
}

// Answered is the trace note: "hit" (Key), "orig" (Else) or "miss".
func (r GetResp) Answered() string {
	switch {
	case !r.Found:
		return "miss"
	case r.Else:
		return "orig"
	}
	return "hit"
}

// Client presents a set of cache partitions as one virtual cache: the
// object a key is about (objectOf) is consistent-hashed to a partition
// name, and membership changes re-hash automatically. The ring is keyed
// by name and the address looked up beside it, so a partition that
// moves keeps its keys. It shares its owner's SAN endpoint.
type Client struct {
	ep      *san.Endpoint
	ring    *Ring
	mu      sync.RWMutex // guards addrs and ring
	addrs   map[string]san.Addr
	heard   *softstate.Table[san.Addr] // the partitions Learn heard, by name
	Timeout time.Duration

	probes, writes, writeErrors atomic.Uint64
}

// NewClient creates a virtual-cache client over an endpoint.
func NewClient(ep *san.Endpoint) *Client {
	return &Client{
		ep:      ep,
		ring:    NewRing(0),
		addrs:   make(map[string]san.Addr),
		heard:   softstate.NewTable[san.Addr](softstate.CacheTTL.Of(ep.Beacon()), nil),
		Timeout: 2 * time.Second,
	}
}

// Learn takes one control-group message: a cache partition's
// announcement keeps it in the ring, under its name, at the address it
// announced from, so a partition respawned elsewhere is re-pointed by its
// first announcement. Anything else is ignored.
func (c *Client) Learn(msg san.Message) {
	m, ok := msg.Body.(supervisor.Member)
	if !ok || msg.Kind != supervisor.MsgAnnounce || m.Kind != supervisor.KindCache {
		return
	}
	c.heard.Put(m.Addr.Proc, m.Addr)
	c.AddNode(m.Addr.Proc, m.Addr)
}

// Sweep drops every learned partition silent past softstate.CacheTTL;
// its keys go to their successors until it announces again.
func (c *Client) Sweep() {
	for _, name := range c.heard.Expired() {
		c.RemoveNode(name)
	}
}

// AddNode registers a cache partition under a logical name, or points a
// known name at a new address; one Learn never heard stays until RemoveNode.
func (c *Client) AddNode(name string, addr san.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addrs[name] = addr
	c.ring.Add(name)
}

// RemoveNode drops a partition; its key range re-hashes to survivors.
func (c *Client) RemoveNode(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.addrs, name)
	c.ring.Remove(name)
}

// Nodes returns the current partition names.
func (c *Client) Nodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.Nodes()
}

// OrigKey is the key a URL's unmodified original is cached under; its
// variants are keyed by tacc.Pipeline.CacheKey. The one place the
// convention is spelled (bench/ keeps a copy the benchmark owns).
func OrigKey(url string) string { return origPrefix + url }

const origPrefix = "orig|"

// objectOf is the part of a cache key that names its object: leading
// "orig|"s stripped, then cut at the first '|' or '#'. A URL's original
// ("orig|"+URL) and its variants (URL, '|'-led stages, '#'-led profile)
// all begin with the URL, so they cut at the same byte even when the
// URL holds a '|' or '#' itself. Only a "URL" spelled exactly "orig"
// splits (its variant keys read as originals): its paired probes miss
// the fallback and fetch — slower, not wrong.
func objectOf(key string) string {
	for strings.HasPrefix(key, origPrefix) {
		key = key[len(origPrefix):]
	}
	if i := strings.IndexAny(key, "|#"); i >= 0 {
		key = key[:i]
	}
	return key
}

// owner resolves the partition address for a key: a pure function of
// the key string and the membership, so every holder of a key agrees.
func (c *Client) owner(key string) (san.Addr, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	addr, ok := c.addrs[c.ring.Lookup(objectOf(key))]
	return addr, ok
}

// Get fetches a key from the virtual cache. A missing partition or
// timeout reads as a miss: the cache is an optimization, never a
// correctness dependency (BASE). The returned data is owned by the
// caller (copied out of any pooled receive buffer); holders that can
// bound the data's lifetime should prefer GetView and skip the copy.
func (c *Client) Get(ctx context.Context, key string) (data []byte, mime string, found bool) {
	data, mime, release, found := c.GetView(ctx, key)
	if release != nil {
		data = san.CloneBytes(data)
		release()
	}
	return data, mime, found
}

// GetView is the zero-copy Get: when the reply arrived as a decode
// view, data aliases a pooled receive buffer and release is non-nil —
// the caller must finish reading (or copy) before calling release, must
// call it exactly once, and must not touch data afterwards. A nil
// release means there is nothing to release (a miss, or an empty value). Front ends that write the bytes straight to a client socket
// use this to serve a cache hit without any body copy in this process.
func (c *Client) GetView(ctx context.Context, key string) (data []byte, mime string, release func(), found bool) {
	got, release := c.Probe(ctx, key, "", false)
	return got.Data, got.MIME, release, got.Found
}

// Probe is the one read path: a single round trip to key's partition
// for key, else (when set) elseKey — one URL's keys share a partition,
// see objectOf. acceptStale is the BASE degraded-mode widening: either
// key may be answered by an entry past its TTL but still resident
// (got.Stale), per the paper's stale-data-beats-no-data argument.
// got.Data and release follow GetView's rules.
func (c *Client) Probe(ctx context.Context, key, elseKey string, acceptStale bool) (got GetResp, release func()) {
	addr, ok := c.owner(key)
	if !ok {
		return GetResp{}, nil
	}
	c.probes.Add(1)
	cctx, cancel := context.WithTimeout(ctx, c.Timeout)
	defer cancel()
	resp, err := c.ep.Call(cctx, addr, MsgGet, GetReq{Key: key, Stale: acceptStale, Else: elseKey}, len(key)+len(elseKey)+16)
	if err != nil {
		return GetResp{}, nil
	}
	got, ok = resp.Body.(GetResp)
	if !ok || !got.Found {
		resp.Release()
		return GetResp{}, nil
	}
	if resp.Lease == nil {
		return got, nil
	}
	return got, resp.Lease.Release
}

// Put stores original content. It is a datagram: it returns once the
// message is handed to the SAN, waits for nothing, and reads ctx only
// for its trace id. A send the SAN refuses is counted (WriteStats),
// not returned — best effort.
func (c *Client) Put(ctx context.Context, key string, data []byte, mime string, ttl time.Duration) {
	c.put(ctx, MsgPut, key, data, mime, ttl)
}

// Inject stores post-transformation content, one-way like Put.
func (c *Client) Inject(ctx context.Context, key string, data []byte, mime string, ttl time.Duration) {
	c.put(ctx, MsgInject, key, data, mime, ttl)
}

func (c *Client) put(ctx context.Context, kind, key string, data []byte, mime string, ttl time.Duration) {
	addr, ok := c.owner(key)
	if !ok {
		return
	}
	c.writes.Add(1)
	if c.ep.SendTraced(obs.TraceFrom(ctx), addr, kind, PutReq{Key: key, Data: data, MIME: mime, TTL: ttl}, len(data)+len(key)+32) != nil {
		c.writeErrors.Add(1)
	}
}

// WriteStats counts the Put/Inject datagrams sent and those the SAN
// refused (no route to the partition, codec error, peer queue full).
func (c *Client) WriteStats() (writes, refused uint64) {
	return c.writes.Load(), c.writeErrors.Load()
}

// Probes counts the read round trips sent (Get, GetView and Probe).
func (c *Client) Probes() uint64 { return c.probes.Load() }

// StatsOf fetches one partition's stats (for the monitor).
func (c *Client) StatsOf(ctx context.Context, name string) (Stats, error) {
	c.mu.RLock()
	addr, ok := c.addrs[name]
	c.mu.RUnlock()
	if !ok {
		return Stats{}, fmt.Errorf("vcache: unknown partition %q", name)
	}
	cctx, cancel := context.WithTimeout(ctx, c.Timeout)
	defer cancel()
	resp, err := c.ep.Call(cctx, addr, MsgStats, nil, 16)
	if err != nil {
		return Stats{}, err
	}
	st, ok := resp.Body.(Stats)
	if !ok {
		return Stats{}, fmt.Errorf("vcache: bad stats reply")
	}
	return st, nil
}
