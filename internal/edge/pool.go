package edge

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/san"
	"repro/internal/softstate"
)

// PoolConfig tunes the front-end pool's health model.
type PoolConfig struct {
	// Seed makes the power-of-two-choices sampling deterministic.
	Seed int64
	// Clock is injectable for tests (default time.Now).
	Clock func() time.Time
}

// ejectAfter is how many consecutive failed requests a backend absorbs
// before it is ejected from rotation.
const ejectAfter = 3

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// backend is one FE replica's soft-state pool entry, keyed by its SAN
// address string — stable across respawns, so a killed-and-restarted
// FE refreshes its existing (possibly ejected) slot rather than
// appearing as a stranger.
type backend struct {
	key      string // SAN address ("node/proc")
	name     string
	httpAddr string
	draining bool
	seen     time.Time

	inflight  int
	fails     int // consecutive
	ejected   bool
	ejectedAt time.Time
	probing   bool // a half-open probe request is outstanding
}

// Pool is the edge's soft-state table of FE replicas, learned from
// their announcements and aged by TTL (BASE: losing it costs one
// rediscovery round, never correctness). It balances picks across
// healthy backends by least-inflight power-of-two-choices, ejects a
// backend after ejectAfter consecutive failures, and readmits it
// through a half-open probe: one real (idempotent) request is risked
// against the ejected backend after softstate.EdgeProbe beats; success
// readmits, failure re-arms the timer. A backend silent for
// softstate.EdgePoolTTL beats (never less than softstate.EdgePoolFloor)
// falls out of the pool entirely.
type Pool struct {
	cfg        PoolConfig
	ttl        time.Duration
	probeAfter time.Duration

	mu       sync.Mutex
	rng      *rand.Rand
	backends map[string]*backend

	ejects   uint64
	readmits uint64
	expired  uint64
}

// NewPool creates an empty pool timed for a network of the default
// beacon interval; an edge's pool keeps its network's time.
func NewPool(cfg PoolConfig) *Pool { return newPool(cfg, san.DefaultBeacon) }

func newPool(cfg PoolConfig, beacon time.Duration) *Pool {
	cfg = cfg.withDefaults()
	return &Pool{
		cfg:        cfg,
		ttl:        max(softstate.EdgePoolTTL.Of(beacon), softstate.EdgePoolFloor),
		probeAfter: softstate.EdgeProbe.Of(beacon),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		backends:   make(map[string]*backend),
	}
}

// Observe folds one front end's announcement into the table. One
// without an HTTP address (an FE running with no HTTP adapter) is not
// routable and is ignored.
func (p *Pool) Observe(key, name, httpAddr string, draining bool) {
	if key == "" || httpAddr == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.backends[key]
	if b == nil {
		b = &backend{key: key}
		p.backends[key] = b
	}
	b.name, b.httpAddr, b.draining = name, httpAddr, draining
	b.seen = p.cfg.Clock()
}

// expireLocked drops backends whose announcements went stale.
func (p *Pool) expireLocked(now time.Time) {
	for key, b := range p.backends {
		if now.Sub(b.seen) > p.ttl {
			delete(p.backends, key)
			p.expired++
		}
	}
}

// Pick selects a backend for one request. allowProbe marks the
// request safe to risk against an ejected backend (idempotent, and the
// caller will retry it elsewhere on failure); exclude skips one
// backend key — the replica a retry already failed on.
//
// Selection is deterministic given the pool's seed and state: an
// eligible half-open probe (ejected longest first) wins outright,
// otherwise two candidates are sampled from the key-sorted healthy set
// and the one with fewer requests in flight is chosen.
func (p *Pool) Pick(allowProbe bool, exclude string) (*Pick, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.cfg.Clock()
	p.expireLocked(now)

	if allowProbe {
		var probe *backend
		for _, b := range p.backends {
			if !b.ejected || b.probing || b.draining || b.key == exclude {
				continue
			}
			if now.Sub(b.ejectedAt) < p.probeAfter {
				continue
			}
			if probe == nil || b.ejectedAt.Before(probe.ejectedAt) ||
				(b.ejectedAt.Equal(probe.ejectedAt) && b.key < probe.key) {
				probe = b
			}
		}
		if probe != nil {
			probe.probing = true
			probe.inflight++
			return newPickLocked(p, probe, true), nil
		}
	}

	cands := make([]*backend, 0, len(p.backends))
	for _, b := range p.backends {
		if b.ejected || b.draining || b.key == exclude {
			continue
		}
		cands = append(cands, b)
	}
	if len(cands) == 0 {
		return nil, ErrNoBackends
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].key < cands[j].key })
	chosen := cands[0]
	if len(cands) > 1 {
		// Power of two choices over the key-sorted candidate set: the
		// seeded sample keeps runs reproducible, least-inflight keeps a
		// slow replica from accumulating queue. Ties go to the first
		// sample — which is uniform — so a strictly sequential client
		// (inflight always zero everywhere) still spreads across
		// replicas instead of pinning the lowest key.
		i := p.rng.Intn(len(cands))
		j := p.rng.Intn(len(cands) - 1)
		if j >= i {
			j++
		}
		chosen = cands[i]
		if cands[j].inflight < chosen.inflight {
			chosen = cands[j]
		}
	}
	chosen.inflight++
	return newPickLocked(p, chosen, false), nil
}

// newPickLocked snapshots the backend's routing fields into the Pick
// while the pool lock is held: Observe keeps rewriting the live entry
// (a respawned FE announces a new HTTP address), so the accessors
// must not read it lock-free.
func newPickLocked(p *Pool, b *backend, probe bool) *Pick {
	return &Pick{p: p, b: b, key: b.key, name: b.name, httpAddr: b.httpAddr, probe: probe}
}

// Pick is one routing decision: a borrowed backend slot. Callers must
// call Done exactly once with the request's outcome.
type Pick struct {
	p *Pool
	b *backend

	key      string
	name     string
	httpAddr string

	probe bool
	done  bool
}

// Key returns the picked backend's pool key (its SAN address).
func (pk *Pick) Key() string { return pk.key }

// Name returns the picked backend's FE name.
func (pk *Pick) Name() string { return pk.name }

// HTTPAddr returns the picked backend's HTTP host:port as of the pick.
func (pk *Pick) HTTPAddr() string { return pk.httpAddr }

// Probe reports whether this pick is a half-open probe of an ejected
// backend.
func (pk *Pick) Probe() bool { return pk.probe }

// Done records the request's outcome: consecutive failures eject the
// backend, a successful probe readmits it, a failed probe re-arms the
// probe timer.
func (pk *Pick) Done(ok bool) {
	pk.p.mu.Lock()
	defer pk.p.mu.Unlock()
	if pk.done {
		return
	}
	pk.done = true
	b := pk.b
	b.inflight--
	if pk.probe {
		b.probing = false
		if ok {
			b.ejected = false
			b.fails = 0
			pk.p.readmits++
		} else {
			b.ejectedAt = pk.p.cfg.Clock()
		}
		return
	}
	if ok {
		b.fails = 0
		return
	}
	b.fails++
	if !b.ejected && b.fails >= ejectAfter {
		b.ejected = true
		b.ejectedAt = pk.p.cfg.Clock()
		pk.p.ejects++
	}
}

// PoolStats count pool membership and health transitions.
type PoolStats struct {
	Backends int    `json:"backends"`
	Healthy  int    `json:"healthy"`
	Draining int    `json:"draining"`
	Ejected  int    `json:"ejected"`
	Ejects   uint64 `json:"ejects"`
	Readmits uint64 `json:"readmits"`
	Expired  uint64 `json:"expired"`
}

// Stats returns pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.expireLocked(p.cfg.Clock())
	st := PoolStats{
		Backends: len(p.backends),
		Ejects:   p.ejects,
		Readmits: p.readmits,
		Expired:  p.expired,
	}
	for _, b := range p.backends {
		switch {
		case b.ejected:
			st.Ejected++
		case b.draining:
			st.Draining++
		default:
			st.Healthy++
		}
	}
	return st
}
