// Package manager implements the SNS layer's centralized,
// fault-tolerant load-balancing manager (paper §2.2.2, §3.1.2): it
// collects load reports from worker stubs, synthesizes hints as
// weighted moving averages, piggybacks them on periodic multicast
// beacons, spawns additional workers when a class's average queue
// crosses the threshold H (damped by D seconds), recruits overflow
// nodes for bursts and reaps them afterwards (§2.2.3), and carries the
// process-peer duty of restarting whatever else has crashed.
//
// All manager state is soft (§3.1.3): workers re-register when they
// see beacons from a restarted manager, so there is no crash-recovery
// protocol at all — the BASE design that replaced the original
// process-pair prototype.
//
// # One reconcile step
//
// Desired is the roster every live supervisor advertises in its hello
// (its process's component table, alive or not) plus the learned
// per-class worker floor. Actual is what the manager hears: front-end
// heartbeats and cache hellos, keyed by SAN address, and worker
// registrations. Pending holds every start the primary has issued,
// local or delegated, under that same address (class#n for a worker
// replacement) until the instance is heard or one TTL passes. Each tick
// the primary diffs the three (reconcile) and issues what is missing
// (act). Two restarts are deliberately somebody else's: front ends
// restart a silent manager (stub's OnManagerSilence, §3.1.3), and a
// process's exit observer respawns its own supervisor and retires dead
// workers (core).
//
// # Replication, epochs, and standby mode
//
// The manager role is replicated: N Manager instances share the
// control group, but exactly one — the primary — beacons, runs policy
// sweeps, and delegates restarts. The rest run in standby mode: the
// full receive loop stays live (they mirror the worker inventory and
// replica floors from the primary's beacons and ingest the multicast
// front-end/cache/supervisor heartbeats directly), but every output is
// suppressed. Because all of that state is BASE soft state, a standby
// is always at most one beacon interval behind the primary, which is
// the whole failover story: there is no state transfer and no recovery
// protocol.
//
// Election is by heartbeat rank: when a standby hears no primary
// beacon for three beacon intervals plus a rank-proportional stagger, it
// increments the election epoch, declares itself primary, and beacons
// immediately. Beacons carry the epoch; every listener (stubs,
// supervisors, rival managers) ignores beacons older than the newest
// epoch it has seen, and supervisors refuse commands stamped with a
// deposed epoch — so a primary that was partitioned rather than dead
// can never double-restart a component. Two simultaneous claims at the
// same epoch resolve by lowest address: the loser steps back to
// standby on the winner's next beacon.
package manager

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/san"
	"repro/internal/softstate"
	"repro/internal/stub"
	"repro/internal/supervisor"
	"repro/internal/vcache"
)

// Policy is the spawn/reap policy (§4.5). It is shared verbatim with
// the discrete-event model so both systems embody the same rules.
type Policy struct {
	// SpawnThreshold H: spawn when a class's average queue length
	// crosses it. "H maps to the greatest delay the user is willing
	// to tolerate when the system is under high load."
	SpawnThreshold float64
	// Damping D: after any spawn in a class, spawning is disabled
	// for this long so the new worker can stabilize the system.
	Damping time.Duration
	// ReapThreshold: reap an overflow worker when the class average
	// falls below it.
	ReapThreshold float64
	// MaxPerClass bounds workers per class (0 = unlimited).
	MaxPerClass int
}

// DefaultPolicy mirrors the values used in the Figure 8 experiment.
func DefaultPolicy() Policy {
	return Policy{
		SpawnThreshold: 15,
		Damping:        15 * time.Second,
		ReapThreshold:  1,
		MaxPerClass:    0,
	}
}

// ShouldSpawn applies H/D given a class's average queue, live count,
// and the time of its last spawn.
func (p Policy) ShouldSpawn(classAvg float64, count int, now, lastSpawn time.Time) bool {
	if p.MaxPerClass > 0 && count >= p.MaxPerClass {
		return false
	}
	if now.Sub(lastSpawn) < p.Damping {
		return false
	}
	return classAvg > p.SpawnThreshold
}

// ShouldReap reports whether an overflow worker should be released.
func (p Policy) ShouldReap(classAvg float64, count int, now, lastSpawn time.Time) bool {
	if count <= 1 {
		return false
	}
	if now.Sub(lastSpawn) < p.Damping {
		return false
	}
	return classAvg < p.ReapThreshold
}

// Spawner is the manager's lever on the cluster, wired up by the
// platform layer (it stands in for the per-node daemons a production
// deployment would run).
type Spawner interface {
	// SpawnWorker starts a fresh worker of class somewhere
	// appropriate: dedicated capacity first, the overflow pool once
	// that is exhausted (§2.2.3).
	SpawnWorker(class string) error
	// ReapWorker stops a worker process.
	ReapWorker(id string) error
	// Restart restarts a crashed front end or cache service by name
	// (process peer). A cache's content is gone — it was a cache — but
	// the partition's address and key range come back, so front ends
	// re-absorb it without reconfiguration.
	Restart(name string) error
}

// Config tunes the manager.
type Config struct {
	Name   string
	Node   string
	Net    *san.Network
	Policy Policy
	// BeaconInterval is the multicast beacon period.
	BeaconInterval time.Duration
	// WorkerTTL expires workers that stop reporting ("timeouts are
	// used as a backup mechanism to infer failures", §3.1.3).
	WorkerTTL time.Duration
	// FETTL expires front ends that stop heartbeating; expiry
	// triggers the process-peer restart. Supervisors expire on the
	// same TTL: one that stops heartbeating drops out of delegation
	// resolution and takes its roster with it; its own process
	// respawns it.
	FETTL time.Duration
	// CacheTTL expires cache services that stop heartbeating; expiry
	// triggers the process-peer restart (defaults to FETTL).
	CacheTTL time.Duration
	// Prefix is the node-name prefix of the process hosting this
	// manager. A dead component whose owning supervisor advertises a
	// different prefix lives in another OS process: its restart is
	// delegated to that supervisor over the SAN instead of attempted
	// (and failed) locally. Components behind the manager's own prefix
	// keep the direct local restart path — same process, no SAN hop.
	Prefix string
	// CmdTimeout bounds one delegated supervisor command (default 2s).
	CmdTimeout time.Duration
	// Spawner performs cluster actions; may be nil (no spawning).
	Spawner Spawner
	// Rank is this replica's election rank. It staggers takeover
	// timing (rank r waits r extra beacon intervals beyond the
	// election timeout) so replicas claim the primacy one at a time
	// instead of racing.
	Rank int
	// Standby starts the replica in standby mode: full receive loop,
	// no beacons, no policy sweeps, no delegation — until it wins an
	// election. False (the default) starts as the acting primary at
	// epoch 1, which keeps a single-manager deployment's behavior
	// identical to the pre-replication code.
	Standby bool
	// InitialEpoch seeds the replica's election epoch. A respawned
	// replica re-enters the cluster already knowing roughly where the
	// epoch stands, so its eventual claim outbids the regime it died
	// under instead of a long-deposed one. A non-standby replica
	// claims InitialEpoch+1 immediately. Zero is the natural cold
	// start (a fresh primary claims epoch 1).
	InitialEpoch uint64
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "manager"
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = stub.DefaultBeaconInterval
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 5 * c.BeaconInterval
	}
	if c.FETTL <= 0 {
		c.FETTL = 6 * c.BeaconInterval
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = c.FETTL
	}
	if c.CmdTimeout <= 0 {
		c.CmdTimeout = 2 * time.Second
	}
	if c.Policy == (Policy{}) {
		c.Policy = DefaultPolicy()
	}
	return c
}

// Stats is a snapshot of manager activity.
type Stats struct {
	Workers        int
	FrontEnds      int
	Caches         int
	Supervisors    int
	Spawns         uint64
	Reaps          uint64
	FERestarts     uint64
	CacheRestarts  uint64
	ReportsHandled uint64
	BeaconsSent    uint64
	Registrations  uint64
	// Readmits counts workers heard from again after silence expired
	// them: never dead, so a replacement is the duplicate BASE tolerates.
	Readmits uint64
	// Delegated counts process-peer actions executed by a remote
	// supervisor on this manager's behalf; DelegateFails counts
	// delegation attempts that timed out or were refused (each is
	// retried at the next tick).
	Delegated      uint64
	DelegateFails  uint64
	DelegatedSpawn uint64
	// Election state: whether this replica is the acting primary, the
	// epoch it believes is current, and how many times it took over or
	// stepped down.
	Primary   bool
	Epoch     uint64
	Takeovers uint64
	StepDowns uint64
}

type workerState struct {
	info stub.WorkerInfo
	avg  *softstate.MovingAverage
}

// start is one row of the pending table: a start the primary has
// booked and not yet seen the result of.
type start struct {
	key string // SAN address of a front end or cache; class#n for a worker replacement
	// Name is the component to Restart (for Kind worker, the class to
	// SpawnWorker); Node resolves the owning supervisor, "" this process.
	supervisor.Row

	cmdID    uint64    // minted at the first attempt of an incident, reused by its retries
	issuedAt time.Time // last attempt, or when a roster first named the row; zero = due now
	attempts int       // consecutive failures
	busy     bool      // a command is in flight; its completion decides
}

// maxAttempts is the retry budget of one incident.
const maxAttempts = 10

// Manager is the centralized load balancer. It implements
// cluster.Process.
type Manager struct {
	cfg Config
	ep  *san.Endpoint

	mu      sync.Mutex
	workers *softstate.Table[*workerState]
	// heard is the actual state of the kinds restarted by name (front
	// ends, caches), each keyed by SAN address, not bare name: two
	// processes may both host an "fe0", and one's heartbeats must not
	// mask the other's death. A kind's table TTL is how long it may stay
	// silent before it counts as dead.
	heard     map[string]*softstate.Table[supervisor.Row]
	sups      *softstate.Table[supervisor.HelloMsg]
	floor     map[string]int // class -> replica floor (learned)
	lastSpawn map[string]time.Time
	pending   map[string]*start // every start in flight, by start.key
	nextCmdID uint64
	seq       uint64
	stats     Stats

	// Election state (guarded by mu).
	primary   bool
	epoch     uint64    // current election epoch (stamped on beacons/commands)
	lastClaim time.Time // when a rival primary's beacon was last heard
}

// New creates a manager and eagerly registers its SAN endpoint.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:     cfg,
		workers: softstate.NewTable[*workerState](cfg.WorkerTTL, nil),
		heard: map[string]*softstate.Table[supervisor.Row]{
			supervisor.KindFrontEnd: softstate.NewTable[supervisor.Row](cfg.FETTL, nil),
			supervisor.KindCache:    softstate.NewTable[supervisor.Row](cfg.CacheTTL, nil),
		},
		sups:      softstate.NewTable[supervisor.HelloMsg](cfg.FETTL, nil),
		floor:     make(map[string]int),
		lastSpawn: make(map[string]time.Time),
		pending:   make(map[string]*start),
	}
	m.epoch = cfg.InitialEpoch
	if !cfg.Standby {
		m.primary = true
		m.epoch++
	}
	m.lastClaim = time.Now()
	m.ep = cfg.Net.Endpoint(m.Addr(), 4096)
	return m
}

// Addr returns the manager's SAN address.
func (m *Manager) Addr() san.Addr { return san.Addr{Node: m.cfg.Node, Proc: m.cfg.Name} }

// ID implements cluster.Process.
func (m *Manager) ID() string { return m.cfg.Name }

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Workers = m.workers.Len()
	st.FrontEnds = m.heard[supervisor.KindFrontEnd].Len()
	st.Caches = m.heard[supervisor.KindCache].Len()
	st.Supervisors = m.sups.Len()
	st.Primary = m.primary
	st.Epoch = m.epoch
	return st
}

// IsPrimary reports whether this replica is the acting primary.
func (m *Manager) IsPrimary() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.primary
}

// Epoch returns the election epoch this replica believes is current.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Run implements cluster.Process: serve until ctx is done.
func (m *Manager) Run(ctx context.Context) error {
	if m.ep == nil || !m.cfg.Net.Lookup(m.Addr()) {
		m.ep = m.cfg.Net.Endpoint(m.Addr(), 4096)
	}
	ep := m.ep
	defer ep.Close()
	ep.Join(stub.GroupControl)
	// One list for /metrics and for the status report each beacon
	// carries to the monitor. Per replica: a standby publishes its own
	// mirror of the soft state under its own name.
	m.cfg.Net.Registry().SetCollector(m.cfg.Name, func(emit func(string, float64)) {
		st := m.Stats()
		emit("workers", float64(st.Workers))
		emit("frontends", float64(st.FrontEnds))
		emit("caches", float64(st.Caches))
		emit("spawns", float64(st.Spawns))
		emit("reaps", float64(st.Reaps))
		emit("fe_restarts", float64(st.FERestarts))
		emit("cache_restarts", float64(st.CacheRestarts))
		emit("beacons_sent", float64(st.BeaconsSent))
		emit("registrations", float64(st.Registrations))
		emit("epoch", float64(st.Epoch))
		primary := 0.0
		if st.Primary {
			primary = 1
		}
		emit("primary", primary)
		emit("takeovers", float64(st.Takeovers))
		emit("delegated", float64(st.Delegated))
		emit("delegate_fails", float64(st.DelegateFails))
		emit("supervisors", float64(st.Supervisors))
	})

	tick := time.NewTicker(m.cfg.BeaconInterval)
	defer tick.Stop()

	m.mu.Lock()
	m.lastClaim = time.Now() // fresh grace window per Run
	primary := m.primary
	m.mu.Unlock()
	if primary {
		m.sendBeacon(ep) // announce immediately so workers register fast
	}

	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			if m.IsPrimary() {
				m.sendBeacon(ep)
				m.reconcile()
			} else {
				m.maybeTakeover(ep)
			}
		case msg, ok := <-ep.Inbox():
			if !ok {
				return fmt.Errorf("manager: endpoint closed")
			}
			m.handle(msg)
		}
	}
}

// maybeTakeover is the standby half of the election: primary silence
// past the election timeout (three beacon intervals) plus this
// replica's rank stagger means the primary is gone — claim the next
// epoch and beacon immediately, so every stub, supervisor, and rival
// replica re-anchors within one beacon interval.
func (m *Manager) maybeTakeover(ep *san.Endpoint) {
	m.mu.Lock()
	wait := time.Duration(3+m.cfg.Rank) * m.cfg.BeaconInterval
	if m.primary || time.Since(m.lastClaim) < wait {
		m.mu.Unlock()
		return
	}
	m.epoch++
	m.primary = true
	m.stats.Takeovers++
	m.mu.Unlock()
	m.sendBeacon(ep)
}

// observeBeacon processes a rival manager replica's beacon: adopt a
// newer epoch (stepping down if this replica was primary), resolve an
// equal-epoch split claim by lowest address, and — while in standby —
// mirror the primary's worker inventory and replica floors so a later
// takeover starts from state at most one beacon interval old.
func (m *Manager) observeBeacon(b stub.Beacon) {
	if b.Manager == m.Addr() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.Epoch < m.epoch {
		return // deposed primary still beaconing; ignore
	}
	if m.primary {
		// A newer epoch deposes this replica; a split claim at the same
		// epoch goes to the lowest address.
		if b.Epoch == m.epoch && m.Addr().String() < b.Manager.String() {
			return
		}
		m.primary = false
		m.stats.StepDowns++
	}
	m.epoch = b.Epoch
	m.lastClaim = time.Now()

	// Standby mirror: the primary's beacon is the ground truth for the
	// worker inventory and the per-class replica floors. Load averages
	// ride along too, so a fresh primary's very first policy sweep
	// balances with current hints instead of zeros.
	live := make(map[string]bool, len(b.Workers))
	for _, wi := range b.Workers {
		live[wi.ID] = true
		if ws, ok := m.workers.Get(wi.ID); ok {
			ws.info = wi
			m.workers.Put(wi.ID, ws)
		} else {
			ws := &workerState{info: wi, avg: &softstate.MovingAverage{Alpha: 0.3}}
			ws.avg.Add(wi.QLen)
			m.workers.Put(wi.ID, ws)
		}
	}
	for id := range m.workers.Snapshot() {
		if !live[id] {
			m.workers.Delete(id)
		}
	}
	m.floor = make(map[string]int, len(b.Floors))
	for class, f := range b.Floors {
		m.floor[class] = f
	}
}

func (m *Manager) handle(msg san.Message) {
	if msg.Reply {
		// Acks from delegated supervisor commands route back into
		// their pending Calls.
		m.ep.DeliverReply(msg)
		return
	}
	// Every message kind the manager consumes has a body type of its
	// own, so the body selects the case.
	switch b := msg.Body.(type) {
	case stub.Beacon:
		m.observeBeacon(b)
	case stub.RegisterMsg:
		m.mu.Lock()
		m.admitLocked(b.Info, 0)
		m.mu.Unlock()
	case stub.DeregisterMsg:
		m.mu.Lock()
		if ws, ok := m.workers.Get(b.ID); ok {
			class := ws.info.Class
			m.workers.Delete(b.ID)
			// A voluntary de-registration lowers the floor: this
			// worker is not coming back.
			if m.floor[class] > m.classCountLocked(class) {
				m.floor[class] = m.classCountLocked(class)
			}
		}
		m.mu.Unlock()
	case stub.LoadReport:
		m.mu.Lock()
		m.stats.ReportsHandled++
		if ws, ok := m.workers.Get(b.ID); ok {
			ws.avg.Add(float64(b.QLen))
			m.workers.Put(b.ID, ws) // refresh TTL
		} else if b.Info.ID == b.ID && !b.Info.Addr.IsZero() {
			// A report from a worker we expired (e.g. marooned by a
			// SAN partition that has since healed): re-admit it. Soft
			// state rebuilds from periodic messages alone (§3.1.3).
			m.stats.Readmits++
			m.admitLocked(b.Info, float64(b.QLen))
		}
		m.mu.Unlock()
	case stub.FEHeartbeat:
		m.heard[supervisor.KindFrontEnd].Put(b.Addr.String(), supervisor.Row{Name: b.Name, Kind: supervisor.KindFrontEnd, Node: b.Node})
	case vcache.HelloMsg:
		m.heard[supervisor.KindCache].Put(b.Addr.String(), supervisor.Row{Name: b.Name, Kind: supervisor.KindCache, Node: b.Node})
	case supervisor.HelloMsg:
		m.sups.Put(b.Addr.String(), b)
	case stub.SpawnReq:
		m.trySpawn(b.Class, true)
	}
}

// sendBeacon multicasts the manager's existence plus the current load
// hints, and reports itself to the monitor.
func (m *Manager) sendBeacon(ep *san.Endpoint) {
	m.mu.Lock()
	m.seq++
	seq := m.seq
	epoch := m.epoch
	snap := m.workers.Snapshot()
	workers := make([]stub.WorkerInfo, 0, len(snap))
	for _, ws := range snap {
		info := ws.info
		info.QLen = ws.avg.Value()
		workers = append(workers, info)
	}
	var floors map[string]int
	if len(m.floor) > 0 {
		floors = make(map[string]int, len(m.floor))
		for class, f := range m.floor {
			if f > 0 {
				floors[class] = f
			}
		}
	}
	m.stats.BeaconsSent++
	m.mu.Unlock()
	sort.Slice(workers, func(i, j int) bool { return workers[i].ID < workers[j].ID })
	ep.Multicast(stub.GroupControl, stub.MsgBeacon, stub.Beacon{
		Manager: m.Addr(),
		Seq:     seq,
		Epoch:   epoch,
		Workers: workers,
		Floors:  floors,
	}, 64+len(workers)*48)
	ep.Multicast(stub.GroupReports, stub.MsgMonReport, stub.StatusReport{
		Component: m.cfg.Name,
		Kind:      "manager",
		Node:      m.cfg.Node,
		Metrics:   m.cfg.Net.Registry().Collect(m.cfg.Name),
	}, 96)
}

// admitLocked records a worker heard from for the first time — by
// registration, or by a load report after the manager had expired it.
// The replica floor learns the highest concurrent count per class, so
// crashed workers get replaced; an id not seen before is the instance a
// booked replacement of its class was waiting to hear.
func (m *Manager) admitLocked(info stub.WorkerInfo, qlen float64) {
	_, known := m.workers.Get(info.ID)
	ws := &workerState{info: info, avg: &softstate.MovingAverage{Alpha: 0.3}}
	ws.avg.Add(qlen)
	m.workers.Put(info.ID, ws)
	m.stats.Registrations++
	if !known {
		for key, p := range m.pending {
			if p.Kind == supervisor.KindWorker && p.Name == info.Class {
				delete(m.pending, key)
				break
			}
		}
	}
	if count := m.classCountLocked(info.Class); count > m.floor[info.Class] {
		m.floor[info.Class] = count
	}
}

// classView is one worker class as the manager sees it now.
type classView struct {
	avg      float64 // mean of the live workers' queue-length averages
	count    int
	overflow []stub.WorkerInfo
}

func (m *Manager) classViewsLocked() map[string]*classView {
	classes := make(map[string]*classView)
	for _, ws := range m.workers.Snapshot() {
		cv := classes[ws.info.Class]
		if cv == nil {
			cv = &classView{}
			classes[ws.info.Class] = cv
		}
		cv.avg += ws.avg.Value()
		cv.count++
		if ws.info.Overflow {
			cv.overflow = append(cv.overflow, ws.info)
		}
	}
	for _, cv := range classes {
		cv.avg /= float64(cv.count)
	}
	return classes
}

// reconcile is the primary's policy tick: expire what went silent, diff
// desired against actual, issue every missing start that is not already
// pending, then apply the load-driven spawn and reap rules.
func (m *Manager) reconcile() {
	if m.cfg.Spawner == nil {
		return
	}
	now := time.Now()
	m.mu.Lock()
	// Timeout failure inference. An expired worker keeps its node: its
	// replacement is started where the operator placed the capacity.
	goneWorkers := m.workers.ExpiredEntries()
	classes := m.classViewsLocked()
	due := m.diffLocked(now, goneWorkers, classes)
	var grow []string
	var reap []stub.WorkerInfo
	for class, cv := range classes {
		// Spawn on load (threshold H, damping D); reap an idle overflow
		// worker once the burst subsides.
		if m.cfg.Policy.ShouldSpawn(cv.avg, cv.count, now, m.lastSpawn[class]) {
			grow = append(grow, class)
		}
		if len(cv.overflow) > 0 && m.cfg.Policy.ShouldReap(cv.avg, cv.count, now, m.lastSpawn[class]) {
			reap = append(reap, cv.overflow[0])
		}
	}
	m.mu.Unlock()

	for _, p := range due {
		m.act(p)
	}
	for _, class := range grow {
		m.trySpawn(class, false)
	}
	for _, victim := range reap {
		_ = m.ep.Send(victim.Addr, stub.MsgShutdown, nil, 16)
		if err := m.cfg.Spawner.ReapWorker(victim.ID); err == nil {
			m.mu.Lock()
			m.workers.Delete(victim.ID)
			if m.floor[victim.Class] > 0 {
				m.floor[victim.Class]--
			}
			m.stats.Reaps++
			m.mu.Unlock()
		}
	}
}

// diffLocked books what is desired and neither heard nor pending, drops
// pending rows that were heard or are no longer desired, and returns the
// rows whose start is due now.
func (m *Manager) diffLocked(now time.Time, goneWorkers map[string]*workerState, classes map[string]*classView) (due []*start) {
	book := func(p *start) {
		if m.pending[p.key] == nil {
			m.pending[p.key] = p
		}
	}
	// A component that was heard and fell silent is due at once: its
	// TTL of silence has already passed.
	for _, t := range m.heard {
		for key, row := range t.ExpiredEntries() {
			book(&start{key: key, Row: row})
		}
	}
	// A component a roster names and nobody has heard yet — boot, a
	// respawned manager — gets one TTL to speak up before it counts as
	// dead; one killed before any manager heard it is restarted then.
	sups := m.sups.Snapshot()
	listed := make(map[string]bool)
	for _, sup := range sups {
		for _, r := range sup.Roster {
			if t := m.heard[r.Kind]; t != nil { // a kind restarted by name
				key := san.Addr{Node: r.Node, Proc: r.Name}.String()
				listed[key] = true
				if _, ok := t.Get(key); !ok {
					book(&start{key: key, Row: r, issuedAt: now})
				}
			}
		}
	}
	for key, p := range m.pending {
		t, ttl, silent := m.heard[p.Kind], m.cfg.WorkerTTL, true // no table: a worker replacement
		if t != nil {
			_, ok := t.Get(key)
			ttl, silent = t.TTL(), !ok
		}
		owner, owned := supervisor.Owner(p.Node, sups)
		switch {
		case p.busy:
		case !silent:
			delete(m.pending, key)
		case t != nil && !listed[key] && owned && len(owner.Roster) > 0:
			// Its process's table no longer holds it at this address:
			// moved off a dead node, or removed.
			delete(m.pending, key)
		case now.Sub(p.issuedAt) >= ttl:
			due = append(due, p)
		}
	}
	// Replace crashed workers below the replica floor, each where an
	// expired one of its class had been.
	vacated := make(map[string][]string)
	for _, ws := range goneWorkers {
		vacated[ws.info.Class] = append(vacated[ws.info.Class], ws.info.Node)
	}
	for class, want := range m.floor {
		have := m.pendingWorkersLocked(class)
		if cv := classes[class]; cv != nil {
			have += cv.count
		}
		for ; have < want; have++ {
			node := ""
			if v := vacated[class]; len(v) > 0 {
				node, vacated[class] = v[0], v[1:]
			}
			due = append(due, m.bookWorkerLocked(class, node))
		}
	}
	return due
}

// bookWorkerLocked books the start of one more worker of class, owned
// by whichever supervisor governs node.
func (m *Manager) bookWorkerLocked(class, node string) *start {
	m.nextCmdID++
	p := &start{key: fmt.Sprintf("%s#%d", class, m.nextCmdID), Row: supervisor.Row{Name: class, Kind: supervisor.KindWorker, Node: node}}
	m.pending[p.key] = p
	return p
}

// act issues the start one pending row stands for — the only place the
// manager starts anything — off the receive loop: a restart waits for
// the old instance to exit, a delegated one for an ack that arrives on
// the manager's own inbox, and beacons must keep flowing meanwhile. A
// row whose node belongs to a supervisor in another OS process (its
// prefix is not the manager's own) is delegated over the SAN; everything
// else takes the direct local path. The two never mix: the local lever
// restarts by bare name, so a failed delegation is retried at the next
// tick and never attempted here — a peer's dead fe0 must not restart
// this process's live fe0. Retries of one incident reuse its command id,
// so a supervisor that executed the command but whose ack was lost
// answers the retry from its result cache instead of acting twice; the
// command carries the issuing epoch, so a supervisor that has seen a
// newer one refuses a deposed primary's in-flight commands.
func (m *Manager) act(p *start) {
	m.mu.Lock()
	if p.cmdID == 0 {
		m.nextCmdID++
		p.cmdID = m.nextCmdID
	}
	p.busy, p.issuedAt = true, time.Now()
	cmd := supervisor.Command{ID: p.cmdID, Origin: m.Addr().String(), Op: supervisor.OpRestart, Target: p.Name, Epoch: m.epoch}
	m.mu.Unlock()
	local := func() bool { return m.cfg.Spawner.Restart(p.Name) == nil }
	if p.Kind == supervisor.KindWorker {
		cmd.Op = supervisor.OpSpawnWorker
		local = func() bool { return m.cfg.Spawner.SpawnWorker(p.Name) == nil }
	}
	sup, owned := m.SupervisorFor(p.Node)
	remote := owned && sup.Prefix != m.cfg.Prefix
	go func() {
		if !remote {
			m.complete(p, local(), false)
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), m.cfg.CmdTimeout)
		resp, err := m.ep.Call(ctx, sup.Addr, supervisor.MsgCmd, cmd, 64)
		cancel()
		ack, _ := resp.Body.(supervisor.Ack) // a malformed ack is a refusal
		delegated := err == nil && ack.OK
		if !delegated {
			m.mu.Lock()
			m.stats.DelegateFails++
			m.mu.Unlock()
		}
		m.complete(p, delegated, delegated)
	}()
}

// complete applies the result of one act. A failure leaves the row due
// again at the next tick until the incident's budget is spent; then the
// row, and its command id with it, is forgotten — a roster that still
// names the component books a fresh incident.
func (m *Manager) complete(p *start, ok, delegated bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p.busy = false
	if !ok {
		p.issuedAt = time.Time{}
		p.attempts++
		if p.attempts >= maxAttempts && m.pending[p.key] == p {
			delete(m.pending, p.key)
		}
		return
	}
	p.attempts, p.cmdID = 0, 0
	switch p.Kind {
	case supervisor.KindFrontEnd:
		m.stats.FERestarts++
	case supervisor.KindCache:
		m.stats.CacheRestarts++
	case supervisor.KindWorker:
		m.stats.Spawns++
		m.lastSpawn[p.Name] = p.issuedAt
		// A load-driven spawn raises the floor; a replacement was
		// already counted in it.
		if c := m.classCountLocked(p.Name) + m.pendingWorkersLocked(p.Name); c > m.floor[p.Name] {
			m.floor[p.Name] = c
		}
	}
	if delegated && p.Kind == supervisor.KindWorker {
		m.stats.DelegatedSpawn++
	} else if delegated {
		m.stats.Delegated++
	}
}

func (m *Manager) pendingWorkersLocked(class string) int {
	n := 0
	for _, p := range m.pending {
		if p.Kind == supervisor.KindWorker && p.Name == class {
			n++
		}
	}
	return n
}

// SupervisorFor resolves the supervisor owning a node by longest
// advertised prefix (supervisor.Owner) — the RACS-style ownership
// rule: each process's supervisor governs exactly the node names
// carrying its prefix.
func (m *Manager) SupervisorFor(node string) (supervisor.HelloMsg, bool) {
	return supervisor.Owner(node, m.sups.Snapshot())
}

// trySpawn books and issues one more worker of class, unless the
// damping window or a start of that class already pending says wait.
// cold marks a front end's request: it knows no worker of the class, and
// gets one only if the manager hears none either — a front end that gave
// up on workers still reporting here is short of beacons, not workers.
func (m *Manager) trySpawn(class string, cold bool) {
	m.mu.Lock()
	var p *start
	if m.cfg.Spawner != nil && time.Since(m.lastSpawn[class]) >= m.cfg.Policy.Damping &&
		m.pendingWorkersLocked(class) == 0 && !(cold && m.classCountLocked(class) > 0) {
		p = m.bookWorkerLocked(class, "")
	}
	m.mu.Unlock()
	if p != nil {
		m.act(p)
	}
}

func (m *Manager) classCountLocked(class string) int {
	n := 0
	for _, ws := range m.workers.Snapshot() {
		if ws.info.Class == class {
			n++
		}
	}
	return n
}

// ClassAverages exposes per-class average queue lengths (used by
// experiments and the monitor).
func (m *Manager) ClassAverages() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64)
	for class, cv := range m.classViewsLocked() {
		out[class] = cv.avg
	}
	return out
}
