// Package manager implements the SNS layer's centralized,
// fault-tolerant load-balancing manager (paper §2.2.2, §3.1.2): it
// collects the load worker stubs announce, synthesizes hints as
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
// Each beacon goes out twice, to two audiences (§3.1.3): whole on
// stub.GroupControl, where front ends, standby replicas, supervisors, the
// edge and the monitor hear the load table, and as its head alone
// (manager, seq, epoch) on stub.GroupBeacon, where the workers hear that
// a manager exists — so a worker's cost per beacon does not grow with
// the number of workers.
//
// The primary's beacons refresh every listener's worker table once per
// BeaconInterval (a softstate.Schedule), which bounds staleness. It also
// beacons at once when its membership view changes — a worker admitted
// or forgotten, a front end or supervisor heard new or again after its
// row expired — one beacon per drained inbox and per reconcile. So a
// rebuild of soft state converges in a round trip: §3.1.3's
// re-registration at message speed, a newcomer greeted with the table it
// needs, and an idle cluster pays only the periodic refresh.
//
// # One rule up, one lever
//
// Desired is declared, never learned: the roster every live supervisor
// advertises in its hello (its process's component table, alive or not)
// — front ends, caches and every configured worker slot alike. Actual
// is what the manager hears, keyed by SAN address: one member.announce
// (supervisor.Member) per interval from every front end, cache and
// worker, each kind's table aged by that kind's TTL. A front end
// announcing itself draining (it is stopping) is heard like any other.
// A worker announcing itself down was stopped on purpose and is
// forgotten at once. Pending holds every command the primary has booked
// under that same address (class#n for a spawn, "reap id" for a reap)
// until the instance is heard or one TTL passes. Each tick the primary
// diffs the three (reconcile) and issues what is missing (act), always
// as a supervisor.Command to the supervisor owning the row's node — its
// own process's included; the manager holds no other lever. A row is
// restarted by name when its address falls silent for its kind's TTL,
// or was never heard one TTL after a roster first named it.
// Load-driven and cold-start workers are extras outside that rule:
// spawned and reaped by policy, and one that dies leaves its roster and
// is not brought back. Two restarts are somebody else's: front ends
// restart a silent manager (§3.1.3), and a process's exit observer
// respawns its own supervisor (core).
//
// # Replication, epochs, and standby mode
//
// The manager role is replicated: N Manager instances share the
// control group, but exactly one — the primary — beacons, runs policy
// sweeps, and issues commands. The rest run in standby mode: the full
// receive loop stays live (they mirror the worker inventory from the
// primary's beacons, for its load hints, and ingest the multicast
// front-end/cache announcements and supervisor hellos directly), but
// every output is suppressed. What should run is in the rosters, which a standby hears
// first-hand, so a takeover needs nothing from the old primary: there
// is no state transfer and no recovery protocol.
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
	"sync/atomic"
	"time"

	"repro/internal/san"
	"repro/internal/softstate"
	"repro/internal/stub"
	"repro/internal/supervisor"
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
	// FETTL expires front ends that stop announcing; expiry
	// triggers the process-peer restart. Supervisors expire on the
	// same TTL: one that stops heartbeating drops out of ownership
	// resolution and takes its roster with it; its own process
	// respawns it.
	FETTL time.Duration
	// CacheTTL expires cache services that stop announcing; expiry
	// triggers the process-peer restart (defaults to FETTL).
	CacheTTL time.Duration
	// CmdTimeout bounds one supervisor command (default 2s).
	CmdTimeout time.Duration
	// Rank is this replica's election rank. It staggers takeover
	// timing (rank r waits r extra beacon intervals beyond the
	// election timeout) so replicas claim the primacy one at a time
	// instead of racing.
	Rank int
	// Standby starts the replica in standby mode: full receive loop,
	// no beacons, no policy sweeps, no commands — until it wins an
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
	Workers          int
	FrontEnds        int
	Caches           int
	Supervisors      int
	Spawns           uint64
	Reaps            uint64
	FERestarts       uint64
	CacheRestarts    uint64
	WorkerRestarts   uint64
	ReportsHandled   uint64 // worker announcements
	BeaconsSent      uint64
	BeaconsTriggered uint64 // of BeaconsSent, those sent for a membership change
	// Registrations counts workers put into the beacons: heard for the
	// first time, or again after silence or a stop removed them.
	Registrations uint64
	// DelegateFails counts supervisor commands that timed out, were
	// refused or found no owner (each is retried at the next tick); a
	// success is one of the restart, spawn or reap counters above.
	DelegateFails uint64
	// Election state: is this replica the acting primary, at what epoch,
	// and how many times it took over or stepped down.
	Primary   bool
	Epoch     uint64
	Takeovers uint64
	StepDowns uint64
}

type workerState struct {
	info stub.WorkerInfo
	avg  *softstate.MovingAverage
}

// start is one row of the pending table: a command the primary has
// booked and not yet seen the result of.
type start struct {
	key string // SAN address of a row restarted by name; class#n for a spawn; "reap id" for a reap
	// Name is the command's target (the class for a spawn); Node resolves
	// the owning supervisor (for a spawn, the manager's own node).
	supervisor.Row
	op string // supervisor.OpRestart, OpSpawnWorker or OpReap
	// class is the worker class a spawn, or the restart of a worker the
	// manager had heard, will bring back: one of either pending holds off
	// another spawn of that class.
	class string

	cmdID    uint64    // minted at the first attempt of an incident, reused by its retries
	issuedAt time.Time // last attempt, or when the row was named; zero = due now
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

	mu sync.Mutex
	// workers is the inventory beacons carry, by id: the workers heard
	// up. A worker's liveness is its row in heard, like everyone else's.
	workers map[string]*workerState
	// heard is the actual state of every kind restarted by name (front
	// ends, caches, workers), each keyed by SAN address, not bare name:
	// two processes may both host an "fe0", and one's announcements must
	// not mask the other's death. A kind's table TTL is how long it may stay
	// silent before it counts as dead.
	heard     map[string]*softstate.Table[supervisor.Row]
	sups      *softstate.Table[supervisor.HelloMsg]
	lastSpawn map[string]time.Time
	pending   map[string]*start // every command in flight, by start.key
	nextCmdID uint64
	seq       uint64
	stats     Stats
	changed   atomic.Bool // the membership view moved since the last beacon

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
		workers: make(map[string]*workerState),
		heard: map[string]*softstate.Table[supervisor.Row]{
			supervisor.KindFrontEnd: softstate.NewTable[supervisor.Row](cfg.FETTL, nil),
			supervisor.KindCache:    softstate.NewTable[supervisor.Row](cfg.CacheTTL, nil),
			supervisor.KindWorker:   softstate.NewTable[supervisor.Row](cfg.WorkerTTL, nil),
		},
		sups:      softstate.NewTable[supervisor.HelloMsg](cfg.FETTL, nil),
		lastSpawn: make(map[string]time.Time),
		pending:   make(map[string]*start),
	}
	m.epoch = cfg.InitialEpoch
	if !cfg.Standby {
		m.primary = true
		m.epoch++
	}
	m.lastClaim = time.Now()
	m.ep = cfg.Net.Endpoint(m.Addr(), san.InboxSize)
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
	st.Workers = len(m.workers)
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
		m.ep = m.cfg.Net.Endpoint(m.Addr(), san.InboxSize)
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
		emit("worker_restarts", float64(st.WorkerRestarts))
		emit("beacons_sent", float64(st.BeaconsSent))
		emit("beacons_triggered", float64(st.BeaconsTriggered))
		emit("registrations", float64(st.Registrations))
		emit("epoch", float64(st.Epoch))
		primary := 0.0
		if st.Primary {
			primary = 1
		}
		emit("primary", primary)
		emit("takeovers", float64(st.Takeovers))
		emit("delegate_fails", float64(st.DelegateFails))
		emit("supervisors", float64(st.Supervisors))
	})

	beacon := softstate.NewSchedule(m.cfg.BeaconInterval)
	defer beacon.Stop()
	tick := time.NewTicker(m.cfg.BeaconInterval)
	defer tick.Stop()

	m.mu.Lock()
	m.lastClaim = time.Now() // fresh grace window per Run
	m.mu.Unlock()

	listening := time.Now() // when the last primary tick was served
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-beacon.C:
			if m.IsPrimary() {
				m.sendBeacon(ep, false)
			}
			beacon.Next()
		case <-tick.C:
			if !m.IsPrimary() {
				m.maybeTakeover(ep)
				continue
			}
			// Silence is judged only by a replica that was listening, or a
			// hiccup here reads as deaths everywhere — and a false death is a
			// live worker restarted. What queued up behind this tick is heard
			// first; and if the tick itself is late (a whole interval was
			// missed: this loop, or the process, stood still) nobody is
			// judged until a full interval of listening has passed.
			for len(ep.Inbox()) > 0 {
				m.handle(<-ep.Inbox())
			}
			if time.Since(listening) > 2*m.cfg.BeaconInterval {
				tick.Reset(m.cfg.BeaconInterval)
			} else {
				m.reconcile()
			}
			listening = time.Now()
		case msg, ok := <-ep.Inbox():
			if !ok {
				return fmt.Errorf("manager: endpoint closed")
			}
			m.handle(msg)
			for len(ep.Inbox()) > 0 {
				m.handle(<-ep.Inbox())
			}
		}
		if m.changed.Load() && m.IsPrimary() {
			m.sendBeacon(ep, true) // one per drained inbox, one per reconcile
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
	m.sendBeacon(ep, false)
}

// observeBeacon processes a rival manager replica's beacon: adopt a
// newer epoch (stepping down if this replica was primary), resolve an
// equal-epoch split claim by lowest address, and — while in standby —
// mirror the primary's worker inventory so a later takeover balances
// load from hints at most one beacon interval old.
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
	// worker inventory and its load averages, so a fresh primary's very
	// first policy sweep balances with current hints instead of zeros.
	live := make(map[string]bool, len(b.Workers))
	for _, wi := range b.Workers {
		live[wi.ID] = true
		ws := m.workers[wi.ID]
		if ws == nil {
			ws = &workerState{avg: &softstate.MovingAverage{Alpha: 0.3}}
			ws.avg.Add(wi.QLen)
		}
		ws.info = wi
		m.hearLocked(ws)
	}
	for id, ws := range m.workers {
		if !live[id] {
			m.forgetLocked(id, ws.info.Addr)
		}
	}
}

func (m *Manager) handle(msg san.Message) {
	// Every message kind the manager consumes has a body type of its
	// own, so the body selects the case.
	switch b := msg.Body.(type) {
	case stub.Beacon:
		m.observeBeacon(b)
	case supervisor.Member:
		m.hear(b)
	case supervisor.HelloMsg:
		if m.sups.Put(b.Addr.String(), b) {
			m.changed.Store(true)
		}
	case stub.SpawnReq:
		m.trySpawn(b.Class, true)
	}
}

// sendBeacon multicasts the manager's existence plus the current load
// hints on the control group, the existence alone (no rows) to the
// workers on the beacon group, and reports itself to the monitor.
// Whatever changed is in it.
func (m *Manager) sendBeacon(ep *san.Endpoint, triggered bool) {
	m.mu.Lock()
	m.seq++
	seq := m.seq
	epoch := m.epoch
	workers := make([]stub.WorkerInfo, 0, len(m.workers))
	for _, ws := range m.workers {
		info := ws.info
		info.QLen = ws.avg.Value()
		workers = append(workers, info)
	}
	m.changed.Store(false)
	m.stats.BeaconsSent++
	if triggered {
		m.stats.BeaconsTriggered++
	}
	m.mu.Unlock()
	sort.Slice(workers, func(i, j int) bool { return workers[i].ID < workers[j].ID })
	head := stub.Beacon{Manager: m.Addr(), Seq: seq, Epoch: epoch}
	ep.Multicast(stub.GroupBeacon, stub.MsgBeacon, head, 64)
	head.Workers = workers
	ep.Multicast(stub.GroupControl, stub.MsgBeacon, head, 64+len(workers)*48)
	ep.Multicast(stub.GroupReports, stub.MsgMonReport,
		stub.Report(m.cfg.Net, m.cfg.Name, "manager", m.cfg.Node, m.cfg.Name), 96)
}

// hear folds one announcement into the membership view. A front end or
// cache refreshes its row; a newcomer front end is greeted, since it
// needs the worker table. A worker up is put in the beacons, or its load
// averaged in if it is there; a worker down was stopped on purpose and is
// forgotten — its last word, so no announcement of it still in flight
// can put it back.
func (m *Manager) hear(a supervisor.Member) {
	t, row := m.heard[a.Kind], supervisor.Row{Name: a.Addr.Proc, Kind: a.Kind, Node: a.Addr.Node}
	if t == nil {
		return
	}
	if a.Kind != supervisor.KindWorker {
		if t.Put(a.Addr.String(), row) && a.Kind == supervisor.KindFrontEnd {
			m.changed.Store(true)
		}
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.ReportsHandled++
	ws := m.workers[a.Addr.Proc]
	mine := ws != nil && ws.info.Addr == a.Addr
	switch {
	case a.State != supervisor.StateUp:
		t.Delete(a.Addr.String())
		if mine {
			delete(m.workers, a.Addr.Proc)
			m.changed.Store(true)
		}
	case mine:
		ws.avg.Add(float64(a.Load))
		m.hearLocked(ws)
	default:
		m.admitLocked(stub.WorkerInfo{ID: a.Addr.Proc, Class: a.Class, Addr: a.Addr, Node: a.Addr.Node, Overflow: a.Overflow}, float64(a.Load))
	}
}

// admitLocked puts a worker in the inventory: heard up for the first
// time, or again after the manager expired or forgot it. An id
// neither tracked nor booked by name is the instance a spawn of its class
// was waiting to hear.
func (m *Manager) admitLocked(info stub.WorkerInfo, qlen float64) {
	_, known := m.workers[info.ID]
	ws := &workerState{info: info, avg: &softstate.MovingAverage{Alpha: 0.3}}
	ws.avg.Add(qlen)
	m.hearLocked(ws)
	m.stats.Registrations++
	m.changed.Store(true)
	if !known && m.pending[info.Addr.String()] == nil {
		for key, p := range m.pending {
			if p.op == supervisor.OpSpawnWorker && p.class == info.Class {
				delete(m.pending, key)
				break
			}
		}
	}
}

// hearLocked records a worker in the inventory and refreshes its liveness.
func (m *Manager) hearLocked(ws *workerState) {
	m.workers[ws.info.ID] = ws
	m.heard[supervisor.KindWorker].Put(ws.info.Addr.String(),
		supervisor.Row{Name: ws.info.ID, Kind: supervisor.KindWorker, Node: ws.info.Node})
}

// forgetLocked drops a worker from both.
func (m *Manager) forgetLocked(id string, addr san.Addr) {
	delete(m.workers, id)
	m.heard[supervisor.KindWorker].Delete(addr.String())
	m.changed.Store(true)
}

// classView is one worker class as the manager sees it now.
type classView struct {
	avg    float64 // mean of the live workers' queue-length averages
	count  int
	victim stub.WorkerInfo // the lowest-id overflow worker: next to reap; zero if none
}

func (m *Manager) classViewsLocked() map[string]*classView {
	classes := make(map[string]*classView)
	for _, ws := range m.workers {
		cv := classes[ws.info.Class]
		if cv == nil {
			cv = &classView{}
			classes[ws.info.Class] = cv
		}
		cv.avg += ws.avg.Value()
		cv.count++
		if ws.info.Overflow && (cv.victim.ID == "" || ws.info.ID < cv.victim.ID) {
			cv.victim = ws.info
		}
	}
	for _, cv := range classes {
		cv.avg /= float64(cv.count)
	}
	return classes
}

// reconcile is the primary's policy tick: expire what went silent,
// apply the load-driven spawn and reap rules, diff desired against
// actual, and issue every command that is due.
func (m *Manager) reconcile() {
	now := time.Now()
	m.mu.Lock()
	var grow []string
	for class, cv := range m.classViewsLocked() {
		// Spawn on load (threshold H, damping D); reap an idle overflow
		// worker once the burst subsides.
		if m.cfg.Policy.ShouldSpawn(cv.avg, cv.count, now, m.lastSpawn[class]) {
			grow = append(grow, class)
		}
		if v := cv.victim; v.ID != "" && m.cfg.Policy.ShouldReap(cv.avg, cv.count, now, m.lastSpawn[class]) {
			m.bookLocked(&start{key: "reap " + v.ID, Row: supervisor.Row{Name: v.ID, Kind: supervisor.KindWorker, Node: v.Node}, op: supervisor.OpReap})
		}
	}
	due := m.diffLocked(now)
	m.mu.Unlock()

	for _, p := range due {
		m.act(p)
	}
	for _, class := range grow {
		m.trySpawn(class, false)
	}
}

func (m *Manager) bookLocked(p *start) {
	if m.pending[p.key] == nil {
		m.pending[p.key] = p
	}
}

// diffLocked books what is desired and neither heard nor pending, drops
// pending rows that were heard or are no longer desired, and returns the
// rows whose command is due now.
func (m *Manager) diffLocked(now time.Time) (due []*start) {
	// A component that was heard and fell silent is due at once: its
	// TTL of silence has already passed ("timeouts are used as a backup
	// mechanism to infer failures", §3.1.3). A worker leaves the beacons
	// with that.
	for _, t := range m.heard {
		for key, row := range t.ExpiredEntries() {
			p := &start{key: key, Row: row, op: supervisor.OpRestart}
			if ws := m.workers[row.Name]; ws != nil && ws.info.Addr.String() == key {
				p.class = ws.info.Class
				m.forgetLocked(row.Name, ws.info.Addr)
			}
			m.bookLocked(p)
		}
	}
	// A component a roster names and nobody has heard yet — boot, a
	// respawned manager, a takeover — gets one TTL to speak up before it
	// counts as dead; one killed before any manager heard it is restarted
	// then.
	sups := m.sups.Snapshot()
	listed := make(map[string]bool)
	for _, sup := range sups {
		for _, r := range sup.Roster {
			if t := m.heard[r.Kind]; t != nil { // a kind restarted by name
				key := san.Addr{Node: r.Node, Proc: r.Name}.String()
				listed[key] = true
				if _, ok := t.Get(key); !ok {
					m.bookLocked(&start{key: key, Row: r, op: supervisor.OpRestart, issuedAt: now})
				}
			}
		}
	}
	for key, p := range m.pending {
		named, ttl, silent := p.op == supervisor.OpRestart, m.cfg.WorkerTTL, true
		if named { // keyed by the address of a row restarted by name
			t := m.heard[p.Kind]
			_, ok := t.Get(key)
			ttl, silent = t.TTL(), !ok
		}
		owner, owned := supervisor.Owner(p.Node, sups)
		switch {
		case p.busy:
		case !silent:
			delete(m.pending, key)
		case named && !listed[key] && owned && len(owner.Roster) > 0 && now.Sub(p.issuedAt) >= ttl:
			// Its process's table no longer holds it at this address:
			// moved off a dead node, removed, or an extra that died. One
			// TTL on: a hello older than the row may predate the component.
			delete(m.pending, key)
		case now.Sub(p.issuedAt) >= ttl:
			due = append(due, p)
		}
	}
	return due
}

// act issues the command one pending row stands for — the only place
// the manager starts or stops anything — off the receive loop: the ack
// arrives on the manager's own inbox, and beacons must keep flowing
// meanwhile. The command goes to the supervisor owning the row's node,
// whichever OS process that is in; a failure is retried at the next
// tick. Retries of one incident reuse its command id, so a supervisor
// whose ack was lost answers the retry from its result cache instead of
// acting twice; the command carries the issuing epoch, so a supervisor
// that has seen a newer one refuses a deposed primary's commands.
func (m *Manager) act(p *start) {
	m.mu.Lock()
	if p.cmdID == 0 {
		m.nextCmdID++
		p.cmdID = m.nextCmdID
	}
	p.busy, p.issuedAt = true, time.Now()
	cmd := supervisor.Command{ID: p.cmdID, Origin: m.Addr().String(), Op: p.op, Target: p.Name, Epoch: m.epoch}
	m.mu.Unlock()
	sup, owned := m.SupervisorFor(p.Node)
	go func() {
		ok := false
		if owned {
			ctx, cancel := context.WithTimeout(context.Background(), m.cfg.CmdTimeout)
			resp, err := m.ep.Call(ctx, sup.Addr, supervisor.MsgCmd, cmd, 64)
			cancel()
			ack, _ := resp.Body.(supervisor.Ack) // a malformed ack is a refusal
			ok = err == nil && ack.OK
		}
		m.complete(p, ok)
	}()
}

// complete applies the result of one act. A failure leaves the row due
// again at the next tick until the incident's budget is spent; then the
// row, and its command id with it, is forgotten — a roster that still
// names the component books a fresh incident.
func (m *Manager) complete(p *start, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p.busy = false
	if !ok {
		m.stats.DelegateFails++
		p.issuedAt = time.Time{}
		p.attempts++
		if p.attempts >= maxAttempts && m.pending[p.key] == p {
			delete(m.pending, p.key)
		}
		return
	}
	p.attempts, p.cmdID = 0, 0
	switch {
	case p.op == supervisor.OpSpawnWorker:
		m.stats.Spawns++
		m.lastSpawn[p.Name] = p.issuedAt
	case p.op == supervisor.OpReap:
		m.stats.Reaps++
		m.forgetLocked(p.Name, san.Addr{Node: p.Node, Proc: p.Name})
		delete(m.pending, p.key)
	case p.Kind == supervisor.KindFrontEnd:
		m.stats.FERestarts++
	case p.Kind == supervisor.KindCache:
		m.stats.CacheRestarts++
	case p.Kind == supervisor.KindWorker:
		m.stats.WorkerRestarts++
	}
}

// SupervisorFor resolves the supervisor owning a node by longest
// advertised prefix (supervisor.Owner) — the RACS-style ownership
// rule: each process's supervisor governs exactly the node names
// carrying its prefix.
func (m *Manager) SupervisorFor(node string) (supervisor.HelloMsg, bool) {
	return supervisor.Owner(node, m.sups.Snapshot())
}

// trySpawn books and issues one more worker of class — an extra, owned
// by the supervisor of the manager's own node — unless the damping
// window, or a spawn or restart of that class already pending, says
// wait. cold marks a front end's request: it knows no worker of the
// class, and gets one only if the manager hears none either — a front
// end that gave up on workers still reporting here is short of beacons,
// not workers.
func (m *Manager) trySpawn(class string, cold bool) {
	m.mu.Lock()
	var p *start
	coming := false
	for _, q := range m.pending {
		coming = coming || q.class == class
	}
	if time.Since(m.lastSpawn[class]) >= m.cfg.Policy.Damping && !coming && !(cold && m.classViewsLocked()[class] != nil) {
		m.nextCmdID++
		p = &start{key: fmt.Sprintf("%s#%d", class, m.nextCmdID), Row: supervisor.Row{Name: class, Kind: supervisor.KindWorker, Node: m.cfg.Node}, op: supervisor.OpSpawnWorker, class: class}
		m.pending[p.key] = p
	}
	m.mu.Unlock()
	if p != nil {
		m.act(p)
	}
}
