// Package core is the off-the-shelf SNS platform (paper §2): it
// assembles the cluster, SAN, manager, front ends, cache partitions,
// monitor, and profile database into a running system, and wires the
// process-peer fault-tolerance loops (front ends restart the manager;
// the manager restarts front ends and workers).
//
// A new service is exactly what the paper promises: register TACC
// worker classes, supply a dispatch rule, call Start. Everything below
// the Service/TACC layers — scaling, load balancing, overflow, failure
// management, monitoring — comes from here, unchanged, for every
// service.
package core

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/edge"
	"repro/internal/frontend"
	"repro/internal/manager"
	"repro/internal/monitor"
	"repro/internal/origin"
	"repro/internal/profiledb"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
	"repro/internal/tacc"
	"repro/internal/transport"
	"repro/internal/vcache"
)

// Roles selects which SNS components a process hosts. The zero value
// hosts everything (the classic single-process deployment); a
// multi-process cluster gives each cmd/node process a subset and the
// components discover each other over the bridged SAN exactly as they
// would in one process. Every process additionally runs a supervisor
// daemon (internal/supervisor), regardless of its role set, so
// whichever process hosts the manager can delegate process-peer
// restarts into any other.
//
// Replicated roles: front ends, workers, and caches may be hosted by
// several processes of one cluster — FE and cache heartbeats are
// keyed by SAN address and worker ids are prefix-qualified, so
// same-named components in different processes never interleave in
// the manager's soft-state tables. The manager role itself must still
// be hosted by exactly one process (beacons carry a single manager
// address; there is no election yet).
type Roles struct {
	FrontEnds bool
	Manager   bool
	Workers   bool
	Caches    bool
	Monitor   bool
	// Edge hosts the L7 front door (internal/edge). Unlike the other
	// roles it still needs Config.EdgeListen set to actually bind.
	Edge bool
}

// All reports whether this is the host-everything zero value.
func (r Roles) All() bool { return r == (Roles{}) }

func (r Roles) frontEnds() bool { return r.All() || r.FrontEnds }
func (r Roles) manager() bool   { return r.All() || r.Manager }
func (r Roles) workers() bool   { return r.All() || r.Workers }
func (r Roles) caches() bool    { return r.All() || r.Caches }
func (r Roles) monitor() bool   { return r.All() || r.Monitor }
func (r Roles) edge() bool      { return r.All() || r.Edge }

// ParseRoles parses a comma-separated role list
// ("frontend,manager,worker,cache,monitor,edge"; "all" or "" selects
// everything) — the cmd/node flag format.
func ParseRoles(s string) (Roles, error) {
	var r Roles
	if s == "" || s == "all" {
		return r, nil
	}
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "frontend", "frontends", "fe":
			r.FrontEnds = true
		case "manager", "mgr":
			r.Manager = true
		case "worker", "workers":
			r.Workers = true
		case "cache", "caches":
			r.Caches = true
		case "monitor", "mon":
			r.Monitor = true
		case "edge":
			r.Edge = true
		case "":
		default:
			return Roles{}, fmt.Errorf("core: unknown role %q", part)
		}
	}
	if r.All() {
		return Roles{}, fmt.Errorf("core: no roles in %q", s)
	}
	return r, nil
}

// TransportConfig attaches the SAN to a socket bridge
// (internal/transport) so the process can splice into a cluster that
// spans real OS processes. A non-empty Listen enables it.
type TransportConfig struct {
	// Listen is the bridge's socket: "tcp:host:port" or "unix:/path"
	// (port 0 picks a free port).
	Listen string
	// Join lists seed bridge addresses; peer gossip completes the
	// mesh from any one of them.
	Join []string
	// ID names this process's bridge uniquely in the cluster
	// (defaults to NodePrefix, then to the resolved listen address).
	ID string
	// FlushBytes/FlushDelay tune frame batching (transport defaults
	// when zero; negative FlushDelay disables batching).
	FlushBytes int
	FlushDelay time.Duration
	// MaxBatchBytes bounds each peer's write queue: sends past the
	// bound fail fast with backpressure instead of buffering behind a
	// stalled peer (transport default when zero; negative unbounded).
	MaxBatchBytes int
}

// Config describes a deployment.
type Config struct {
	Seed int64

	// Roles selects the components this process hosts (zero = all).
	Roles Roles

	// NodePrefix prefixes every cluster node name ("node0" becomes
	// "<prefix>node0"), keeping SAN addresses disjoint when several
	// OS processes join one logical SAN. Required (and must be
	// unique) per process in multi-process mode.
	NodePrefix string

	// Transport, when Listen is set, bridges this process's SAN to
	// its peers over sockets.
	Transport TransportConfig

	// RemoteCaches names cache partitions hosted by peer processes
	// (use CacheAddrs to compute them from the hosting process's
	// prefix and topology). Merged with locally hosted partitions
	// into every front end's view.
	RemoteCaches map[string]san.Addr

	// Topology.
	DedicatedNodes int // worker/cache/FE hosts (default 8)
	OverflowNodes  int // burst-absorbing pool (§2.2.3)
	ProcsPerNode   int // capacity heuristic per node (default 8)

	// Components.
	FrontEnds int
	// Managers is how many manager replicas this process hosts when
	// it carries the manager role (default 1). Replica 0 boots as the
	// acting primary; the rest boot standby and win the primacy by
	// the lease election in internal/manager when the primary goes
	// silent.
	Managers int
	// ManagerRank offsets the election rank of the first local
	// replica: replica i runs at rank ManagerRank+i, and only global
	// rank 0 boots as the acting primary. A multi-process deployment
	// gives each manager-role process Managers=1 and a distinct
	// ManagerRank; exactly one process runs rank 0.
	ManagerRank int
	CacheParts  int
	// CacheBudget is bytes per cache partition (default 64 MiB).
	CacheBudget int64
	// Workers maps class -> initial replica count.
	Workers map[string]int

	// Service definition.
	Registry *tacc.Registry
	Rules    tacc.DispatchRule
	Origin   origin.Fetcher

	// ProfileDir holds the ACID profile database; empty uses a
	// fresh temporary directory.
	ProfileDir string

	// Tuning.
	Policy         manager.Policy
	BeaconInterval time.Duration
	ReportInterval time.Duration
	CallTimeout    time.Duration
	FEThreads      int
	CacheTTL       time.Duration
	CacheTimeout   time.Duration // per-lookup vcache bound (0 = client default)
	MinDistillSize int
	// CacheServiceTime optionally models per-hit cache cost (§4.4).
	CacheServiceTime func() time.Duration
	// CacheSuperviseTTL is how long the manager tolerates cache
	// heartbeat silence before its process-peer duty restarts the
	// service (default 5x ReportInterval). Keep it comfortably above
	// the longest network partition a deployment should ride out —
	// restarting a merely-partitioned cache is safe (the content is
	// discardable) but churns.
	CacheSuperviseTTL time.Duration
	// DisableDeltaEstimator turns off the §4.5 queue-delta fix
	// (used by the oscillation ablation).
	DisableDeltaEstimator bool

	// Overload robustness (zero values leave each check off or at the
	// frontend package's own defaults).

	// RequestDeadline is the end-to-end budget stamped onto requests
	// that arrive without a context deadline; it propagates through
	// dispatch so every hop drops expired work. Zero = no deadline.
	RequestDeadline time.Duration
	// FEMaxInflight bounds each front end's admitted requests
	// (0 = frontend default Threads+QueueCap; negative disables).
	FEMaxInflight int
	// FEQueueHighWater sheds at admission when even the least-loaded
	// worker's estimated queue reaches this depth (0 = off).
	FEQueueHighWater float64

	// Front door (internal/edge).

	// EdgeListen, when non-empty, hosts the L7 front door on this
	// HTTP address ("host:port", port 0 picks a free port) — provided
	// the process carries the edge role (or the host-everything zero
	// Roles).
	EdgeListen string
	// FEHTTP, when non-empty, binds an HTTP adapter (edge.FEServer) on
	// this host for every local front end and advertises its address
	// in FE heartbeats — the per-replica listener the edge routes to.
	FEHTTP string
	// EdgeRetryBudget bounds edge retries as a fraction of requests
	// (0 disables transparent retry).
	EdgeRetryBudget float64

	// Observability (internal/obs).

	// TraceSampleRate samples 1 in N requests for distributed tracing
	// (0 = the obs package default of 64; 1 = every request; negative
	// disables sampling — forced spans for shed/degraded/expired
	// requests still record).
	TraceSampleRate int
	// TraceSlowThreshold, when positive, logs the full local span tree
	// of any request whose end-to-end latency exceeds it.
	TraceSlowThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.DedicatedNodes <= 0 {
		c.DedicatedNodes = 8
	}
	if c.ProcsPerNode <= 0 {
		c.ProcsPerNode = 8
	}
	if c.FrontEnds <= 0 {
		c.FrontEnds = 1
	}
	if c.Managers <= 0 {
		c.Managers = 1
	}
	if c.CacheParts <= 0 {
		c.CacheParts = 2
	}
	if c.CacheBudget <= 0 {
		c.CacheBudget = 64 << 20
	}
	if c.Registry == nil {
		c.Registry = tacc.NewRegistry()
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = stub.DefaultBeaconInterval
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = c.BeaconInterval
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = stub.DefaultCallTimeout
	}
	if c.CacheSuperviseTTL <= 0 {
		c.CacheSuperviseTTL = 5 * c.ReportInterval
	}
	if c.FEThreads <= 0 {
		c.FEThreads = 64
	}
	if c.Policy == (manager.Policy{}) {
		c.Policy = manager.DefaultPolicy()
	}
	return c
}

// System is a running SNS deployment.
type System struct {
	cfg Config

	Net     *san.Network
	Cluster *cluster.Cluster
	DB      *profiledb.DB
	Profile *profiledb.ReadCache
	Mon     *monitor.Monitor // nil when the monitor role is remote
	// Bridge is the socket transport splicing this process into a
	// multi-process SAN; nil in single-process deployments.
	Bridge *transport.Bridge

	mu          sync.Mutex
	cacheNodes  map[string]san.Addr // local + remote partitions (FE view)
	localCaches map[string]bool     // partitions this process hosts
	mgrs        []*mgrReplica
	mgrEpochHW  uint64 // high-water election epoch across local replicas
	lastMgrFix  time.Time
	sup         *supervisor.Supervisor
	supNode     string
	fes         map[string]*frontend.FrontEnd
	feNodes     map[string]string
	feOrder     []string
	feHTTP      map[string]*edge.FEServer
	edge        *edge.Edge
	workerNodes map[string]string
	workerStubs map[string]*stub.WorkerStub

	workerSeq atomic.Int64
	rr        atomic.Uint64
	tmpDir    string
	stopped   atomic.Bool
}

// mgrReplica tracks one locally hosted manager replica across its
// respawns. The rank is stable; the Manager instance and handle are
// replaced each time the replica is respawned.
type mgrReplica struct {
	rank int
	gen  int // spawn generation, for distinct process names
	m    *manager.Manager
	h    *cluster.Handle
}

// nodeName/ovfName build prefix-qualified cluster node names — unique
// across processes when each supplies a distinct NodePrefix.
func nodeName(prefix string, i int) string { return fmt.Sprintf("%snode%d", prefix, i) }
func ovfName(prefix string, i int) string  { return fmt.Sprintf("%sovf%d", prefix, i) }

// CacheAddrs computes the deterministic SAN addresses the cache
// partitions of a process started with the given prefix and topology
// will hold: cache i lives on node i (mod dedicated). A front-end
// process uses this to reach partitions hosted by a peer process
// without a discovery protocol. Zero parts/dedicated take the Config
// defaults (2 partitions, 8 nodes).
func CacheAddrs(nodePrefix string, cacheParts, dedicatedNodes int) map[string]san.Addr {
	if cacheParts <= 0 {
		cacheParts = 2
	}
	if dedicatedNodes <= 0 {
		dedicatedNodes = 8
	}
	out := make(map[string]san.Addr, cacheParts)
	for i := 0; i < cacheParts; i++ {
		name := fmt.Sprintf("cache%d", i)
		out[name] = san.Addr{Node: nodeName(nodePrefix, i%dedicatedNodes), Proc: name}
	}
	return out
}

// Start builds and boots a system.
func Start(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	s := &System{
		cfg:         cfg,
		cacheNodes:  make(map[string]san.Addr),
		localCaches: make(map[string]bool),
		fes:         make(map[string]*frontend.FrontEnd),
		feNodes:     make(map[string]string),
		feHTTP:      make(map[string]*edge.FEServer),
		workerNodes: make(map[string]string),
		workerStubs: make(map[string]*stub.WorkerStub),
	}
	// Every message body crosses the SAN as stub wire-codec bytes, in
	// one process or many — the same serialization path a production
	// interconnect runs. Decode views ride along: []byte bodies alias
	// pooled receive buffers (see san.WithDecodeViews), and every
	// consumer in this tree honors the Lease/Release contract.
	s.Net = san.NewNetwork(cfg.Seed, san.WithCodec(stub.WireCodec{}), san.WithDecodeViews(true))
	s.configureObs()
	if cfg.Transport.Listen != "" {
		id := cfg.Transport.ID
		if id == "" {
			id = cfg.NodePrefix // may still be empty; bridge then uses its listen addr
		}
		br, err := transport.New(transport.Config{
			Net:           s.Net,
			Listen:        cfg.Transport.Listen,
			Join:          cfg.Transport.Join,
			ID:            id,
			FlushBytes:    cfg.Transport.FlushBytes,
			FlushDelay:    cfg.Transport.FlushDelay,
			MaxBatchBytes: cfg.Transport.MaxBatchBytes,
		})
		if err != nil {
			return nil, err
		}
		s.Bridge = br
	}
	s.Cluster = cluster.New(s.Net)
	for i := 0; i < cfg.DedicatedNodes; i++ {
		s.Cluster.AddNode(nodeName(cfg.NodePrefix, i), false)
	}
	for i := 0; i < cfg.OverflowNodes; i++ {
		s.Cluster.AddNode(ovfName(cfg.NodePrefix, i), true)
	}

	// ACID island: the profile database.
	dir := cfg.ProfileDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "sns-profiles-*")
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		s.tmpDir = tmp
		dir = tmp
	}
	db, err := profiledb.Open(dir)
	if err != nil {
		s.cleanup()
		return nil, err
	}
	s.DB = db
	s.Profile = profiledb.NewReadCache(db)

	if s.cfg.Origin == nil {
		s.cfg.Origin = origin.NewSimulated(cfg.Seed)
	}

	// Per-process supervisor daemon — every role set gets one, so the
	// manager's process-peer duties reach into this process wherever
	// the manager itself lives. A local watchdog respawns it if it
	// dies: the supervisor must not be the one component nobody
	// supervises.
	if err := s.spawnSupervisor(); err != nil {
		s.cleanup()
		return nil, err
	}
	s.Cluster.OnExit(func(info cluster.ExitInfo) {
		if info.Proc == "sup" && !s.stopped.Load() {
			go func() { _ = s.spawnSupervisor() }()
		}
	})

	// Cache partitions. Placement comes from CacheAddrs — the same
	// function peer processes call — so the "computed address ==
	// actual address" contract that replaces a discovery protocol is
	// enforced by construction, not by keeping two formulas in sync.
	if cfg.Roles.caches() {
		for name, addr := range CacheAddrs(cfg.NodePrefix, cfg.CacheParts, cfg.DedicatedNodes) {
			svc := s.newCacheService(name, addr.Node)
			if _, err := s.Cluster.Spawn(addr.Node, svc); err != nil {
				s.cleanup()
				return nil, err
			}
			s.cacheNodes[name] = svc.Addr()
			s.localCaches[name] = true
		}
	}
	// Partitions hosted by peer processes join the front ends' view.
	for name, addr := range cfg.RemoteCaches {
		if _, local := s.localCaches[name]; !local {
			s.cacheNodes[name] = addr
		}
	}

	// Manager replicas: global rank 0 boots as the acting primary,
	// everyone else standby. The election (internal/manager) owns
	// primacy from here on.
	if cfg.Roles.manager() {
		for i := 0; i < cfg.Managers; i++ {
			rank := cfg.ManagerRank + i
			if err := s.spawnManagerReplica(rank, rank != 0, 0); err != nil {
				s.cleanup()
				return nil, err
			}
		}
	}

	// Monitor.
	if cfg.Roles.monitor() {
		s.Mon = monitor.New(monitor.Config{
			Node:         s.placeOrErr(),
			Net:          s.Net,
			SilenceAfter: 4 * cfg.ReportInterval,
		})
		if _, err := s.Cluster.Spawn(s.Mon.Addr().Node, s.Mon); err != nil {
			s.cleanup()
			return nil, err
		}
	}

	// Initial workers.
	if cfg.Roles.workers() {
		sp := &spawner{s: s}
		for class, n := range cfg.Workers {
			for i := 0; i < n; i++ {
				if _, err := sp.SpawnWorker(class, false); err != nil {
					s.cleanup()
					return nil, err
				}
			}
		}
	}

	// Span reporter: publishes this process's trace spans on the report
	// group and ingests its peers', so any process can answer
	// /trace?id= with the cluster-wide tree.
	rep := &obsReporter{
		name:     "obsrep",
		node:     s.placeOrErr(),
		net:      s.Net,
		interval: cfg.ReportInterval,
	}
	if _, err := s.Cluster.Spawn(rep.node, rep); err != nil {
		s.cleanup()
		return nil, err
	}

	// Front ends.
	if cfg.Roles.frontEnds() {
		for i := 0; i < cfg.FrontEnds; i++ {
			name := fmt.Sprintf("fe%d", i)
			node := s.placeOrErr()
			if err := s.spawnFrontEnd(name, node); err != nil {
				s.cleanup()
				return nil, err
			}
		}
	}

	// Front door: one L7 edge proxy balancing across the FE replicas
	// it hears heartbeating (local and peer-process alike).
	if cfg.EdgeListen != "" && cfg.Roles.edge() {
		// Generous pool TTL: an FE being SIGKILLed and respawned must
		// keep its (ejected) slot across the gap so the probe
		// readmission path runs. The kill→respawn window is wall-clock
		// (detection sweep + spawn), not a beacon multiple, so the TTL
		// gets an absolute floor even under very fast test beacons.
		poolTTL := 20 * cfg.BeaconInterval
		if poolTTL < 2*time.Second {
			poolTTL = 2 * time.Second
		}
		eg, err := edge.New(edge.Config{
			Name:        "edge",
			Node:        s.placeOrErr(),
			Net:         s.Net,
			Listen:      cfg.EdgeListen,
			RetryBudget: cfg.EdgeRetryBudget,
			Pool: edge.PoolConfig{
				TTL:        poolTTL,
				ProbeAfter: 2 * cfg.BeaconInterval,
				Seed:       cfg.Seed,
			},
			RequestTimeout: cfg.RequestDeadline,
		})
		if err != nil {
			s.cleanup()
			return nil, err
		}
		if _, err := s.Cluster.Spawn(eg.Addr().Node, eg); err != nil {
			_ = eg.Close()
			s.cleanup()
			return nil, err
		}
		s.mu.Lock()
		s.edge = eg
		s.mu.Unlock()
	}
	return s, nil
}

// newCacheService builds one cache partition process with its
// supervision heartbeat wired to the control group, so whichever
// process hosts the manager carries the cache's process-peer duty.
func (s *System) newCacheService(name, node string) *vcache.Service {
	svc := vcache.NewService(name, s.Net, node, vcache.NewPartition(s.cfg.CacheBudget, nil))
	svc.ServiceTime = s.cfg.CacheServiceTime
	svc.HeartbeatGroup = stub.GroupControl
	svc.HeartbeatInterval = s.cfg.ReportInterval
	return svc
}

func (s *System) placeOrErr() string {
	return s.Cluster.Place(false, nil)
}

func (s *System) cleanup() {
	s.Cluster.StopAll()
	s.mu.Lock()
	adapters := make([]*edge.FEServer, 0, len(s.feHTTP))
	for _, a := range s.feHTTP {
		adapters = append(adapters, a)
	}
	eg := s.edge
	s.mu.Unlock()
	for _, a := range adapters {
		_ = a.Close()
	}
	if eg != nil {
		_ = eg.Close()
	}
	if s.Bridge != nil {
		_ = s.Bridge.Close()
	}
	s.Net.Close()
	if s.DB != nil {
		s.DB.Close()
	}
	if s.tmpDir != "" {
		os.RemoveAll(s.tmpDir)
	}
}

// Stop shuts the whole system down.
func (s *System) Stop() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	s.cleanup()
}

// spawnManagerReplica starts (or restarts) one manager replica. Each
// spawn generation gets a distinct process name so a lingering old
// instance can never collide with its replacement; initialEpoch seeds
// the replica's election epoch so a respawn re-enters the cluster
// already knowing roughly where the epoch stands (its first claim
// outbids the epoch it died holding instead of a long-deposed one).
func (s *System) spawnManagerReplica(rank int, standby bool, initialEpoch uint64) error {
	s.mu.Lock()
	var rep *mgrReplica
	for _, r := range s.mgrs {
		if r.rank == rank {
			rep = r
			break
		}
	}
	if rep == nil {
		rep = &mgrReplica{rank: rank}
		s.mgrs = append(s.mgrs, rep)
	}
	rep.gen++
	name := "manager"
	if rank > 0 {
		name = fmt.Sprintf("manager-r%d", rank)
	}
	if rep.gen > 1 {
		name = fmt.Sprintf("%s.%d", name, rep.gen)
	}
	s.mu.Unlock()
	node := s.placeOrErr()
	if node == "" {
		return fmt.Errorf("core: no node for manager")
	}
	m := manager.New(manager.Config{
		Name:           name,
		Node:           node,
		Net:            s.Net,
		Policy:         s.cfg.Policy,
		BeaconInterval: s.cfg.BeaconInterval,
		WorkerTTL:      5 * s.cfg.ReportInterval,
		FETTL:          6 * s.cfg.BeaconInterval,
		CacheTTL:       s.cfg.CacheSuperviseTTL,
		Prefix:         s.cfg.NodePrefix,
		CmdTimeout:     s.cfg.CallTimeout,
		Spawner:        &spawner{s: s},
		Rank:           rank,
		Standby:        standby,
		InitialEpoch:   initialEpoch,
	})
	h, err := s.Cluster.Spawn(node, m)
	if err != nil {
		return err
	}
	s.mu.Lock()
	rep.m = m
	rep.h = h
	s.mu.Unlock()
	return nil
}

// Manager returns the acting primary manager replica (an alias for
// PrimaryManager — existing callers predate replication and always
// mean "the manager that is actually running the cluster").
func (s *System) Manager() *manager.Manager { return s.PrimaryManager() }

// PrimaryManager returns the local replica currently acting as
// primary — the newest-epoch one if several claim it (a deposed
// replica that has not yet heard the winner's beacon may still say
// yes). With no acting primary it returns the newest-epoch replica,
// so callers polling "who won?" always have a candidate to watch.
func (s *System) PrimaryManager() *manager.Manager {
	// Snapshot the manager pointers under the lock — the replica slots
	// themselves are rewritten by respawns.
	s.mu.Lock()
	ms := make([]*manager.Manager, 0, len(s.mgrs))
	for _, r := range s.mgrs {
		if r.m != nil {
			ms = append(ms, r.m)
		}
	}
	s.mu.Unlock()
	var best, fallback *manager.Manager
	var bestEpoch, fbEpoch uint64
	for _, m := range ms {
		e := m.Epoch()
		if fallback == nil || e > fbEpoch {
			fallback, fbEpoch = m, e
		}
		if m.IsPrimary() && (best == nil || e > bestEpoch) {
			best, bestEpoch = m, e
		}
	}
	if best != nil {
		return best
	}
	return fallback
}

// ManagerReplicas returns every locally hosted manager replica in
// rank order (standbys included), for tests and operator tooling.
func (s *System) ManagerReplicas() []*manager.Manager {
	s.mu.Lock()
	type slot struct {
		rank int
		m    *manager.Manager
	}
	slots := make([]slot, 0, len(s.mgrs))
	for _, r := range s.mgrs {
		if r.m != nil {
			slots = append(slots, slot{r.rank, r.m})
		}
	}
	s.mu.Unlock()
	sort.Slice(slots, func(i, j int) bool { return slots[i].rank < slots[j].rank })
	out := make([]*manager.Manager, 0, len(slots))
	for _, sl := range slots {
		out = append(out, sl.m)
	}
	return out
}

// Supervisor returns this process's supervisor daemon.
func (s *System) Supervisor() *supervisor.Supervisor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sup
}

// spawnSupervisor starts (or restarts) the per-process supervisor. The
// address is stable across respawns — a restarted daemon reclaims its
// name, and managers keep delegating to the same place.
func (s *System) spawnSupervisor() error {
	if s.stopped.Load() {
		return fmt.Errorf("core: system stopped")
	}
	s.mu.Lock()
	node := s.supNode
	s.mu.Unlock()
	// If the daemon's node died, it moves; the fresh hello re-teaches
	// every manager the new address (the table is address-keyed).
	for _, n := range s.Cluster.Nodes() {
		if n.ID == node && !n.Alive {
			node = ""
			break
		}
	}
	if node == "" {
		node = s.placeOrErr()
		if node == "" {
			return fmt.Errorf("core: no node for supervisor")
		}
	}
	sup := supervisor.New(supervisor.Config{
		Node:              node,
		Net:               s.Net,
		Prefix:            s.cfg.NodePrefix,
		Host:              supHost{s: s},
		HeartbeatGroup:    stub.GroupControl,
		HeartbeatInterval: s.cfg.ReportInterval,
		DisableKind:       stub.MsgDisable,
		EnableKind:        stub.MsgEnable,
		// The supervisor cannot import the stub package (stub's wire
		// codec encodes supervisor commands), so the beacon-epoch
		// extraction it fences stale commands with is injected here.
		EpochFrom: func(kind string, body any) (uint64, bool) {
			if kind != stub.MsgBeacon {
				return 0, false
			}
			if b, ok := body.(stub.Beacon); ok {
				return b.Epoch, true
			}
			return 0, false
		},
	})
	if _, err := s.Cluster.Spawn(node, sup); err != nil {
		return err
	}
	s.mu.Lock()
	s.sup = sup
	s.supNode = node
	s.mu.Unlock()
	return nil
}

// restartManager is the front ends' process-peer action ("the front
// end detects and restarts a crashed manager", §3.1.3). A cooldown
// keeps multiple front ends from racing to restart it. In a
// multi-process deployment only the process hosting the manager role
// may act — a front-end-only process inferring silence must not spawn
// a second manager of its own.
//
// With replication, the election — not this watchdog — owns primacy:
// dead replicas are respawned as standbys so the replica set stays at
// full strength, and a surviving standby's takeover is what restores
// beacons. Only when every local replica is dead does the first
// respawn boot as an immediate primary, seeded past the local epoch
// high-water mark so its beacons outbid every stub's and supervisor's
// memory of the dead regime.
func (s *System) restartManager() {
	if s.stopped.Load() || !s.cfg.Roles.manager() {
		return
	}
	s.mu.Lock()
	if time.Since(s.lastMgrFix) < 2*s.cfg.BeaconInterval {
		s.mu.Unlock()
		return
	}
	s.lastMgrFix = time.Now()
	type slot struct {
		rank int
		m    *manager.Manager
		h    *cluster.Handle
	}
	reps := make([]slot, 0, len(s.mgrs))
	for _, r := range s.mgrs {
		reps = append(reps, slot{r.rank, r.m, r.h})
	}
	s.mu.Unlock()

	var hw uint64
	var dead []slot
	live := 0
	for _, r := range reps {
		if r.m != nil {
			// Readable even after the replica's goroutine died: the
			// epoch a killed primary last held is exactly what its
			// replacement's first claim must outbid.
			if e := r.m.Epoch(); e > hw {
				hw = e
			}
		}
		if r.h == nil {
			continue
		}
		select {
		case <-r.h.Done():
			dead = append(dead, r)
		default:
			live++
		}
	}
	s.mu.Lock()
	if hw > s.mgrEpochHW {
		s.mgrEpochHW = hw
	}
	hw = s.mgrEpochHW
	s.mu.Unlock()
	if len(dead) == 0 {
		return // silence without a corpse: the election owns this
	}
	for i, r := range dead {
		standby := live > 0 || i > 0
		_ = s.spawnManagerReplica(r.rank, standby, hw)
	}
}

// spawnFrontEnd builds and spawns one front end.
func (s *System) spawnFrontEnd(name, node string) error {
	if node == "" {
		return fmt.Errorf("core: no node for %s", name)
	}
	// Remote congestion sheds upstream: each FE's admission estimator
	// samples the bridge's backpressure counter, so a stalled peer
	// process shows up as saturation here instead of as silent frame
	// loss.
	var backpressureFn func() uint64
	if s.Bridge != nil {
		br := s.Bridge
		backpressureFn = func() uint64 { return br.Stats().Backpressure }
	}
	// Bind the replica's HTTP adapter before building the front end:
	// the bound address goes into the config so the very first
	// heartbeat already advertises it. A respawn rebinds (fresh port);
	// the edge's pool entry is keyed by SAN address, so the new
	// address refreshes the existing slot and the half-open probe
	// readmits it.
	var fesrv *edge.FEServer
	if s.cfg.FEHTTP != "" {
		var err error
		fesrv, err = edge.NewFEServer(s.cfg.FEHTTP)
		if err != nil {
			return err
		}
	}
	httpAddr := ""
	if fesrv != nil {
		httpAddr = fesrv.Addr()
	}
	fe := frontend.New(frontend.Config{
		Name:              name,
		Node:              node,
		Net:               s.Net,
		Rules:             s.cfg.Rules,
		Profiles:          s.Profile,
		Origin:            s.cfg.Origin,
		CacheNodes:        s.CacheNodes(),
		Threads:           s.cfg.FEThreads,
		CacheTTL:          s.cfg.CacheTTL,
		CacheTimeout:      s.cfg.CacheTimeout,
		HeartbeatInterval: s.cfg.BeaconInterval,
		HTTPAddr:          httpAddr,
		MinDistillSize:    s.cfg.MinDistillSize,
		RequestDeadline:   s.cfg.RequestDeadline,
		MaxInflight:       s.cfg.FEMaxInflight,
		QueueHighWater:    s.cfg.FEQueueHighWater,
		BackpressureFn:    backpressureFn,
		ManagerStub: stub.ManagerStubConfig{
			Seed:             s.cfg.Seed,
			CallTimeout:      s.cfg.CallTimeout,
			UseDelta:         !s.cfg.DisableDeltaEstimator,
			WorkerTTL:        20 * s.cfg.BeaconInterval,
			ManagerTimeout:   5 * s.cfg.BeaconInterval,
			OnManagerSilence: s.restartManager,
		},
	})
	if _, err := s.Cluster.Spawn(node, fe); err != nil {
		if fesrv != nil {
			_ = fesrv.Close()
		}
		return err
	}
	if fesrv != nil {
		fesrv.Serve(fe)
	}
	s.mu.Lock()
	if old := s.feHTTP[name]; old != nil {
		// Respawn: retire the dead instance's adapter.
		_ = old.Close()
	}
	if fesrv != nil {
		s.feHTTP[name] = fesrv
	} else {
		delete(s.feHTTP, name)
	}
	s.fes[name] = fe
	s.feNodes[name] = node
	if !contains(s.feOrder, name) {
		s.feOrder = append(s.feOrder, name)
	}
	s.mu.Unlock()
	return nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Edge returns the front-door proxy this process hosts (nil when the
// edge role or EdgeListen is unset).
func (s *System) Edge() *edge.Edge {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.edge
}

// FrontEndHTTPAddr returns the HTTP adapter address of a local front
// end ("" when FEHTTP is unset or the name is unknown).
func (s *System) FrontEndHTTPAddr(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.feHTTP[name]; a != nil {
		return a.Addr()
	}
	return ""
}

// FrontEnds returns the live front-end instances in creation order.
func (s *System) FrontEnds() []*frontend.FrontEnd {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*frontend.FrontEnd, 0, len(s.feOrder))
	for _, name := range s.feOrder {
		if fe, ok := s.fes[name]; ok {
			out = append(out, fe)
		}
	}
	return out
}

// WaitReady blocks until the system is serviceable. In a
// single-process deployment that means every front end's receive loop
// is running and has heard a manager beacon, and the initially
// configured workers have registered with the manager. A process
// hosting only a subset of roles checks what it can observe: a
// local manager counts registrations (from this process and its
// peers alike); front ends without a local manager instead wait until
// their stub's beacon cache holds every configured worker class at
// full strength — the cluster-wide view a beacon carries. It returns
// false on timeout.
func (s *System) WaitReady(timeout time.Duration) bool {
	want := 0
	for _, n := range s.cfg.Workers {
		want += n
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ready := true
		if s.cfg.Roles.manager() {
			// The primary's (or, in a standby-only process, the beacon
			// mirror's) worker table carries the cluster-wide count.
			if m := s.PrimaryManager(); m == nil || m.Stats().Workers < want {
				ready = false
			}
		}
		if s.cfg.Roles.frontEnds() {
			fes := s.FrontEnds()
			if len(fes) == 0 {
				ready = false
			}
			for _, fe := range fes {
				if !fe.Running() || fe.ManagerStub().Stats().BeaconsSeen == 0 {
					ready = false
					break
				}
				if !s.cfg.Roles.manager() {
					// The manager is remote: readiness is judged from
					// the worker inventory its beacons deliver.
					for class, n := range s.cfg.Workers {
						if len(fe.ManagerStub().Workers(class)) < n {
							ready = false
							break
						}
					}
				}
			}
		}
		if eg := s.Edge(); eg != nil {
			// The front door is serviceable once its listener is live
			// and it has heard at least one routable FE heartbeat.
			if !eg.Running() || eg.PoolStats().Healthy < 1 {
				ready = false
			}
		}
		if ready {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// Request submits a client request, round-robining across live front
// ends — the in-process analogue of the paper's client-side load
// balancing (JavaScript auto-config / round-robin DNS, §3.1.2).
func (s *System) Request(ctx context.Context, url, user string) (frontend.Response, error) {
	return s.Do(ctx, frontend.Request{URL: url, User: user})
}

// Do is Request for a fully specified frontend.Request — what the HTTP
// adapter (edge.FetchHandler) calls.
func (s *System) Do(ctx context.Context, req frontend.Request) (frontend.Response, error) {
	fes := s.FrontEnds()
	if len(fes) == 0 {
		return frontend.Response{}, fmt.Errorf("core: no front ends")
	}
	start := int(s.rr.Add(1))
	var lastErr error
	for i := 0; i < len(fes); i++ {
		fe := fes[(start+i)%len(fes)]
		if !fe.Running() {
			continue // masks transient front end failures
		}
		resp, err := fe.Do(ctx, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("core: no running front end")
	}
	return frontend.Response{}, lastErr
}

// SetProfile writes one user preference through to the ACID store.
func (s *System) SetProfile(user, key, val string) error {
	return s.Profile.Set(user, key, val)
}

// spawner implements manager.Spawner against the live cluster.
type spawner struct{ s *System }

// SpawnWorker places a fresh worker stub on the least-loaded eligible
// node.
func (sp *spawner) SpawnWorker(class string, overflow bool) (stub.WorkerInfo, error) {
	s := sp.s
	w, err := s.cfg.Registry.New(class)
	if err != nil {
		return stub.WorkerInfo{}, err
	}
	var node string
	if overflow {
		node = s.Cluster.Place(true, func(n cluster.Node) bool { return n.Overflow })
	} else {
		node = s.Cluster.Place(false, func(n cluster.Node) bool {
			return len(n.Procs) < s.cfg.ProcsPerNode
		})
		if node == "" {
			// Dedicated pool exhausted: recruit overflow (§2.2.3).
			node = s.Cluster.Place(true, func(n cluster.Node) bool { return n.Overflow })
			overflow = node != ""
		}
	}
	if node == "" {
		return stub.WorkerInfo{}, fmt.Errorf("core: no capacity for worker class %s", class)
	}
	// Prefix-qualified like node names, so replicated worker roles
	// across processes never collide in the manager's id-keyed table.
	id := fmt.Sprintf("%s%s.%d", s.cfg.NodePrefix, class, s.workerSeq.Add(1))
	ws := stub.NewWorkerStub(id, node, w, s.Net, stub.WorkerConfig{
		ReportInterval: s.cfg.ReportInterval,
		Overflow:       overflow,
	})
	if _, err := s.Cluster.Spawn(node, ws); err != nil {
		return stub.WorkerInfo{}, err
	}
	s.mu.Lock()
	s.workerNodes[id] = node
	s.workerStubs[id] = ws
	s.mu.Unlock()
	return ws.Info(), nil
}

// ReapWorker stops a worker process.
func (sp *spawner) ReapWorker(id string) error {
	s := sp.s
	s.mu.Lock()
	node, ok := s.workerNodes[id]
	if ok {
		delete(s.workerNodes, id)
		delete(s.workerStubs, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown worker %s", id)
	}
	return s.Cluster.KillProcess(node, id)
}

// RestartFrontEnd is the manager's process-peer action. Restart means
// stop-then-start: if the silence was a false alarm (a live but slow
// front end), the old instance is killed first so the replacement can
// claim its name — the paper's watchers restart peers, they never try
// to coexist with them.
func (sp *spawner) RestartFrontEnd(name string) error {
	s := sp.s
	if s.stopped.Load() {
		return fmt.Errorf("core: system stopped")
	}
	s.mu.Lock()
	node := s.feNodes[name]
	s.mu.Unlock()
	if node == "" {
		return fmt.Errorf("core: unknown front end %s", name)
	}
	_ = s.Cluster.KillProcess(node, name) // usually already dead
	// If the node itself died, move the front end.
	for _, n := range s.Cluster.Nodes() {
		if n.ID == node && !n.Alive {
			node = s.placeOrErr()
			break
		}
	}
	return s.spawnFrontEnd(name, node)
}

// RestartCache is the manager's process-peer action for cache
// services: kill any lingering instance, then respawn the partition
// (empty — it is a cache) under the same name. The address is
// preserved when the node survives, so front ends re-absorb the
// partition with no reconfiguration; if the node died the service
// moves and the local front ends' clients are re-pointed.
func (sp *spawner) RestartCache(name string) error {
	s := sp.s
	if s.stopped.Load() {
		return fmt.Errorf("core: system stopped")
	}
	s.mu.Lock()
	addr, ok := s.cacheNodes[name]
	local := s.localCaches[name]
	s.mu.Unlock()
	if !ok || !local {
		// A heartbeat from a partition another process hosts: that
		// process's manager-peer (or supervisor) owns the restart.
		return fmt.Errorf("core: cache %s is not hosted here", name)
	}
	_ = s.Cluster.KillProcess(addr.Node, name) // usually already dead
	node := addr.Node
	for _, n := range s.Cluster.Nodes() {
		if n.ID == node && !n.Alive {
			node = s.placeOrErr()
			break
		}
	}
	if node == "" {
		return fmt.Errorf("core: no node for cache %s", name)
	}
	svc := s.newCacheService(name, node)
	if _, err := s.Cluster.Spawn(node, svc); err != nil {
		return err
	}
	if newAddr := svc.Addr(); newAddr != addr {
		s.mu.Lock()
		s.cacheNodes[name] = newAddr
		fes := make([]*frontend.FrontEnd, 0, len(s.fes))
		for _, fe := range s.fes {
			fes = append(fes, fe)
		}
		s.mu.Unlock()
		for _, fe := range fes {
			fe.Cache().RemoveNode(name)
			fe.Cache().AddNode(name, newAddr)
		}
	}
	return nil
}

// HasDedicatedCapacity reports whether any dedicated node has room.
func (sp *spawner) HasDedicatedCapacity() bool {
	s := sp.s
	node := s.Cluster.Place(false, func(n cluster.Node) bool {
		return len(n.Procs) < s.cfg.ProcsPerNode
	})
	return node != ""
}

// supHost adapts the System into the supervisor's lever on this
// process (supervisor.Host): the same restart duties the manager's
// spawner performs, now reachable from a manager in any process.
type supHost struct{ s *System }

func (h supHost) RestartFrontEnd(name string) error { return (&spawner{s: h.s}).RestartFrontEnd(name) }
func (h supHost) RestartCache(name string) error    { return (&spawner{s: h.s}).RestartCache(name) }
func (h supHost) RestartWorker(id string) error     { return h.s.restartWorker(id) }

func (h supHost) SpawnWorker(class string) error {
	sp := &spawner{s: h.s}
	_, err := sp.SpawnWorker(class, !sp.HasDedicatedCapacity())
	return err
}

func (h supHost) KillComponent(name string) error { return h.s.KillComponent(name) }

func (h supHost) ComponentAddr(name string) (san.Addr, bool) { return h.s.ComponentAddr(name) }

// restartWorker kills and respawns a worker under the same id and
// class — the supervisor's hot-upgrade restart. The stub's context
// cancellation deregisters it cleanly (a voluntary departure, so the
// manager spawns no replacement), and the fresh stub re-registers on
// the next beacon as the "upgraded binary".
func (s *System) restartWorker(id string) error {
	if s.stopped.Load() {
		return fmt.Errorf("core: system stopped")
	}
	s.mu.Lock()
	ws := s.workerStubs[id]
	node := s.workerNodes[id]
	s.mu.Unlock()
	if ws == nil {
		return fmt.Errorf("core: unknown worker %s", id)
	}
	info := ws.Info()
	w, err := s.cfg.Registry.New(info.Class)
	if err != nil {
		return err
	}
	_ = s.Cluster.KillProcess(node, id) // graceful: the stub deregisters on its way out
	for _, n := range s.Cluster.Nodes() {
		if n.ID == node && !n.Alive {
			node = s.placeOrErr()
			break
		}
	}
	if node == "" {
		return fmt.Errorf("core: no node for worker %s", id)
	}
	ws2 := stub.NewWorkerStub(id, node, w, s.Net, stub.WorkerConfig{
		ReportInterval: s.cfg.ReportInterval,
		Overflow:       info.Overflow,
	})
	if _, err := s.Cluster.Spawn(node, ws2); err != nil {
		return err
	}
	s.mu.Lock()
	s.workerNodes[id] = node
	s.workerStubs[id] = ws2
	s.mu.Unlock()
	return nil
}

// KillComponent crashes any locally hosted component by name — the
// supervisor's remote fault-injection op for multi-process chaos.
func (s *System) KillComponent(name string) error {
	s.mu.Lock()
	_, isWorker := s.workerStubs[name]
	_, isFE := s.fes[name]
	isCache := s.localCaches[name]
	s.mu.Unlock()
	switch {
	case isWorker:
		return s.KillWorker(name)
	case isCache:
		return s.KillCache(name)
	case isFE:
		return s.KillFrontEnd(name)
	}
	return fmt.Errorf("core: no component %s hosted here", name)
}

// ComponentAddr resolves a locally hosted component's SAN address.
func (s *System) ComponentAddr(name string) (san.Addr, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ws, ok := s.workerStubs[name]; ok {
		return ws.Addr(), true
	}
	if _, ok := s.fes[name]; ok {
		if node := s.feNodes[name]; node != "" {
			return san.Addr{Node: node, Proc: name}, true
		}
	}
	if s.localCaches[name] {
		return s.cacheNodes[name], true
	}
	for _, r := range s.mgrs {
		if r.m != nil && r.m.ID() == name {
			return r.m.Addr(), true
		}
	}
	return san.Addr{}, false
}

// KillWorker crashes a worker abruptly (fault injection for tests and
// experiments): its endpoint drops off the SAN before the process is
// cancelled, so no deregistration reaches the manager — the loss must
// be inferred by timeout, exactly as for a real crash (§3.1.3).
func (s *System) KillWorker(id string) error {
	s.mu.Lock()
	node, ok := s.workerNodes[id]
	if ok {
		delete(s.workerNodes, id)
		delete(s.workerStubs, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown worker %s", id)
	}
	s.Net.Drop(san.Addr{Node: node, Proc: id})
	// The endpoint closure usually makes the stub exit on its own;
	// a racing "already gone" from the cluster is success here.
	if err := s.Cluster.KillProcess(node, id); err != nil && !s.stopped.Load() {
		return nil
	}
	return nil
}

// KillFrontEnd crashes a front end process.
func (s *System) KillFrontEnd(name string) error {
	s.mu.Lock()
	node := s.feNodes[name]
	s.mu.Unlock()
	if node == "" {
		return fmt.Errorf("core: unknown front end %s", name)
	}
	return s.Cluster.KillProcess(node, name)
}

// KillManager crashes the acting primary manager replica (fault
// injection). Standby replicas are left running — surviving the
// primary's death is their whole job; the election promotes one
// within ElectionTimeout plus its rank stagger.
func (s *System) KillManager() error {
	type slot struct {
		m *manager.Manager
		h *cluster.Handle
	}
	s.mu.Lock()
	reps := make([]slot, 0, len(s.mgrs))
	for _, r := range s.mgrs {
		if r.m != nil && r.h != nil {
			reps = append(reps, slot{r.m, r.h})
		}
	}
	s.mu.Unlock()
	var victim *slot
	var vEpoch uint64
	var anyLive *slot
	for i := range reps {
		r := &reps[i]
		select {
		case <-r.h.Done():
			continue
		default:
		}
		if anyLive == nil {
			anyLive = r
		}
		if e := r.m.Epoch(); r.m.IsPrimary() && (victim == nil || e > vEpoch) {
			victim, vEpoch = r, e
		}
	}
	if victim == nil {
		victim = anyLive // mid-election: kill any live replica
	}
	if victim == nil {
		return fmt.Errorf("core: no manager")
	}
	s.mu.Lock()
	if vEpoch > s.mgrEpochHW {
		s.mgrEpochHW = vEpoch
	}
	s.mu.Unlock()
	victim.h.Kill()
	return nil
}

// Workers returns the ids of currently tracked worker processes
// (spawned and not yet reaped/killed), sorted.
func (s *System) Workers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.workerNodes))
	for id := range s.workerNodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// WorkerStub returns the live stub for a tracked worker id (nil if
// unknown), giving chaos harnesses access to the per-worker fault
// injection knobs (InjectSlowdown, InjectHang).
func (s *System) WorkerStub(id string) *stub.WorkerStub {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workerStubs[id]
}

// WorkerNode returns the node hosting a tracked worker ("" if
// unknown).
func (s *System) WorkerNode(id string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workerNodes[id]
}

// FrontEndNode returns the node hosting a front end ("" if unknown).
func (s *System) FrontEndNode(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.feNodes[name]
}

// CacheNodes returns the cache partition addresses (local and
// remote).
func (s *System) CacheNodes() map[string]san.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]san.Addr, len(s.cacheNodes))
	for k, v := range s.cacheNodes {
		out[k] = v
	}
	return out
}

// Caches returns the names of cache partitions hosted by this
// process, sorted.
func (s *System) Caches() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.localCaches))
	for name := range s.localCaches {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// KillCache crashes a locally hosted cache service abruptly (fault
// injection): its endpoint drops off the SAN before the process is
// cancelled, so no goodbye traffic is sent — the manager must infer
// the loss from heartbeat silence, exactly as for a real crash.
func (s *System) KillCache(name string) error {
	s.mu.Lock()
	addr, ok := s.cacheNodes[name]
	local := s.localCaches[name]
	s.mu.Unlock()
	if !ok || !local {
		return fmt.Errorf("core: unknown local cache %s", name)
	}
	s.Net.Drop(addr)
	// The endpoint closure usually makes the service exit on its own;
	// racing "already gone" is success, as with KillWorker.
	_ = s.Cluster.KillProcess(addr.Node, name)
	return nil
}
