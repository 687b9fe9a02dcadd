// Package core is the off-the-shelf SNS platform (paper §2): it
// assembles the cluster, SAN, manager, front ends, cache partitions,
// monitor, and profile database into a running system, and wires the
// process-peer fault-tolerance loops (front ends restart the manager;
// the manager restarts front ends, caches and workers).
//
// Every hosted component — supervisor, cache partition, manager
// replica, monitor, worker, span reporter, front end, edge — is one
// entry in System's name-keyed component table (components.go). One
// start path places, builds, spawns and records an entry; Restart, Kill
// and Addr only resolve a name in that table. The table is the roster
// the supervisor advertises: every row — each configured worker slot
// included — is what the manager keeps running, and the supervisor's
// Host (this System) is the one lever it, cmd/node's /kill and the chaos
// harness pull, in this process or from another. A watcher "restarts a
// silent peer by name" (§3.1.3) whatever the peer is; only the workers
// the manager spawns on load are extras that come and go unnamed.
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
	"maps"
	"os"
	"slices"
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
// several processes of one cluster — their announcements are
// keyed by SAN address and worker ids are prefix-qualified, so
// same-named components in different processes never interleave in
// the manager's soft-state tables. The manager role replicates too:
// each hosting process runs Config.Managers replicas at election ranks
// from Config.ManagerRank, global rank 0 boots as the acting primary,
// and the epoch-stamped election in internal/manager moves the primacy
// when it goes silent.
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
// spans real OS processes. A non-empty Listen enables it. These two
// are all a deployment chooses: the bridge's id is NodePrefix, the
// node names this process owns, and its batching, chunking, queue
// bound and timeouts are constants of the transport package.
type TransportConfig struct {
	// Listen is the bridge's socket: "tcp:host:port" or "unix:/path"
	// (port 0 picks a free port).
	Listen string
	// Join lists seed bridge addresses; peer gossip completes the
	// mesh from any one of them.
	Join []string
}

// Config describes a deployment.
type Config struct {
	Seed int64

	// Roles selects the components this process hosts (zero = all).
	Roles Roles

	// NodePrefix prefixes every cluster node name ("node0" becomes
	// "<prefix>node0"), keeping SAN addresses disjoint when several
	// OS processes join one logical SAN. Required (and must be
	// unique) per process in multi-process mode. It is the bridge's id
	// too: a peer sends here every node this prefix matches longest.
	NodePrefix string

	// Transport, when Listen is set, bridges this process's SAN to
	// its peers over sockets.
	Transport TransportConfig

	// RemoteCaches names partitions hosted by peers that WaitReady waits
	// for every local front end to hear announce; it routes nothing. It is
	// bench/'s readiness expectation, and goes with ROADMAP item 20.
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
	CacheParts  int // partitions hosted here, with the cache role (default 2)
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
	Policy manager.Policy
	// BeaconInterval is the system's one soft-state interval (default
	// san.DefaultBeacon): it is the SAN's (san.WithBeacon), every
	// announcer's period, and the unit of every silence timeout — the
	// multiples are internal/softstate's table. No component takes a
	// period or TTL of its own but CacheSuperviseTTL.
	BeaconInterval time.Duration
	CallTimeout    time.Duration
	CacheTTL       time.Duration
	CacheTimeout   time.Duration // per-lookup vcache bound (0 = client default)
	MinDistillSize int
	// CacheSuperviseTTL is how long the manager tolerates a cache's
	// silence before its process-peer duty restarts the
	// service (default softstate.CacheTTL beats). Keep it comfortably above
	// the longest network partition a deployment should ride out —
	// restarting a merely-partitioned cache is safe (the content is
	// discardable) but churns.
	CacheSuperviseTTL time.Duration

	// Overload robustness (zero values leave each check off or at the
	// frontend package's own defaults).

	// RequestDeadline is the end-to-end budget stamped onto requests
	// that arrive without a context deadline; it propagates through
	// dispatch so every hop drops expired work. Zero = no deadline.
	RequestDeadline time.Duration
	// FEMaxInflight bounds each front end's admitted requests
	// (0 = frontend default, 320; negative disables).
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
	// FEHTTP, when non-empty, binds an HTTP listener (edge.FEServer) on
	// this host for every local front end. The edge does not use it: it
	// is bench/'s direct front-end probe, and goes with ROADMAP item 20.
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
	if c.CallTimeout <= 0 {
		c.CallTimeout = stub.DefaultCallTimeout
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

	mu    sync.Mutex
	table map[string]*component // every hosted component, by name

	workerSeq atomic.Int64
	rr        atomic.Uint64
	tmpDir    string
	stopped   atomic.Bool
	started   time.Time
	readyOnce sync.Once // publishes core.ready_ms
}

// nodeName/ovfName build prefix-qualified cluster node names — unique
// across processes when each supplies a distinct NodePrefix.
func nodeName(prefix string, i int) string { return fmt.Sprintf("%snode%d", prefix, i) }
func ovfName(prefix string, i int) string  { return fmt.Sprintf("%sovf%d", prefix, i) }

func cacheName(i int) string { return fmt.Sprintf("cache%d", i) }

// CacheAddrs computes where the cache partitions of a process started
// with the given prefix and topology are first placed: cache i on node i
// (mod dedicated). It is placement only — front ends route by the
// partitions' announcements — and bench/ names the partitions it waits
// for with it.
func CacheAddrs(nodePrefix string, cacheParts, dedicatedNodes int) map[string]san.Addr {
	out := make(map[string]san.Addr, cacheParts)
	for i := 0; i < cacheParts; i++ {
		out[cacheName(i)] = san.Addr{Node: nodeName(nodePrefix, i%dedicatedNodes), Proc: cacheName(i)}
	}
	return out
}

// Start builds and boots a system.
func Start(cfg Config) (*System, error) {
	s := &System{cfg: cfg.withDefaults(), table: make(map[string]*component), started: time.Now()}
	if err := s.boot(); err != nil {
		s.cleanup()
		return nil, err
	}
	return s, nil
}

// boot assembles the substrate (SAN, bridge, nodes, profile store) and
// then starts the role-ordered component list. Any error aborts; Start
// tears down whatever was built.
func (s *System) boot() error {
	cfg := s.cfg
	// Every message body crosses the SAN as the bytes of its kind's
	// layout, in one process or many, as on every network. Deliveries decode views:
	// []byte bodies alias pooled wire buffers, and every consumer in this
	// tree honors the Lease/Release contract.
	s.Net = san.NewNetwork(cfg.Seed, san.WithBeacon(cfg.BeaconInterval))
	s.configureObs()
	if cfg.Transport.Listen != "" {
		br, err := transport.New(transport.Config{
			Net:    s.Net,
			Listen: cfg.Transport.Listen,
			Join:   cfg.Transport.Join,
			ID:     cfg.NodePrefix, // peers route every node it prefixes here
		})
		if err != nil {
			return err
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
	s.Cluster.OnExit(s.onExit)

	// ACID island: the profile database.
	dir := cfg.ProfileDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "sns-profiles-*")
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		s.tmpDir = tmp
		dir = tmp
	}
	db, err := profiledb.Open(dir)
	if err != nil {
		return err
	}
	s.DB = db
	s.Profile = profiledb.NewReadCache(db)

	if s.cfg.Origin == nil {
		s.cfg.Origin = origin.NewSimulated(cfg.Seed)
	}

	// The start list, in dependency order. Every process gets a
	// supervisor, whatever its roles, so the manager's process-peer
	// duties reach into it wherever the manager itself lives. Caches
	// precede the front ends, which hear them announce.
	boot := []*component{s.supervisorComponent()}
	if cfg.Roles.caches() {
		addrs := CacheAddrs(cfg.NodePrefix, cfg.CacheParts, cfg.DedicatedNodes)
		for i := 0; i < cfg.CacheParts; i++ {
			boot = append(boot, s.cacheComponent(cacheName(i), addrs[cacheName(i)].Node))
		}
	}
	if cfg.Roles.manager() {
		for i := 0; i < cfg.Managers; i++ {
			boot = append(boot, s.managerComponent(cfg.ManagerRank+i))
		}
	}
	if cfg.Roles.monitor() {
		boot = append(boot, s.monitorComponent())
	}
	if cfg.Roles.workers() {
		for class, n := range cfg.Workers {
			for i := 0; i < n; i++ {
				boot = append(boot, s.workerComponent(class, false))
			}
		}
	}
	boot = append(boot, s.reporterComponent())
	if cfg.Roles.frontEnds() {
		for i := 0; i < cfg.FrontEnds; i++ {
			boot = append(boot, s.frontEndComponent(fmt.Sprintf("fe%d", i)))
		}
	}
	if cfg.EdgeListen != "" && cfg.Roles.edge() {
		boot = append(boot, s.edgeComponent())
	}
	for _, e := range boot {
		if err := s.start(e, false); err != nil {
			return err
		}
	}
	return nil
}

// cleanup tears down whatever boot managed to build.
func (s *System) cleanup() {
	if s.Cluster != nil {
		s.Cluster.StopAll()
	}
	for _, v := range s.snapshot("") {
		closeProc(v.proc) // listeners outlive their process's Run loop
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

// Manager returns the local replica currently acting as primary — the
// newest-epoch one if several claim it (a deposed replica that has not
// yet heard the winner's beacon may still say yes). With no acting
// primary it returns the newest-epoch replica, so callers polling "who
// won?" always have a candidate to watch.
func (s *System) Manager() *manager.Manager {
	_, m := s.pickManager(false)
	return m
}

// pickManager applies Manager's rule over the manager entries,
// optionally skipping replicas whose process has exited.
func (s *System) pickManager(liveOnly bool) (name string, m *manager.Manager) {
	var epoch uint64
	primary := false
	for _, v := range s.snapshot(KindManager) {
		if liveOnly && !v.live {
			continue
		}
		// Epoch and IsPrimary take the manager's lock, so they are read
		// off the snapshot, never under s.mu.
		cand := v.proc.(*manager.Manager)
		e, p := cand.Epoch(), cand.IsPrimary()
		if m == nil || (p && !primary) || (p == primary && e > epoch) {
			name, m, epoch, primary = v.e.name, cand, e, p
		}
	}
	return name, m
}

// ManagerReplicas returns every locally hosted manager replica in name
// (so, below ten replicas, rank) order, standbys included — for tests
// and operator tooling.
func (s *System) ManagerReplicas() []*manager.Manager {
	views := s.snapshot(KindManager)
	out := make([]*manager.Manager, len(views))
	for i, v := range views {
		out[i] = v.proc.(*manager.Manager)
	}
	return out
}

// KillManager crashes the acting primary manager replica (fault
// injection), or any live replica mid-election. Standbys are left
// running — surviving the primary's death is their whole job.
func (s *System) KillManager() error {
	name, m := s.pickManager(true)
	if m == nil {
		return fmt.Errorf("core: no manager")
	}
	return s.Kill(name)
}

// restartManager is the front ends' process-peer action ("the front
// end detects and restarts a crashed manager", §3.1.3). It acts on the
// table's manager entries only — a front-end-only process inferring
// silence has none, and must not spawn a manager of its own — and only
// on replicas whose process has exited: silence without a corpse is the
// election's business. A live replica is not even locked: its lock may
// be held by a Kill waiting for it to exit while it, in turn, waits in
// Restart for the very front end that is calling here.
func (s *System) restartManager() {
	for _, v := range s.snapshot(KindManager) {
		if !v.live {
			_ = s.start(v.e, true)
		}
	}
}

// Supervisor returns this process's supervisor daemon.
func (s *System) Supervisor() *supervisor.Supervisor {
	sup, _ := s.proc("sup").(*supervisor.Supervisor)
	return sup
}

// Edge returns the front-door proxy this process hosts (nil when the
// edge role or EdgeListen is unset).
func (s *System) Edge() *edge.Edge {
	eg, _ := s.proc("edge").(*edge.Edge)
	return eg
}

// FrontEndHTTPAddr returns the HTTP listener address of a local front
// end ("" when FEHTTP is unset or the name is unknown). Only bench/
// reads it; it goes with ROADMAP item 20.
func (s *System) FrontEndHTTPAddr(name string) string {
	if fe, ok := s.proc(name).(*feProc); ok && fe.http != nil {
		return fe.http.Addr()
	}
	return ""
}

// FrontEnds returns the current instance of every registered front
// end in name order, running or not (Do and WaitReady check Running
// themselves).
func (s *System) FrontEnds() []*frontend.FrontEnd {
	views := s.snapshot(KindFrontEnd)
	out := make([]*frontend.FrontEnd, len(views))
	for i, v := range views {
		out[i] = v.proc.(*feProc).FrontEnd
	}
	return out
}

// Workers returns the ids of the live worker processes, sorted.
func (s *System) Workers() []string { return s.Names(KindWorker) }

// WorkerStub returns the live stub for a tracked worker id (nil if
// unknown), giving chaos harnesses access to the per-worker fault
// injection knobs (InjectSlowdown, InjectHang).
func (s *System) WorkerStub(id string) *stub.WorkerStub {
	ws, _ := s.proc(id).(*stub.WorkerStub)
	return ws
}

// CacheNodes returns the addresses of the cache partitions hosted here.
func (s *System) CacheNodes() map[string]san.Addr {
	out := make(map[string]san.Addr)
	for _, v := range s.snapshot(KindCache) {
		out[v.e.name] = v.proc.Addr()
	}
	return out
}

// WaitReady blocks until the system is serviceable, judged from what
// this process hosts. A local manager (the primary or, in a
// standby-only process, its beacon mirror) must count every configured
// worker registered, from this process and its peers alike. Every
// configured front end must be running, must have heard a manager
// beacon, and its stub's beacon cache must hold every configured worker
// class at full strength — the cluster-wide view a beacon carries — so
// a request needs no cold-start spawn; its ring must hold a partition,
// and every one hosted here or named in Config.RemoteCaches, each heard
// announcing itself. The edge, if hosted, must be listening with at least one routable front end. Ready is repairable: a
// process hosting the primary waits until it has heard this process's
// supervisor, any other until its supervisor has seen a beacon. The first
// success is published as core.ready_ms (since Start); false on timeout.
func (s *System) WaitReady(timeout time.Duration) bool {
	want := 0
	for _, n := range s.cfg.Workers {
		want += n
	}
	caches := slices.AppendSeq(s.Names(KindCache), maps.Keys(s.cfg.RemoteCaches))
	ready := func() bool {
		m, sup := s.Manager(), s.Supervisor()
		if m != nil && m.IsPrimary() {
			if own, ok := m.SupervisorFor(sup.Addr().Node); !ok || own.Addr != sup.Addr() {
				return false
			}
		} else if sup.Epoch() == 0 {
			return false
		}
		if s.cfg.Roles.manager() && (m == nil || m.Stats().Workers < want) {
			return false
		}
		if s.cfg.Roles.frontEnds() {
			fes := s.FrontEnds()
			if len(fes) < s.cfg.FrontEnds {
				return false
			}
			for _, fe := range fes {
				if !fe.Running() || fe.ManagerStub().Stats().BeaconsSeen == 0 {
					return false
				}
				for class, n := range s.cfg.Workers {
					if len(fe.ManagerStub().Workers(class)) < n {
						return false
					}
				}
				ring := fe.Cache().Nodes()
				if len(ring) == 0 || slices.ContainsFunc(caches, func(c string) bool { return !slices.Contains(ring, c) }) {
					return false
				}
			}
		}
		eg := s.Edge()
		return eg == nil || eg.Running() && eg.PoolStats().Healthy >= 1
	}
	for deadline := time.Now().Add(timeout); ; time.Sleep(time.Millisecond) {
		if ready() {
			s.readyOnce.Do(func() { s.Registry().Gauge("core.ready_ms").Set(float64(time.Since(s.started).Microseconds()) / 1000) })
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
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
