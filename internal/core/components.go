package core

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/cluster"
	"repro/internal/edge"
	"repro/internal/frontend"
	"repro/internal/manager"
	"repro/internal/monitor"
	"repro/internal/san"
	"repro/internal/softstate"
	"repro/internal/stub"
	"repro/internal/supervisor"
	"repro/internal/vcache"
)

// Kind names a clone set: the components that come in several
// instances and are listed by kind. The singletons (sup, monitor,
// obsrep, edge) are addressed by name alone and carry none.
type Kind string

const (
	KindCache    Kind = supervisor.KindCache
	KindManager  Kind = supervisor.KindManager
	KindWorker   Kind = supervisor.KindWorker
	KindFrontEnd Kind = supervisor.KindFrontEnd
)

// process is what every hosted component already is: a cluster process
// with a SAN address.
type process interface {
	cluster.Process
	Addr() san.Addr
}

// component is one row of System's table. Everything above life is
// fixed at construction; node, h and proc are written by start alone
// (holding life and System.mu) and read under either.
type component struct {
	name string
	kind Kind
	// drop: an abrupt Kill detaches the SAN endpoint before cancelling
	// the process, so no goodbye is sent and peers must infer the loss
	// from silence, exactly as for a real crash (§3.1.3).
	drop bool
	// ephemeral: retired on exit, and with that gone from the roster. A
	// load-driven or cold-start worker is an extra nobody restarts; the
	// spawn rule starts another if load still asks for one.
	ephemeral bool
	// respawn: restarted by the exit observer itself — the supervisor
	// must not be the one component nobody supervises.
	respawn bool
	place   func(avoid string) string          // a node other than avoid, for a component free to move; nil = least-loaded dedicated
	cutOff  func(p process) bool               // optional: p runs where it cannot hear the manager, so a restart moves it
	build   func(node string) (process, error) // a fresh instance for node
	started func(old, cur process)             // optional hook after a start; old is nil the first time

	life sync.Mutex // serialises start/stop of this one component
	node string
	h    *cluster.Handle
	proc process
}

// view is a consistent copy of one entry's mutable state.
type view struct {
	e    *component
	node string
	proc process
	live bool
}

func exited(h *cluster.Handle) bool {
	select {
	case <-h.Done():
		return true
	default:
		return false
	}
}

// closeProc releases what a process holds beyond its Run loop (the
// edge's and the FE adapters' listeners).
func closeProc(p process) {
	if c, ok := p.(io.Closer); ok {
		_ = c.Close()
	}
}

// snapshot copies the entries of one kind ("" = all) in name order.
func (s *System) snapshot(kind Kind) []view {
	s.mu.Lock()
	out := make([]view, 0, len(s.table))
	for _, e := range s.table {
		if kind == "" || e.kind == kind {
			out = append(out, view{e, e.node, e.proc, !exited(e.h)})
		}
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b view) int { return cmp.Compare(a.e.name, b.e.name) })
	return out
}

func (s *System) lookup(name string) (view, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.table[name]
	if e == nil {
		return view{}, fmt.Errorf("core: no component %s hosted here", name)
	}
	return view{e, e.node, e.proc, !exited(e.h)}, nil
}

// proc returns the current instance of a named component (nil if
// unknown); the typed accessors assert it to what they expect.
func (s *System) proc(name string) process {
	v, _ := s.lookup(name)
	return v.proc
}

// Names lists the live components of one kind, sorted.
func (s *System) Names(kind Kind) []string {
	var out []string
	for _, v := range s.snapshot(kind) {
		if v.live {
			out = append(out, v.e.name)
		}
	}
	return out
}

// Roster lists every row of the table, alive or not (supervisor.Host):
// what this process is configured to run, advertised in the
// supervisor's hello for the primary manager to reconcile against.
func (s *System) Roster() []supervisor.Row {
	views := s.snapshot("")
	out := make([]supervisor.Row, len(views))
	for i, v := range views {
		out[i] = supervisor.Row{Name: v.e.name, Kind: string(v.e.kind), Node: v.node}
	}
	return out
}

// Addr resolves a hosted component's SAN address.
func (s *System) Addr(name string) (san.Addr, bool) {
	if p := s.proc(name); p != nil {
		return p.Addr(), true
	}
	return san.Addr{}, false
}

// start is the one way a component comes up, first boot and restart
// alike. A restart is stop-then-start: if the silence that triggered it
// was a false alarm (a live but slow peer), the old instance goes first
// so the replacement can claim its name — the paper's watchers restart
// peers, they never coexist with them. A watchdog that only replaces
// corpses passes ifDead, so two of them racing cannot restart the
// winner's fresh instance. The component keeps its node, and so its
// address, unless the node died — or the instance being replaced is a
// worker still running where no beacon reaches it: cut off by a SAN
// partition, it comes back on a still-visible node if one has room
// (§2.2.4). An upgrade wave's restart, or a slow worker's, stays put.
func (s *System) start(e *component, ifDead bool) error {
	e.life.Lock()
	defer e.life.Unlock()
	if s.stopped.Load() {
		return fmt.Errorf("core: system stopped")
	}
	node := e.node
	if e.h != nil {
		if ifDead && !exited(e.h) {
			return nil
		}
		if e.cutOff != nil && !exited(e.h) && e.cutOff(e.proc) {
			if n := e.place(node); n != "" {
				node = n
			}
		}
		e.h.Stop() // usually already dead
	}
	if node == "" || !s.nodeAlive(node) {
		if e.place != nil {
			node = e.place(node)
		} else {
			node = s.Cluster.Place(false, nil)
		}
	}
	if node == "" {
		return fmt.Errorf("core: no node for %s", e.name)
	}
	p, err := e.build(node)
	if err != nil {
		return err
	}
	h, err := s.Cluster.Spawn(node, p)
	if err != nil {
		closeProc(p)
		return err
	}
	s.mu.Lock()
	old := e.proc
	e.node, e.h, e.proc = node, h, p
	s.table[e.name] = e // (re-)insert: the exit of the instance stopped above may have retired it
	s.mu.Unlock()
	if old != nil && old != p {
		closeProc(old)
	}
	if e.started != nil {
		e.started(old, p)
	}
	return nil
}

func (s *System) nodeAlive(id string) bool {
	for _, n := range s.Cluster.Nodes() {
		if n.ID == id {
			return n.Alive
		}
	}
	return false
}

// stop ends a component's current instance and waits for it to exit.
func (s *System) stop(name string, abrupt bool) error {
	v, err := s.lookup(name)
	if err != nil {
		return err
	}
	e := v.e
	e.life.Lock()
	defer e.life.Unlock()
	if abrupt && e.drop {
		s.Net.Drop(e.proc.Addr())
	}
	e.h.Stop()
	// Settle the table before returning; the cluster's own notice, a
	// moment later, finds nothing left to do.
	s.onExit(cluster.ExitInfo{Node: e.h.Node, Proc: e.h.Proc})
	return nil
}

// onExit is the cluster's exit observer: whatever ended a process —
// Kill, a panic the cluster caught, KillNode under it — the table hears
// of it here. It goes by the handle an entry holds now, so the exit of
// an instance that a same-name Restart already replaced changes nothing.
func (s *System) onExit(info cluster.ExitInfo) {
	s.mu.Lock()
	var gone *component
	for _, e := range s.table {
		if e.h.Node == info.Node && e.h.Proc == info.Proc && exited(e.h) {
			gone = e
			break
		}
	}
	if gone != nil && gone.ephemeral {
		delete(s.table, gone.name)
	}
	s.mu.Unlock()
	if gone != nil && gone.respawn && !s.stopped.Load() {
		go func() { _ = s.start(gone, true) }()
	}
}

// Restart is the process-peer action for every kind (supervisor.Host).
// An unknown name is typically an extra worker that died after the
// manager last heard its roster.
func (s *System) Restart(name string) error {
	v, err := s.lookup(name)
	if err != nil {
		return err
	}
	return s.start(v.e, false)
}

// Kill crashes any hosted component by name, without respawn — fault
// injection for tests, chaos schedules and cmd/node's /kill. Whoever
// watches the component brings it back.
func (s *System) Kill(name string) error { return s.stop(name, true) }

// ReapWorker stops an extra worker gracefully (supervisor.Host): the
// stub announces itself down on its way out and its row leaves the roster. A
// configured slot is not reaped: its row would stay, and be restarted.
func (s *System) ReapWorker(id string) error {
	if v, err := s.lookup(id); err == nil && !v.e.ephemeral {
		return fmt.Errorf("core: %s is a configured component, not an extra", id)
	}
	return s.stop(id, false)
}

// SpawnWorker starts an extra worker of class (supervisor.Host) on the
// least-loaded dedicated node with room, or on the overflow pool once
// the dedicated nodes are full (§2.2.3).
func (s *System) SpawnWorker(class string) error {
	return s.start(s.workerComponent(class, true), false)
}

// workerComponent is one worker of class: a configured slot (a roster
// row like fe0, restarted by name) or, ephemeral, an extra. Only an extra
// reports itself as overflow, which is what the reap rule retires.
func (s *System) workerComponent(class string, ephemeral bool) *component {
	// Prefix-qualified like node names, so replicated worker roles
	// across processes never collide in the manager's id-keyed table.
	id := fmt.Sprintf("%s%s.%d", s.cfg.NodePrefix, class, s.workerSeq.Add(1))
	overflow := false
	return &component{
		name: id, kind: KindWorker, drop: true, ephemeral: ephemeral,
		place: func(avoid string) string {
			node := s.Cluster.Place(false, func(n cluster.Node) bool {
				return n.ID != avoid && len(n.Procs) < s.cfg.ProcsPerNode
			})
			overflow = false
			if node == "" {
				node = s.Cluster.Place(true, func(n cluster.Node) bool { return n.ID != avoid && n.Overflow })
				overflow = ephemeral
			}
			return node
		},
		// The silence a standby takes for a dead primary.
		cutOff: func(p process) bool {
			return p.(*stub.WorkerStub).BeaconAge() > softstate.Takeover.Of(s.Net.Beacon())
		},
		// A Restart keeps id, class and pool: the stub announces itself
		// down as it stops and the fresh one up as it starts — a dead
		// slot coming back, or the hot-upgrade step ("the upgraded binary").
		build: func(node string) (process, error) {
			w, err := s.cfg.Registry.New(class)
			if err != nil {
				return nil, err
			}
			return stub.NewWorkerStub(id, node, w, s.Net, stub.WorkerConfig{Overflow: overflow}), nil
		},
	}
}

// supervisorComponent is the per-process supervisor daemon. Managers
// keep delegating to the same address across respawns; if its node died
// and it moves, the fresh hello re-teaches them (their table is
// address-keyed).
func (s *System) supervisorComponent() *component {
	return &component{
		name: "sup", respawn: true,
		build: func(node string) (process, error) {
			return supervisor.New(supervisor.Config{
				Node:   node,
				Net:    s.Net,
				Prefix: s.cfg.NodePrefix,
				Host:   s,
				// The supervisor cannot import the stub package (stub's wire
				// codec encodes supervisor commands), so the beacon-epoch
				// extraction it fences stale commands with is injected here.
				EpochFrom: func(kind string, body any) (uint64, bool) {
					if b, ok := body.(stub.Beacon); ok && kind == stub.MsgBeacon {
						return b.Epoch, true
					}
					return 0, false
				},
			}), nil
		},
	}
}

// cacheComponent is one cache partition, announcing itself on the control
// group so whichever process hosts the manager carries its process-peer
// duty. A restart brings it back empty — it is a cache — and front ends
// re-absorb it with no reconfiguration unless it had to move, in which
// case the local front ends' clients are re-pointed.
func (s *System) cacheComponent(name, node string) *component {
	return &component{
		name: name, kind: KindCache, drop: true, node: node,
		build: func(node string) (process, error) {
			return vcache.NewService(name, s.Net, node, vcache.NewPartition(s.cfg.CacheBudget, nil)), nil
		},
		started: func(old, cur process) {
			if old == nil || old.Addr() == cur.Addr() {
				return
			}
			for _, fe := range s.FrontEnds() {
				fe.Cache().RemoveNode(name)
				fe.Cache().AddNode(name, cur.Addr())
			}
		},
	}
}

// managerComponent is the manager replica of one election rank. Global
// rank 0 boots as the acting primary, everyone else standby; after that
// the election (internal/manager) owns primacy.
func (s *System) managerComponent(rank int) *component {
	name := "manager"
	if rank > 0 {
		name = fmt.Sprintf("manager-r%d", rank)
	}
	e := &component{name: name, kind: KindManager}
	gen := 0
	e.build = func(node string) (process, error) {
		// Each generation runs under a distinct process name: supervisors
		// answer a repeated (origin address, command id) from their
		// result cache, and a respawn's command ids start over.
		gen++
		procName, standby, epoch := name, rank != 0, uint64(0)
		if gen > 1 {
			procName = fmt.Sprintf("%s.%d", name, gen)
			standby, epoch = s.managerRejoin(e)
		}
		return manager.New(manager.Config{
			Name:         procName,
			Node:         node,
			Net:          s.Net,
			Policy:       s.cfg.Policy,
			CacheTTL:     s.cfg.CacheSuperviseTTL,
			CmdTimeout:   s.cfg.CallTimeout,
			Rank:         rank,
			Standby:      standby,
			InitialEpoch: epoch,
		}), nil
	}
	return e
}

// managerRejoin decides how a respawned replica re-enters the
// election: as a standby while any sibling lives (a surviving standby's
// takeover is what restores beacons), as an immediate primary only when
// every local replica is dead. Either way it is seeded with the highest
// epoch any local replica reached — readable off a dead replica too,
// and exactly what its replacement's first claim must outbid to outrank
// every stub's and supervisor's memory of the dead regime.
func (s *System) managerRejoin(self *component) (standby bool, epoch uint64) {
	for _, v := range s.snapshot(KindManager) {
		epoch = max(epoch, v.proc.(*manager.Manager).Epoch())
		if v.e != self && v.live {
			standby = true
		}
	}
	return standby, epoch
}

// monitorComponent hosts the one Monitor of the system's lifetime: its
// Run loop re-registers the endpoint, so a restart keeps the alert
// history and System.Mon stays valid.
func (s *System) monitorComponent() *component {
	return &component{
		name: "monitor",
		build: func(node string) (process, error) {
			if s.Mon == nil {
				s.Mon = monitor.New(monitor.Config{Node: node, Net: s.Net})
			}
			return s.Mon, nil
		},
	}
}

// reporterComponent publishes this process's trace spans on the report
// group, where the monitor ingests them, so the monitor's process
// answers /trace?id= with the cluster-wide tree.
func (s *System) reporterComponent() *component {
	return &component{
		name: "obsrep",
		build: func(node string) (process, error) {
			return &obsReporter{name: "obsrep", node: node, net: s.Net}, nil
		},
	}
}

// feProc is a front end plus the HTTP adapter bound for it (nil when
// Config.FEHTTP is unset). The adapter outlives the process — a killed
// front end's listener is retired when its replacement is up.
type feProc struct {
	*frontend.FrontEnd
	http *edge.FEServer
}

func (p *feProc) Close() error {
	if p.http == nil {
		return nil
	}
	return p.http.Close()
}

func (s *System) frontEndComponent(name string) *component {
	return &component{
		name: name, kind: KindFrontEnd, drop: true,
		build: func(node string) (process, error) {
			p := &feProc{}
			cfg := frontend.Config{
				Name:            name,
				Node:            node,
				Net:             s.Net,
				Rules:           s.cfg.Rules,
				Profiles:        s.Profile,
				Origin:          s.cfg.Origin,
				CacheNodes:      s.CacheNodes(),
				CacheTTL:        s.cfg.CacheTTL,
				CacheTimeout:    s.cfg.CacheTimeout,
				MinDistillSize:  s.cfg.MinDistillSize,
				RequestDeadline: s.cfg.RequestDeadline,
				MaxInflight:     s.cfg.FEMaxInflight,
				QueueHighWater:  s.cfg.FEQueueHighWater,
				ManagerStub: stub.ManagerStubConfig{
					Seed:             s.cfg.Seed,
					CallTimeout:      s.cfg.CallTimeout,
					OnManagerSilence: s.restartManager,
				},
			}
			// Remote congestion sheds upstream: each FE's admission
			// estimator samples the bridge's backpressure counter, so a
			// stalled peer process shows up as saturation here instead of
			// as silent frame loss.
			if br := s.Bridge; br != nil {
				cfg.BackpressureFn = func() uint64 { return br.Stats().Backpressure }
			}
			// Bind the HTTP adapter first: its address goes into the config
			// so the very first heartbeat advertises it. A respawn rebinds
			// (fresh port); the edge's pool entry is keyed by SAN address,
			// so the new address refreshes the existing slot and the
			// half-open probe readmits it.
			if s.cfg.FEHTTP != "" {
				var err error
				if p.http, err = edge.NewFEServer(s.cfg.FEHTTP); err != nil {
					return nil, err
				}
				cfg.HTTPAddr = p.http.Addr()
			}
			p.FrontEnd = frontend.New(cfg)
			if p.http != nil {
				p.http.Serve(p.FrontEnd.Do)
			}
			return p, nil
		},
	}
}

// edgeComponent is the front door: one L7 proxy balancing across the
// FE replicas it hears heartbeating (local and peer-process alike).
// Built once: Edge.Run rebinds the same public address after a restart.
func (s *System) edgeComponent() *component {
	var eg *edge.Edge
	return &component{
		name: "edge",
		build: func(node string) (process, error) {
			if eg != nil {
				return eg, nil
			}
			var err error
			eg, err = edge.New(edge.Config{
				Name:           "edge",
				Node:           node,
				Net:            s.Net,
				Listen:         s.cfg.EdgeListen,
				RetryBudget:    s.cfg.EdgeRetryBudget,
				Pool:           edge.PoolConfig{Seed: s.cfg.Seed},
				RequestTimeout: s.cfg.RequestDeadline,
			})
			return eg, err
		},
	}
}
