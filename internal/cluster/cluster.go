// Package cluster models the network of workstations (NOW) that hosts
// an SNS instance (paper §1.2, §2.1): a set of nodes — dedicated plus
// an overflow pool of non-dedicated machines (§2.2.3) — on which
// logical processes are placed, started, killed, and restarted.
//
// Processes run as goroutines whose lifetime is bound to their node:
// killing a node cancels every process on it and detaches its SAN
// endpoints, exactly the failure unit the paper's fault-tolerance
// mechanisms must mask.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/san"
)

// Process is a logical SNS component (front end, worker stub, manager,
// cache node, monitor). Run should block until ctx is cancelled or the
// process fails. A non-nil error marks an abnormal exit (crash).
type Process interface {
	// ID returns the process name, unique on its node.
	ID() string
	// Run executes the process until ctx is done.
	Run(ctx context.Context) error
}

// ProcessFunc adapts a function to the Process interface.
type ProcessFunc struct {
	Name string
	Fn   func(ctx context.Context) error
}

// ID implements Process.
func (p ProcessFunc) ID() string { return p.Name }

// Run implements Process.
func (p ProcessFunc) Run(ctx context.Context) error { return p.Fn(ctx) }

// ExitInfo describes a finished process.
type ExitInfo struct {
	Node string
	Proc string
	Err  error     // nil for clean exit
	At   time.Time // when the process exited
}

// Handle tracks a spawned process.
type Handle struct {
	Node string
	Proc string

	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	err    error
}

// Stop cancels the process and waits for it to exit.
func (h *Handle) Stop() {
	h.cancel()
	<-h.done
}

// Kill cancels the process without waiting (crash-style).
func (h *Handle) Kill() { h.cancel() }

// Wait blocks until the process exits and returns its error.
func (h *Handle) Wait() error {
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Done returns a channel closed when the process has exited.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Node describes one workstation.
type Node struct {
	ID       string
	Overflow bool // member of the overflow pool, not dedicated (§2.2.3)
	Alive    bool
	Procs    []string // process IDs currently placed here
}

// Errors returned by cluster operations.
var (
	ErrNoSuchNode = errors.New("cluster: no such node")
	ErrNodeDown   = errors.New("cluster: node is down")
	ErrDuplicate  = errors.New("cluster: duplicate process id on node")
	ErrStopped    = errors.New("cluster: cluster is stopped")
)

// Cluster is a collection of nodes attached to one SAN.
type Cluster struct {
	net *san.Network

	mu        sync.Mutex
	nodes     map[string]*nodeState
	order     []string // insertion order, for deterministic placement
	observers map[int]func(ExitInfo)
	nextObs   int
	stopping  bool // StopAll called: no further spawns
	wg        sync.WaitGroup
}

type nodeState struct {
	id       string
	overflow bool
	alive    bool
	procs    map[string]*Handle
}

// New creates a cluster over the given network.
func New(net *san.Network) *Cluster {
	return &Cluster{
		net:   net,
		nodes: make(map[string]*nodeState),
	}
}

// OnExit registers an observer invoked for every process exit (clean
// or crash), so multiple consumers — a chaos harness recording restart
// latencies, core respawning or retiring a component — can watch the
// same cluster without stealing each other's notifications. Observers
// run synchronously on the exiting process's goroutine and must be fast
// and non-blocking. The returned function removes the observer.
func (c *Cluster) OnExit(fn func(ExitInfo)) (remove func()) {
	c.mu.Lock()
	if c.observers == nil {
		c.observers = make(map[int]func(ExitInfo))
	}
	id := c.nextObs
	c.nextObs++
	c.observers[id] = fn
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		delete(c.observers, id)
		c.mu.Unlock()
	}
}

// notifyExit fans an exit out to all observers.
func (c *Cluster) notifyExit(info ExitInfo) {
	c.mu.Lock()
	obs := make([]func(ExitInfo), 0, len(c.observers))
	for _, fn := range c.observers {
		obs = append(obs, fn)
	}
	c.mu.Unlock()
	for _, fn := range obs {
		fn(info)
	}
}

// AddNode registers a workstation. Overflow nodes belong to the
// overflow pool and are only used when dedicated capacity is
// exhausted.
func (c *Cluster) AddNode(id string, overflow bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[id]; ok {
		return
	}
	c.nodes[id] = &nodeState{id: id, overflow: overflow, alive: true, procs: make(map[string]*Handle)}
	c.order = append(c.order, id)
}

// Nodes returns a snapshot of all nodes in insertion order.
func (c *Cluster) Nodes() []Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Node, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, snapshotNode(c.nodes[id]))
	}
	return out
}

// Spawn places and starts a process on the named node.
func (c *Cluster) Spawn(node string, p Process) (*Handle, error) {
	c.mu.Lock()
	if c.stopping {
		// Refusing late spawns (e.g. a manager replacing a crashed
		// worker while the whole system shuts down) keeps StopAll's
		// wait finite: a process spawned after the kill snapshot
		// would never be cancelled.
		c.mu.Unlock()
		return nil, ErrStopped
	}
	ns, ok := c.nodes[node]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchNode, node)
	}
	if !ns.alive {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNodeDown, node)
	}
	if _, dup := ns.procs[p.ID()]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrDuplicate, node, p.ID())
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &Handle{Node: node, Proc: p.ID(), cancel: cancel, done: make(chan struct{})}
	ns.procs[p.ID()] = h
	c.wg.Add(1)
	c.mu.Unlock()

	go func() {
		defer c.wg.Done()
		err := runRecovered(ctx, p)
		h.mu.Lock()
		h.err = err
		h.mu.Unlock()
		c.mu.Lock()
		if cur, ok := c.nodes[node]; ok {
			if cur.procs[p.ID()] == h {
				delete(cur.procs, p.ID())
			}
		}
		c.mu.Unlock()
		close(h.done)
		c.notifyExit(ExitInfo{Node: node, Proc: p.ID(), Err: err, At: time.Now()})
	}()
	return h, nil
}

// runRecovered converts a process panic into an error exit, so a buggy
// worker "crashes" without taking the whole test binary down — the
// paper's claim that worker code may crash freely (§2.2.5).
func runRecovered(ctx context.Context, p Process) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: process %s panicked: %v", p.ID(), r)
		}
	}()
	return p.Run(ctx)
}

// KillNode crashes a workstation: every process on it is cancelled and
// all its SAN endpoints are dropped. Spawning on it fails until
// ReviveNode.
func (c *Cluster) KillNode(id string) error {
	c.mu.Lock()
	ns, ok := c.nodes[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSuchNode, id)
	}
	ns.alive = false
	handles := make([]*Handle, 0, len(ns.procs))
	for _, h := range ns.procs {
		handles = append(handles, h)
	}
	c.mu.Unlock()

	c.net.DropNode(id)
	for _, h := range handles {
		h.Kill()
	}
	for _, h := range handles {
		<-h.done
	}
	return nil
}

// ReviveNode brings a killed workstation back (empty of processes).
func (c *Cluster) ReviveNode(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchNode, id)
	}
	ns.alive = true
	return nil
}

// KillProcess crashes a single process by name.
func (c *Cluster) KillProcess(node, proc string) error {
	c.mu.Lock()
	ns, ok := c.nodes[node]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoSuchNode, node)
	}
	h, ok := ns.procs[proc]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: no process %s on %s", proc, node)
	}
	h.Kill()
	<-h.done
	return nil
}

// PlacementFilter selects candidate nodes for Place.
type PlacementFilter func(Node) bool

// Place returns the alive node with the fewest processes matching the
// filter, preferring dedicated nodes over overflow nodes; overflow
// nodes are considered only if includeOverflow is set. It returns ""
// if no node qualifies. This is the manager's spawn-placement policy
// (§3.1.2): least-loaded dedicated node first, overflow pool as the
// burst absorber.
func (c *Cluster) Place(includeOverflow bool, filter PlacementFilter) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	best := ""
	bestLoad := int(^uint(0) >> 1)
	bestOverflow := true
	for _, id := range c.order {
		ns := c.nodes[id]
		if !ns.alive || (ns.overflow && !includeOverflow) {
			continue
		}
		if filter != nil && !filter(snapshotNode(ns)) {
			continue
		}
		load := len(ns.procs)
		// Dedicated nodes strictly dominate overflow nodes.
		if best == "" || (bestOverflow && !ns.overflow) ||
			(bestOverflow == ns.overflow && load < bestLoad) {
			best, bestLoad, bestOverflow = id, load, ns.overflow
		}
	}
	return best
}

func snapshotNode(ns *nodeState) Node {
	procs := make([]string, 0, len(ns.procs))
	for p := range ns.procs {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	return Node{ID: ns.id, Overflow: ns.overflow, Alive: ns.alive, Procs: procs}
}

// StopAll cancels every process on every node and waits for all of
// them to exit. Used for orderly shutdown of a whole system; the
// cluster accepts no further spawns afterwards.
func (c *Cluster) StopAll() {
	c.mu.Lock()
	c.stopping = true
	var handles []*Handle
	for _, ns := range c.nodes {
		for _, h := range ns.procs {
			handles = append(handles, h)
		}
	}
	c.mu.Unlock()
	for _, h := range handles {
		h.Kill()
	}
	c.wg.Wait()
}
