// Package supervisor implements the per-process supervisor daemon that
// makes the paper's process-peer supervision (§2, §3.2) work across OS
// process boundaries. Every core.Start process runs one: it announces
// itself on the SAN control group with periodic hello heartbeats
// (address-keyed, exactly like cache services) and executes
// restart/spawn/reap commands sent to it as SAN calls.
//
// The manager stays the brain — it watches heartbeats and decides what
// must be started or stopped — and the supervisor is its only muscle:
// every start and stop is a command to the supervisor owning the
// component's node, in the manager's own process or another, and the
// manager never touches a process itself. This is the per-node
// resource/failover manager of the Microsoft Cluster Service design
// (Vogels et al.) grafted onto the SNS soft-state discipline: it keeps no
// durable state, re-announces itself from the very next heartbeat
// after a restart, and executes commands idempotently so a retried
// delivery can never restart a component twice.
package supervisor

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/san"
	"repro/internal/softstate"
)

// Message kinds. MsgHello is multicast on GroupControl; MsgCmd /
// MsgAck are the unicast command protocol. MsgAnnounce is every other
// component's "I am here": front ends, caches and workers each send one
// Member per interval.
const (
	MsgHello    = "sup.hello"       // supervisor -> group: HelloMsg
	MsgCmd      = "sup.cmd"         // manager/monitor -> supervisor (Call): Command
	MsgAck      = "sup.ack"         // supervisor -> caller (reply): Ack
	MsgAnnounce = "member.announce" // component -> group or manager: Member
)

// The control groups. GroupControl carries full manager beacons,
// supervisor hellos and member announcements; GroupBeacon the primary
// manager's beacon head (Manager, Seq, Epoch, no rows): all a supervisor
// with EpochFrom hears.
const (
	GroupControl = "sns.control"
	GroupBeacon  = "sns.beacon"
)

// Command operations.
const (
	// OpRestart restarts the named component hosted by this
	// supervisor's process, whatever its kind: kill any lingering
	// instance, spawn a fresh one under the same name. A front end or
	// cache comes back at its address (the cache empty — it is a cache);
	// a worker comes back under the same id and class (a dead roster
	// slot, or the hot-upgrade restart step).
	OpRestart = "restart"
	// OpSpawnWorker starts one more worker of the target class in this
	// process: a load-driven or cold-start extra.
	OpSpawnWorker = "spawn-worker"
	// OpReap retires such an extra by id, gracefully: it announces
	// itself down on its way out and leaves the roster.
	OpReap = "reap"
)

// Row kinds: the clone sets a process hosts several instances of.
// Singletons (the supervisor itself, monitor, edge) carry "".
const (
	KindCache    = "cache"
	KindManager  = "manager"
	KindWorker   = "worker"
	KindFrontEnd = "frontend"
)

// Row is one row of the hosting process's component table: what the
// process is configured to run, whether or not the instance is alive
// right now. Node and Name together are the component's SAN address.
type Row struct {
	Name string
	Kind string
	Node string
}

// Member states. A draining member is alive but takes no new work: a
// front end that is stopping announces this state while it finishes the
// requests it admitted. Down is a worker's last word when it is stopped
// on purpose (reaped, or the stop half of a restart): its earlier
// announcements may still be in flight, and down, sent after them on the
// same path, is what keeps them from putting it back.
const (
	StateUp       = "up"
	StateDraining = "draining"
	StateDown     = "down"
)

// Member is the body of MsgAnnounce: one component of a roster row's
// kind saying it is alive, where, and in what state. Its silence past
// its kind's TTL is how a watcher infers its death (§3.1.3), so it is
// sent from the component's own serving loop. Class, Load and Overflow
// describe a worker (its queue length is the load the lottery balances
// on). A front end's Addr is also where the edge sends its requests.
type Member struct {
	Addr     san.Addr // Addr.Proc is the row's name, Addr.Node its node
	Kind     string
	Class    string
	State    string
	Load     int
	Overflow bool
}

// HelloMsg is the supervisor's heartbeat body. Prefix is the node-name
// prefix of the process it governs: a manager resolving which
// supervisor owns a dead component matches the component's node name
// against the longest advertised prefix (Owner). Roster is the
// process's component table (Host.Roster) — the desired state the
// primary manager reconciles against what it hears. It rides an
// optional tail on the wire, so a hello from a peer that predates it
// decodes with none.
type HelloMsg struct {
	Name   string
	Addr   san.Addr
	Node   string
	Prefix string
	Roster []Row
}

// Owner resolves which supervisor owns a node: san.Owner over the
// advertised prefixes, equal prefixes by lowest address. It is the
// single ownership rule every resolver (manager restart sweeps, monitor
// upgrade waves) shares with the bridge's routes, or two watchers could
// delegate the same node's duties to different daemons. Two hellos
// share a prefix while a respawned supervisor's old address has not yet
// expired from a table.
func Owner(node string, sups map[string]HelloMsg) (HelloMsg, bool) {
	return san.Owner(node, maps.Values(sups), helloPrefix, helloAddr)
}

func helloPrefix(hb HelloMsg) string { return hb.Prefix }
func helloAddr(hb HelloMsg) string   { return hb.Addr.String() }

// Command asks a supervisor to act. ID must be unique per Origin for
// one incident: retries of the same incident reuse the ID, so a
// command that executed but whose ack was lost is answered from the
// supervisor's result cache instead of being executed again.
//
// Epoch is the issuing manager's election epoch. A supervisor tracks
// the highest epoch it has observed (from commands and from beacons,
// via Config.EpochFrom) and refuses commands stamped with an older
// one — a deposed primary that has not yet heard the new primary's
// beacon can therefore never double-restart a component. Epoch 0
// means "no election claim" and is always accepted (operator tooling,
// the monitor's upgrade waves).
type Command struct {
	ID     uint64
	Origin string // issuing component's address, for idempotency scoping
	Op     string
	Target string // component name or worker id; the class for OpSpawnWorker
	Epoch  uint64 // issuing manager's election epoch; 0 = unfenced
}

// Ack answers a Command.
type Ack struct {
	ID  uint64
	OK  bool
	Err string // empty when OK
}

// The layouts of the supervisor's kinds: rows of san's kind table.
func init() {
	san.RegisterKind(MsgHello, appendHello, decodeHello)
	san.RegisterKind(MsgAnnounce, appendMember, decodeMember)
	san.RegisterKind(MsgCmd, appendCommand, decodeCommand)
	san.RegisterKind(MsgAck, appendAck, decodeAck)
}

// maxRoster bounds the component-table rows one hello may carry, on
// both sides: a longer roster is refused whole, never cut short — a
// manager handed half a table would stop watching the rest.
const maxRoster = 1024

func appendHello(w san.Writer, m HelloMsg) (san.Writer, error) {
	if len(m.Roster) > maxRoster {
		return nil, fmt.Errorf("%w: %s roster of %d rows exceeds %d", san.ErrWireFormat, MsgHello, len(m.Roster), maxRoster)
	}
	w.Str(m.Name)
	w.Addr(m.Addr)
	w.Str(m.Node)
	w.Str(m.Prefix)
	w.Uvarint(uint64(len(m.Roster)))
	for _, row := range m.Roster {
		w.Str(row.Name)
		w.Str(row.Kind)
		w.Str(row.Node)
	}
	return w, nil
}

func decodeHello(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	m := HelloMsg{Name: r.Str(), Addr: r.Addr(), Node: r.Str(), Prefix: r.Str()}
	n := r.SliceLen(3) // a row is at least three empty strings
	if n > maxRoster {
		r.Fail()
	} else if n > 0 {
		m.Roster = make([]Row, 0, n)
		for i := 0; i < n; i++ {
			m.Roster = append(m.Roster, Row{Name: r.Str(), Kind: r.Str(), Node: r.Str()})
		}
	}
	return r.Done(m)
}

func appendMember(w san.Writer, m Member) (san.Writer, error) {
	w.Addr(m.Addr)
	w.Str(m.Kind)
	w.Str(m.Class)
	w.Str(m.State)
	w.Varint(int64(m.Load))
	w.Bool(m.Overflow)
	return w, nil
}

func decodeMember(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	return r.Done(Member{Addr: r.Addr(), Kind: r.Str(), Class: r.Str(), State: r.Str(), Load: int(r.Varint()), Overflow: r.Bool()})
}

func appendCommand(w san.Writer, m Command) (san.Writer, error) {
	w.U64(m.ID)
	w.Str(m.Origin)
	w.Str(m.Op)
	w.Str(m.Target)
	w.U64(m.Epoch)
	return w, nil
}

func decodeCommand(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	return r.Done(Command{ID: r.U64(), Origin: r.Str(), Op: r.Str(), Target: r.Str(), Epoch: r.U64()})
}

func appendAck(w san.Writer, m Ack) (san.Writer, error) {
	w.U64(m.ID)
	w.Bool(m.OK)
	w.Str(m.Err)
	return w, nil
}

func decodeAck(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	return r.Done(Ack{ID: r.U64(), OK: r.Bool(), Err: r.Str()})
}

// Host is the supervisor's lever on its own process — the platform
// layer (core.System) implements it. All methods act locally: a
// component another process hosts is that process's supervisor's
// business.
type Host interface {
	// Restart stops any lingering instance of the named component and
	// starts a fresh one under the same name.
	Restart(name string) error
	// SpawnWorker starts a fresh worker of class.
	SpawnWorker(class string) error
	// ReapWorker gracefully stops a worker SpawnWorker started.
	ReapWorker(id string) error
	// Roster lists every row of the process's component table.
	Roster() []Row
}

// Config assembles a supervisor.
type Config struct {
	Name string // process id; default "sup"
	Node string
	Net  *san.Network
	// Prefix is the hosting process's node-name prefix, advertised in
	// hellos so managers can resolve ownership.
	Prefix string
	// Host executes commands. A nil Host acks every command with an
	// error (useful only in tests).
	Host Host
	// EpochFrom, when set, makes Run join GroupBeacon and extract an
	// election epoch from every message it hears there (the platform
	// wires a closure that recognizes manager beacons — the supervisor
	// cannot import the stub package itself). The highest epoch
	// observed fences stale-epoch commands.
	EpochFrom func(kind string, body any) (uint64, bool)
	// ResultRetention is how long a completed command's result is
	// immune from cache eviction (so an origin still retrying that id
	// is guaranteed an idempotent answer). Default 5s; tests compress.
	ResultRetention time.Duration
	// ResultCacheCap overrides the result cache's soft capacity bound
	// (default resultCacheCap). Tests shrink it.
	ResultCacheCap int
}

// Stats counts supervisor activity.
type Stats struct {
	Commands   uint64 // commands executed (excluding duplicates)
	Dupes      uint64 // duplicate deliveries answered from the cache
	Failures   uint64 // commands whose execution returned an error
	Hellos     uint64 // heartbeats sent
	StaleEpoch uint64 // commands refused for carrying a deposed epoch
}

// Result cache bounds. The soft cap (resultCacheCap) is the steady-
// state size; entries younger than ResultRetention survive it, because
// evicting a result an origin is still retrying would re-execute the
// command — the exact bug idempotency exists to prevent. The hard cap
// is the memory backstop a pathological storm can push the cache to
// before age no longer matters.
const (
	resultCacheCap         = 512
	resultCacheHardFactor  = 8
	defaultResultRetention = 5 * time.Second
)

// Supervisor is the per-process daemon. It implements cluster.Process.
type Supervisor struct {
	cfg Config
	ep  *san.Endpoint

	epoch atomic.Uint64 // highest election epoch observed

	mu     sync.Mutex
	done   map[string]doneEntry     // origin#id -> result, for idempotent redelivery
	order  []string                 // FIFO eviction order for done
	flying map[string]chan struct{} // origin#id -> closed when the execution in progress ends

	commands   atomic.Uint64
	dupes      atomic.Uint64
	failures   atomic.Uint64
	hellos     atomic.Uint64
	staleEpoch atomic.Uint64
}

// doneEntry is one cached command result plus its completion time —
// the age gate eviction keys on.
type doneEntry struct {
	ack Ack
	at  time.Time
}

// New creates a supervisor and eagerly registers its SAN endpoint so
// it is addressable as soon as it is spawned.
func New(cfg Config) *Supervisor {
	if cfg.Name == "" {
		cfg.Name = "sup"
	}
	if cfg.ResultRetention <= 0 {
		cfg.ResultRetention = defaultResultRetention
	}
	if cfg.ResultCacheCap <= 0 {
		cfg.ResultCacheCap = resultCacheCap
	}
	s := &Supervisor{cfg: cfg, done: make(map[string]doneEntry), flying: make(map[string]chan struct{})}
	s.ep = cfg.Net.Endpoint(s.addr(), san.InboxSize)
	return s
}

func (s *Supervisor) addr() san.Addr { return san.Addr{Node: s.cfg.Node, Proc: s.cfg.Name} }

// Addr returns the supervisor's SAN address.
func (s *Supervisor) Addr() san.Addr { return s.addr() }

// Prefix returns the node-name prefix this supervisor governs.
func (s *Supervisor) Prefix() string { return s.cfg.Prefix }

// ID implements cluster.Process.
func (s *Supervisor) ID() string { return s.cfg.Name }

// Stats returns a snapshot of counters.
func (s *Supervisor) Stats() Stats {
	return Stats{
		Commands:   s.commands.Load(),
		Dupes:      s.dupes.Load(),
		Failures:   s.failures.Load(),
		Hellos:     s.hellos.Load(),
		StaleEpoch: s.staleEpoch.Load(),
	}
}

// Epoch returns the highest election epoch this supervisor has seen.
func (s *Supervisor) Epoch() uint64 { return s.epoch.Load() }

// ObserveEpoch raises the supervisor's epoch watermark (monotonic).
func (s *Supervisor) ObserveEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur || s.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Hello builds the heartbeat body this supervisor announces.
func (s *Supervisor) Hello() HelloMsg {
	hb := HelloMsg{Name: s.cfg.Name, Addr: s.addr(), Node: s.cfg.Node, Prefix: s.cfg.Prefix}
	if s.cfg.Host != nil {
		hb.Roster = s.cfg.Host.Roster()
	}
	return hb
}

// Run implements cluster.Process: heartbeat and serve commands until
// ctx is done.
func (s *Supervisor) Run(ctx context.Context) error {
	if s.ep == nil || !s.cfg.Net.Lookup(s.addr()) {
		s.ep = s.cfg.Net.Endpoint(s.addr(), san.InboxSize)
	}
	ep := s.ep
	defer ep.Close()

	hb := softstate.NewSchedule(softstate.Announce.Of(s.cfg.Net.Beacon()))
	defer hb.Stop()
	if s.cfg.EpochFrom != nil {
		// Observe election epochs from the beacon's head so a deposed
		// primary's commands are fenced even before the new primary
		// sends us anything directly.
		ep.Join(GroupBeacon)
	}
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-hb.C:
			s.heartbeat(ep)
			hb.Next()
		case msg, ok := <-ep.Inbox():
			if !ok {
				return fmt.Errorf("supervisor: %s endpoint closed", s.cfg.Name)
			}
			if msg.Kind != MsgCmd {
				if s.cfg.EpochFrom != nil {
					if e, ok := s.cfg.EpochFrom(msg.Kind, msg.Body); ok {
						s.ObserveEpoch(e)
					}
				}
				msg.Release()
				continue
			}
			cmd, ok := msg.Body.(Command)
			if !ok {
				continue
			}
			// Off the loop: a restart waits for the old instance to exit,
			// which can take as long as its slowest request, and neither
			// the hellos nor the other components' commands wait with it.
			go func() { _ = ep.Respond(msg, MsgAck, s.dispatch(cmd), 64) }()
		}
	}
}

func (s *Supervisor) heartbeat(ep *san.Endpoint) {
	s.hellos.Add(1)
	hb := s.Hello()
	ep.Multicast(GroupControl, MsgHello, hb, 64+32*len(hb.Roster))
}

// dispatch executes one command at most once, on the caller's
// goroutine (Run starts one per command): a duplicate delivery
// (same origin and id) of a command that already SUCCEEDED is
// answered from the result cache without touching the host again —
// the case idempotency exists for, a success whose ack was lost.
// Failures are deliberately NOT cached: a failed execution had no
// effect worth protecting, and pinning a transient refusal (say, a
// momentary capacity gap) against an id the caller reuses across
// retries would turn one bad moment into a permanent one.
//
// Eviction is age-gated, not pure FIFO: a result younger than
// ResultRetention may still have its origin retrying that id, and
// evicting it would re-execute the command on redelivery. Only when
// the cache balloons past the hard cap does memory safety outrank the
// retention promise.
func (s *Supervisor) dispatch(cmd Command) Ack {
	if cmd.Epoch != 0 {
		if cur := s.epoch.Load(); cmd.Epoch < cur {
			s.staleEpoch.Add(1)
			return Ack{ID: cmd.ID, Err: fmt.Sprintf("supervisor: stale epoch %d (current %d)", cmd.Epoch, cur)}
		}
		s.ObserveEpoch(cmd.Epoch)
	}
	key := cmd.Origin + "#" + fmt.Sprint(cmd.ID)
	s.mu.Lock()
	for f := s.flying[key]; f != nil; f = s.flying[key] {
		s.mu.Unlock() // a retry of a command still executing waits for its result
		<-f
		s.mu.Lock()
	}
	if e, seen := s.done[key]; seen {
		s.mu.Unlock()
		s.dupes.Add(1)
		return e.ack
	}
	f := make(chan struct{})
	s.flying[key] = f
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.flying, key)
		s.mu.Unlock()
		close(f)
	}()

	ack := s.execute(cmd)
	if !ack.OK {
		return ack
	}

	now := time.Now()
	s.mu.Lock()
	s.done[key] = doneEntry{ack: ack, at: now} // the key was not cached, and no twin of this execution ran
	s.order = append(s.order, key)
	hardCap := s.cfg.ResultCacheCap * resultCacheHardFactor
	for len(s.order) > s.cfg.ResultCacheCap {
		oldest := s.done[s.order[0]]
		if now.Sub(oldest.at) < s.cfg.ResultRetention && len(s.order) <= hardCap {
			break // still inside its retry window; keep it
		}
		delete(s.done, s.order[0])
		s.order = s.order[1:]
	}
	s.mu.Unlock()
	return ack
}

func (s *Supervisor) execute(cmd Command) Ack {
	s.commands.Add(1)
	var err error
	if s.cfg.Host == nil {
		err = fmt.Errorf("supervisor: no host wired")
	} else if cmd.Target == s.cfg.Name {
		// The ack would leave through the endpoint the restart closes; the
		// process's own exit observer is what respawns its supervisor.
		err = fmt.Errorf("supervisor: %s cannot %s itself", s.cfg.Name, cmd.Op)
	} else {
		switch cmd.Op {
		case OpRestart:
			err = s.cfg.Host.Restart(cmd.Target)
		case OpSpawnWorker:
			err = s.cfg.Host.SpawnWorker(cmd.Target)
		case OpReap:
			err = s.cfg.Host.ReapWorker(cmd.Target)
		default:
			err = fmt.Errorf("supervisor: unknown op %q", cmd.Op)
		}
	}
	if err != nil {
		s.failures.Add(1)
		return Ack{ID: cmd.ID, Err: err.Error()}
	}
	return Ack{ID: cmd.ID, OK: true}
}
