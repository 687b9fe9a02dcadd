// Package san implements the system-area network (SAN) that connects
// SNS components (paper §2.1). It provides addressed point-to-point
// messaging, best-effort multicast groups (the paper's IP-multicast
// analogue used for manager beacons and monitor reports), and failure
// injection: message loss and network partitions.
//
// The network is in-process: endpoints are registered per logical
// process and messages are delivered to buffered inboxes, except the
// reply to a Call, which delivery hands to the goroutine waiting in
// that Call: an endpoint's receive loop never sees one, and an endpoint
// that only calls needs no loop at all. Components
// communicate only through this interface, so the protocol paths are
// identical to a wire implementation; the impairment knobs let tests
// reproduce the paper's SAN saturation and partition scenarios.
//
// The send path is lock-free on the network side: topology (endpoint
// table, groups, partition map) and impairment config live in an
// immutable snapshot swapped atomically by the rare mutators
// (registration, Join/Leave, SetLoss, Partition), so concurrent
// senders never contend on a network-wide mutex. Loss decisions use
// per-endpoint deterministic rngs instead of a shared locked source.
//
// Every network serializes (paper §2.1: components meet only on the
// SAN, so the SAN holds the one kind table of wire layouts, wire.go):
// every Send, Multicast, Call and Respond encodes its body once into a
// refcounted Lease, and every delivery decodes its own body from those
// bytes, so a message crosses the in-process SAN exactly as it crosses
// a socket, and a test runs the layouts the cluster runs. Multicast
// encodes once however large the group.
//
// A Fabric (SetFabric) splices this network into a larger logical SAN
// spanning OS processes: point-to-point sends whose destination is not
// registered locally are handed to the fabric as wire bytes, every
// multicast is mirrored to it, and frames arriving from remote
// processes re-enter through InjectUnicast/InjectMulticast —
// internal/transport provides the socket implementation.
//
// Deliveries decode views: []byte body fields alias the encoded wire
// bytes instead of copying them, and the Lease backing those bytes
// rides the Message. The buffer is recycled only after every holder
// releases, so consumers that finish with a message call msg.Release()
// (a performance obligation — forgetting it costs a pool miss, never
// corruption) and consumers that keep body bytes past the message
// clone them first (CloneBytes, copy-on-retain). Messages whose bodies
// contain no []byte never carry a lease, so control-plane consumers
// are unaffected.
//
// An inbox holds traffic, not reserve: a channel allocates every slot up
// front (a Message is 176 bytes), so an inbox is one of two sizes, by
// what fills it. InboxSize is an event loop's, drained as messages come:
// a control inbox holds one interval's announcements, since soft state
// (paper §3.1.3) means the next beacon, heartbeat or hello replaces a
// lost one; a worker stub queues or refuses each task at once; and a
// reply goes to its Call, so no reply passes through an inbox. The
// deepest each ran in one 15 s bench/run.sh run of each workload:
// monitor 13, manager 9, worker 8, the rest ≤ 6.
//
// ServerInboxSize is for an endpoint whose inbox queues Calls: a cache
// partition, which serves them one at a time, and a front end, whose
// loop hands each edge request to a goroutine. Its depth is its callers'
// concurrency. A request a full inbox refuses ends a caller of the same
// process at once (ErrUnknownAddr), so it can go elsewhere; a caller in
// another process still waits out its Call's timeout. A partition ran 21
// deep in those runs, but 635–638 deep with two front ends at their
// admission bound (640 requests) probing it at 1 ms a probe, and up to
// 236 (595 under -race) at no added cost
// (frontend.TestCacheInboxAtAdmissionBound). A degraded serve probes
// without an admission slot, so that size is a limit, not a measured
// bound. san.inbox_max and san.inbox_full watch both.
package san

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"iter"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Addr identifies a process endpoint on the SAN. Node is the hosting
// workstation (used for partition and node-failure semantics); Proc is
// the process name, unique per node.
type Addr struct {
	Node string
	Proc string
}

// String renders the address as "node/proc".
func (a Addr) String() string { return a.Node + "/" + a.Proc }

// IsZero reports whether the address is unset.
func (a Addr) IsZero() bool { return a.Node == "" && a.Proc == "" }

// Owner resolves which OS process hosts a node. Each process owns the
// node names that begin with its prefix, so the owner is the candidate
// whose prefix is the longest match for node; equal prefixes go to the
// lowest key (two supervisor hellos share a prefix while a respawned
// one's old address has not yet expired). ok is false when no prefix
// matches. It is the one ownership rule: the bridge routes every
// cross-process unicast by it, and managers delegate every restart by
// it (supervisor.Owner), so a node's traffic and its repairs always go
// to the same process.
func Owner[C any](node string, cands iter.Seq[C], prefix, key func(C) string) (best C, ok bool) {
	bestLen, bestKey := -1, ""
	for c := range cands {
		p := prefix(c)
		if !strings.HasPrefix(node, p) || len(p) < bestLen {
			continue
		}
		if k := key(c); len(p) > bestLen || k < bestKey {
			best, bestLen, bestKey = c, len(p), k
		}
	}
	return best, bestLen >= 0
}

// Message is a datagram on the SAN. Body is the value its kind's layout
// decoded for this delivery; Size is the length of its encoding in bytes.
type Message struct {
	From  Addr
	To    Addr   // zero for multicast
	Group string // non-empty for multicast deliveries
	Kind  string
	Body  any
	Size  int

	// CallID and Reply implement the request/response convention:
	// a caller tags a request with a fresh CallID; the responder
	// echoes it with Reply=true.
	CallID uint64
	Reply  bool

	// Deadline, when non-zero, is the absolute wall-clock instant after
	// which nobody awaits this message's effect. Call stamps it from its
	// context so every in-process hop can drop already-expired work
	// instead of executing it. It is delivery metadata, not part of the
	// wire encoding: a body that must carry its deadline across a
	// process boundary embeds it (stub.TaskMsg does).
	Deadline time.Time

	// Trace identifies the end-to-end request this message serves, for
	// distributed tracing (obs package). Like Deadline it is delivery
	// metadata: the local SAN carries it on the Message, and the
	// transport carries it as a frame field (FlagTrace) rather than
	// inside the body encoding. Zero means untraced.
	Trace obs.TraceID

	// Lease, when non-nil, backs []byte fields of Body with a pooled
	// wire buffer. The consumer that finishes with the message calls
	// Release; a consumer that keeps body bytes beyond its own release
	// must clone them first (CloneBytes). Nil when the body aliases no
	// bytes (no []byte field, or a nil body).
	Lease *Lease
}

// Retain adds a reference to the message's backing buffer (no-op when
// the message carries none): the holder promises a matching Release.
func (m Message) Retain() {
	if m.Lease != nil {
		m.Lease.Retain()
	}
}

// Release drops the message's reference to its backing buffer and
// clears the field, so the same Message value cannot double-release.
// Safe (and a no-op) when the message carries no lease — consumers can
// call it unconditionally.
func (m *Message) Release() {
	if m.Lease != nil {
		m.Lease.Release()
		m.Lease = nil
	}
}

// Inbox capacities, by what fills the inbox (see the package doc).
const (
	InboxSize       = 256  // an event loop: over ten times the deepest measured
	ServerInboxSize = 1024 // serves Calls one at a time: a slot per caller
)

// Stats counts network activity. Bytes counts encoded wire bytes: the
// size argument of Send, Call, Respond and Multicast is ignored.
type Stats struct {
	Endpoints    int    // endpoints registered now
	Sent         uint64 // point-to-point messages delivered
	Dropped      uint64 // lost to impairments, partitions, or full inboxes
	McastSent    uint64 // multicast deliveries attempted
	McastDropped uint64 // multicast deliveries lost
	Bytes        uint64 // bytes delivered
	InboxMax     uint64 // deepest any inbox of this network has been
	InboxFull    uint64 // deliveries (either kind) dropped at a full inbox

	// Kind-table counters.
	WireEncodes uint64 // bodies encoded (one per Send/Call/Respond/Multicast)
	WireDecodes uint64 // bodies decoded (one per delivery)
	WireErrors  uint64 // bodies the kind table refused, either way
}

// Errors returned by endpoint operations.
var (
	ErrClosed      = errors.New("san: endpoint closed")
	ErrUnknownAddr = errors.New("san: unknown address")
	ErrTimeout     = errors.New("san: call timed out")
	// ErrCodec wraps serialization failures: the body could
	// not be encoded (or its bytes decoded), so nothing was sent — the
	// analogue of a marshalling error at a production NIC.
	ErrCodec = errors.New("san: wire codec")
	// ErrNetworkClosed is returned by operations on a network after
	// Close.
	ErrNetworkClosed = errors.New("san: network closed")
)

// Prompter marks a body a fabric sends at once, not held for a batch: a
// distillation's result (stub.ResultMsg), so a result never waits. A
// Call's request never waits either, unmarked: its caller is blocked on
// the answer. Other replies and one-way sends (small cache writes,
// announcements) may wait for the fabric's batch, one flush tick.
type Prompter interface{ Prompt() }

// Fabric carries SAN traffic to endpoints hosted by other OS
// processes — the pluggable seam the socket transport plugs into
// (internal/transport.Bridge). Implementations receive already-encoded
// wire bytes (valid only for the duration of the call; copy to
// retain) and must be safe for concurrent use. Delivery is best
// effort with datagram semantics, exactly like the local SAN.
type Fabric interface {
	// Unicast forwards a point-to-point message whose destination is
	// not registered on this network. It reports whether the message
	// was handed to at least one remote process; false means nobody
	// reachable holds the address (the network surfaces that to the
	// sender as ErrUnknownAddr). When lease is non-nil it backs wire;
	// a fabric that needs the bytes beyond the call (vectored or
	// chunked writes) retains it instead of copying, releasing when
	// the socket write completes. A nil lease keeps the old contract:
	// copy to retain. A non-zero trace rides the frame so the receiving
	// process can stamp it back onto the delivered Message. prompt: send
	// now, not held for a batch. It is true for every Call's request and
	// every Prompter body (a result); a small reply, cache write or
	// announcement is false and waits for the batch's flush tick.
	Unicast(from, to Addr, kind string, callID uint64, reply, prompt bool, trace obs.TraceID, wire []byte, lease *Lease) bool
	// Multicast forwards a group message to every remote process;
	// each re-fans it out to its own local group members.
	Multicast(from Addr, group, kind string, wire []byte)
	// EndpointDown tells the fabric a local endpoint closed, so remote
	// Calls still awaiting it can end at once (Unreachable on their
	// side). It must not block.
	EndpointDown(a Addr)
}

// Option configures a Network at construction.
type Option func(*Network)

// WithCodec does nothing: every network runs the one kind table. It
// stays for bench/, frozen until ROADMAP item 20, and goes with it.
func WithCodec(any) Option { return func(*Network) {} }

// DefaultBeacon is a network's beacon interval without WithBeacon.
const DefaultBeacon = 500 * time.Millisecond

// WithBeacon sets the network's beacon interval: the one period every
// component on it announces at, and the unit every soft-state timeout
// is a multiple of (internal/softstate). Zero or negative keeps
// DefaultBeacon.
func WithBeacon(d time.Duration) Option {
	return func(n *Network) {
		if d > 0 {
			n.beacon = d
		}
	}
}

// WithDecodeViews does nothing: every delivery decodes views. It stays
// for callers written when views were optional.
func WithDecodeViews(bool) Option { return func(*Network) {} }

// netState is the immutable topology+impairment snapshot read by every
// Send and Multicast. Mutators clone it under Network.mu and swap the
// pointer; readers take one atomic load and never block.
type netState struct {
	endpoints map[Addr]*Endpoint
	groups    map[string][]*Endpoint
	partition map[string]int // node -> partition id; absent = 0
	fabric    Fabric         // nil = purely in-process

	// Impairments. Loss probabilities are applied per delivery.
	lossP      float64 // point-to-point loss probability
	mcastLossP float64 // multicast delivery loss probability
}

// clone makes a shallow copy with fresh maps; group member slices are
// shared until a mutator replaces them (copy-on-write).
func (s *netState) clone() *netState {
	c := &netState{
		endpoints:  make(map[Addr]*Endpoint, len(s.endpoints)),
		groups:     make(map[string][]*Endpoint, len(s.groups)),
		partition:  make(map[string]int, len(s.partition)),
		fabric:     s.fabric,
		lossP:      s.lossP,
		mcastLossP: s.mcastLossP,
	}
	for a, ep := range s.endpoints {
		c.endpoints[a] = ep
	}
	for g, members := range s.groups {
		c.groups[g] = members
	}
	for node, p := range s.partition {
		c.partition[node] = p
	}
	return c
}

func (s *netState) samePartition(a, b string) bool {
	return s.partition[a] == s.partition[b]
}

// withoutMember returns members minus ep, or the original slice if ep
// is not present. The result is always safe to publish (never aliases
// a mutated slice).
func withoutMember(members []*Endpoint, ep *Endpoint) []*Endpoint {
	for i, m := range members {
		if m == ep {
			out := make([]*Endpoint, 0, len(members)-1)
			out = append(out, members[:i]...)
			return append(out, members[i+1:]...)
		}
	}
	return members
}

// Network is an in-process SAN. The zero value is not usable;
// construct with NewNetwork.
type Network struct {
	mu     sync.Mutex // serializes mutators; senders never take it
	state  atomic.Pointer[netState]
	seed   int64 // derives each endpoint's deterministic rng
	beacon time.Duration
	closed atomic.Bool

	// Process-wide observability plane: every component that holds the
	// network (or an endpoint on it) shares these.
	tracer   *obs.Tracer
	registry *obs.Registry

	sent         atomic.Uint64
	dropped      atomic.Uint64
	mcastSent    atomic.Uint64
	mcastDropped atomic.Uint64
	bytes        atomic.Uint64
	inboxMax     atomic.Uint64
	full         atomic.Uint64 // point-to-point drops at a full inbox
	mcastFull    atomic.Uint64 // multicast drops at a full inbox
	wireEncodes  atomic.Uint64
	wireDecodes  atomic.Uint64
	wireErrors   atomic.Uint64
}

// NewNetwork returns an unimpaired network seeded for deterministic
// loss decisions.
func NewNetwork(seed int64, opts ...Option) *Network {
	n := &Network{seed: seed, beacon: DefaultBeacon}
	n.state.Store(&netState{
		endpoints: make(map[Addr]*Endpoint),
		groups:    make(map[string][]*Endpoint),
		partition: make(map[string]int),
	})
	for _, opt := range opts {
		opt(n)
	}
	n.tracer = obs.NewTracer(uint64(seed), 0)
	n.registry = obs.NewRegistry()
	n.registry.SetCollector("san", func(emit func(string, float64)) {
		s := n.Stats()
		emit("sent", float64(s.Sent))
		emit("dropped", float64(s.Dropped))
		emit("mcast_sent", float64(s.McastSent))
		emit("mcast_dropped", float64(s.McastDropped))
		emit("bytes", float64(s.Bytes))
		emit("inbox_max", float64(s.InboxMax))
		emit("inbox_full", float64(s.InboxFull))
		emit("wire_encodes", float64(s.WireEncodes))
		emit("wire_decodes", float64(s.WireDecodes))
		emit("wire_errors", float64(s.WireErrors))
	})
	return n
}

// Beacon returns the network's beacon interval (WithBeacon).
func (n *Network) Beacon() time.Duration { return n.beacon }

// Tracer returns the network's request tracer — the shared span sink
// for every component in this process.
func (n *Network) Tracer() *obs.Tracer { return n.tracer }

// Registry returns the network's metrics registry.
func (n *Network) Registry() *obs.Registry { return n.registry }

// SetFabric installs (or, with nil, detaches) the cross-process
// fabric.
func (n *Network) SetFabric(f Fabric) {
	n.mutate(func(s *netState) { s.fabric = f })
}

// Close shuts the network down deterministically: the fabric is
// detached, every endpoint is closed (pending calls fail, inboxes
// close after their buffered messages drain), and subsequent sends
// fail with ErrClosed. Close is idempotent.
func (n *Network) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	var eps []*Endpoint
	n.mutate(func(s *netState) {
		for _, ep := range s.endpoints {
			eps = append(eps, ep)
		}
		s.endpoints = make(map[Addr]*Endpoint)
		s.groups = make(map[string][]*Endpoint)
		s.fabric = nil
	})
	for _, ep := range eps {
		ep.closeInternal()
	}
}

// Closed reports whether Close has been called.
func (n *Network) Closed() bool { return n.closed.Load() }

// InjectUnicast delivers a point-to-point message that arrived from a
// remote process over the fabric: the wire bytes are decoded through
// the kind table and pushed to the destination endpoint, applying
// this network's partition map (loss was the sending side's call). It
// returns nil when the message reached an inbox, and otherwise says why
// it was dropped, as a NIC discarding a frame would count it: an error
// wrapping ErrUnknownAddr when no endpoint holds the address or its
// inbox refused the message (nobody here will ever answer it), another
// error when a partition separates the two or the body did not decode.
//
// A non-nil lease must back wire (the transport's receive buffer); a
// delivery whose body aliases it retains it, so the transport can
// recycle the buffer only after the consumer releases. The caller keeps
// its own reference either way.
func (n *Network) InjectUnicast(from, to Addr, kind string, callID uint64, reply bool, trace obs.TraceID, wire []byte, lease *Lease) error {
	if n.closed.Load() {
		return ErrNetworkClosed
	}
	st := n.state.Load()
	dst, ok := st.endpoints[to]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownAddr, to)
	}
	if !st.samePartition(from.Node, to.Node) {
		n.dropped.Add(1)
		return errPartitioned
	}
	body, aliased, err := n.decode(kind, wire)
	if err != nil {
		n.dropped.Add(1)
		return err
	}
	msg := Message{From: from, To: to, Kind: kind, Body: body, Size: len(wire), CallID: callID, Reply: reply, Trace: trace}
	if aliased && lease != nil {
		lease.Retain()
		msg.Lease = lease
	}
	if dst.push(msg) {
		n.sent.Add(1)
		n.bytes.Add(uint64(len(wire)))
		return nil
	}
	msg.Release() // push counted the drop
	return refused(to)
}

// errPartitioned is InjectUnicast's drop across a partition.
var errPartitioned = errors.New("san: partitioned from the sender")

// refused is the drop at a full (or closing) inbox: nobody will answer.
func refused(to Addr) error {
	return fmt.Errorf("%w: %s refused the message (inbox full)", ErrUnknownAddr, to)
}

// InjectMulticast fans a group message that arrived from a remote
// process out to this network's local members, decoding a fresh body
// per actual delivery exactly as the local multicast path does. It
// returns the number of members reached. Lease semantics match
// InjectUnicast: each aliased delivery retains it.
func (n *Network) InjectMulticast(from Addr, group, kind string, wire []byte, lease *Lease) int {
	if n.closed.Load() {
		return 0
	}
	return n.fanout(n.state.Load(), nil, from, group, kind, wire, lease)
}

// fanout is both multicast paths' delivery loop: every member but from,
// losses drawn from lossRNG (the local sender; nil draws the receiver's),
// a body decoded per delivery from the shared wire. It returns the
// number of members reached.
func (n *Network) fanout(st *netState, lossRNG *Endpoint, from Addr, group, kind string, wire []byte, lease *Lease) int {
	delivered := 0
	for _, dst := range st.groups[group] {
		if dst.addr == from {
			continue
		}
		n.mcastSent.Add(1)
		rng := lossRNG
		if rng == nil {
			rng = dst
		}
		if !st.samePartition(from.Node, dst.addr.Node) || rng.chance(st.mcastLossP) {
			n.mcastDropped.Add(1)
			continue
		}
		body, aliased, err := n.decode(kind, wire)
		if err != nil {
			n.mcastDropped.Add(1)
			continue
		}
		msg := Message{From: from, Group: group, Kind: kind, Body: body, Size: len(wire)}
		if aliased && lease != nil {
			lease.Retain() // one reference per aliased delivery
			msg.Lease = lease
		}
		if dst.push(msg) {
			delivered++
			n.bytes.Add(uint64(len(wire)))
		} else {
			msg.Release() // push counted the drop
		}
	}
	return delivered
}

// encode serializes body for one send or multicast into a fresh
// refcounted Lease, so deliveries can alias the bytes; the caller
// releases its reference once every delivery holds its own. A nil body
// encodes to nothing and no lease: a bodiless control message (acks,
// shutdowns, stats probes) costs no table lookup and no buffer.
func (n *Network) encode(kind string, body any) ([]byte, *Lease, error) {
	if body == nil {
		return nil, nil, nil
	}
	lease := NewLease(0)
	wire, err := AppendBody(lease.buf, kind, body)
	if err != nil {
		lease.Release()
		n.wireErrors.Add(1)
		return nil, nil, fmt.Errorf("%w: encode %s: %v", ErrCodec, kind, err)
	}
	lease.buf = wire // adopt growth so the pool keeps the capacity
	n.wireEncodes.Add(1)
	return wire, lease, nil
}

// decode materializes one delivery's body; datagrams the network drops
// are never decoded (the receiver never saw them). The result's []byte
// fields may alias wire (aliased=true), and the caller pairs the
// message with the backing lease. Zero-length wire is a nil body and
// skips the table.
func (n *Network) decode(kind string, wire []byte) (any, bool, error) {
	if len(wire) == 0 {
		return nil, false, nil
	}
	body, aliased, err := DecodeBodyView(kind, wire)
	if err != nil {
		n.wireErrors.Add(1)
		return nil, false, fmt.Errorf("%w: decode %s: %v", ErrCodec, kind, err)
	}
	n.wireDecodes.Add(1)
	return body, aliased, nil
}

// mutate applies f to a private clone of the current state and
// publishes the result. All topology/config writers funnel through
// here; the pointer swap is the linearization point for senders.
func (n *Network) mutate(f func(s *netState)) {
	n.mu.Lock()
	s := n.state.Load().clone()
	f(s)
	n.state.Store(s)
	n.mu.Unlock()
}

// SetLoss configures point-to-point and multicast loss probabilities
// in [0, 1]. The paper observed that multicast control traffic is the
// first casualty of SAN saturation (§4.6); tests reproduce that by
// raising mcast loss.
func (n *Network) SetLoss(p2p, mcast float64) {
	n.mutate(func(s *netState) { s.lossP, s.mcastLossP = p2p, mcast })
}

// Partition assigns nodes to partition groups. Messages between nodes
// in different groups are dropped. Nodes not mentioned are in group 0.
func (n *Network) Partition(groups map[string]int) {
	n.mutate(func(s *netState) {
		s.partition = make(map[string]int, len(groups))
		for node, g := range groups {
			s.partition[node] = g
		}
	})
}

// Heal removes all partitions.
func (n *Network) Heal() { n.Partition(nil) }

// LossBurst raises loss probabilities to (p2p, mcast) for dur, then
// restores the values that were in effect when the burst began — a
// scheduled impairment for chaos scripts reproducing the paper's SAN
// saturation bursts (§4.6). The returned timer can cancel the
// restore; overlapping bursts restore whatever each one captured, so
// chaos schedules should serialize them.
func (n *Network) LossBurst(p2p, mcast float64, dur time.Duration) *time.Timer {
	var prevP2P, prevMcast float64
	n.mutate(func(s *netState) {
		prevP2P, prevMcast = s.lossP, s.mcastLossP
		s.lossP, s.mcastLossP = p2p, mcast
	})
	return time.AfterFunc(dur, func() { n.SetLoss(prevP2P, prevMcast) })
}

// PartitionFor partitions the network for dur, then restores the
// partition map that was in effect when it was called — the scheduled
// form of Partition/Heal for scripted fault injection. The returned
// timer can cancel the restore. Like LossBurst, overlapping calls
// restore whatever each one captured; serialize them in schedules.
func (n *Network) PartitionFor(groups map[string]int, dur time.Duration) *time.Timer {
	var prev map[string]int
	n.mutate(func(s *netState) {
		prev = s.partition
		s.partition = make(map[string]int, len(groups))
		for node, g := range groups {
			s.partition[node] = g
		}
	})
	return time.AfterFunc(dur, func() {
		n.mutate(func(s *netState) { s.partition = prev })
	})
}

// Stats returns a snapshot of network counters.
func (n *Network) Stats() Stats {
	return Stats{
		Endpoints:    len(n.state.Load().endpoints),
		Sent:         n.sent.Load(),
		Dropped:      n.dropped.Load() + n.full.Load(),
		McastSent:    n.mcastSent.Load(),
		McastDropped: n.mcastDropped.Load() + n.mcastFull.Load(),
		Bytes:        n.bytes.Load(),
		InboxMax:     n.inboxMax.Load(),
		InboxFull:    n.full.Load() + n.mcastFull.Load(),
		WireEncodes:  n.wireEncodes.Load(),
		WireDecodes:  n.wireDecodes.Load(),
		WireErrors:   n.wireErrors.Load(),
	}
}

// Endpoint registers a new endpoint for addr. Components ask for
// InboxSize (so does inboxCap ≤ 0) or ServerInboxSize; tests may ask for
// other sizes.
// Registering an address twice replaces the old endpoint (the old one is
// closed), which models a restarted process reclaiming its name.
func (n *Network) Endpoint(addr Addr, inboxCap int) *Endpoint {
	if inboxCap <= 0 {
		inboxCap = InboxSize
	}
	ep := &Endpoint{
		net:     n,
		addr:    addr,
		inbox:   make(chan Message, inboxCap),
		pending: make(map[uint64]pendingCall),
	}
	ep.rng.seed(n.seed, addr)
	// The closed check happens inside the mutator (under its lock) so
	// a process racing the network's teardown gets a dead endpoint
	// instead of resurrecting the address table after Close swept it;
	// the unchanged clone mutate publishes in that case is harmless.
	var old *Endpoint
	registered := false
	n.mutate(func(s *netState) {
		if n.closed.Load() {
			return
		}
		old = s.endpoints[addr]
		s.endpoints[addr] = ep
		registered = true
	})
	if !registered {
		ep.closeInternal()
		return ep
	}
	if old != nil {
		old.Close()
	}
	return ep
}

// Lookup reports whether an endpoint is registered for addr.
func (n *Network) Lookup(addr Addr) bool {
	_, ok := n.state.Load().endpoints[addr]
	return ok
}

// Drop closes a single endpoint abruptly (process crash): it vanishes
// from the address table and all groups without any goodbye traffic.
func (n *Network) Drop(addr Addr) {
	var ep *Endpoint
	n.mutate(func(s *netState) {
		var ok bool
		ep, ok = s.endpoints[addr]
		if !ok {
			return
		}
		delete(s.endpoints, addr)
		for g, members := range s.groups {
			s.groups[g] = withoutMember(members, ep)
		}
	})
	if ep != nil {
		n.removed(ep)
	}
}

// DropNode closes every endpoint hosted on the named node and removes
// it from all groups, modelling a workstation crash.
func (n *Network) DropNode(node string) {
	var victims []*Endpoint
	n.mutate(func(s *netState) {
		for addr, ep := range s.endpoints {
			if addr.Node == node {
				victims = append(victims, ep)
				delete(s.endpoints, addr)
			}
		}
		for g, members := range s.groups {
			kept := members
			for _, ep := range members {
				if ep.addr.Node == node {
					kept = withoutMember(kept, ep)
				}
			}
			s.groups[g] = kept
		}
	})
	for _, ep := range victims {
		n.removed(ep)
	}
}

// removed finishes taking ep's address out of the table: ep closes,
// and every Call still awaiting that address ends with ErrUnknownAddr,
// here at once and in other processes when the fabric's down frame
// lands. A restart that reclaims the name removes nothing, so its
// callers keep waiting for the new endpoint.
func (n *Network) removed(ep *Endpoint) {
	ep.closeInternal()
	n.Unreachable(ep.addr)
	if fab := n.state.Load().fabric; fab != nil {
		fab.EndpointDown(ep.addr)
	}
}

// atomicRand is a lock-free deterministic random source (splitmix64):
// each draw advances an atomic counter and mixes it, so concurrent
// senders on one endpoint never serialize on a mutex, and a fixed
// (network seed, address) pair always yields the same sequence.
type atomicRand struct {
	state atomic.Uint64
}

func (r *atomicRand) seed(seed int64, addr Addr) {
	h := fnv.New64a()
	h.Write([]byte(addr.Node))
	h.Write([]byte{0})
	h.Write([]byte(addr.Proc))
	r.state.Store(uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64())
}

// Float64 returns a uniform value in [0, 1).
func (r *atomicRand) Float64() float64 {
	x := r.state.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Endpoint is one process's attachment to the SAN.
type Endpoint struct {
	net   *Network
	addr  Addr
	inbox chan Message
	rng   atomicRand

	closed atomic.Bool
	nextID atomic.Uint64

	// closeMu serializes inbox close against in-flight pushes: pushers
	// hold the read side (concurrent senders never exclude each other;
	// the channel provides its own synchronization), Close the write.
	closeMu sync.RWMutex

	mu      sync.Mutex // guards pending, groups
	pending map[uint64]pendingCall
	groups  []string
}

// pendingCall is one Call awaiting its reply from to.
type pendingCall struct {
	to Addr
	ch chan Message
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() Addr { return e.addr }

// Inbox returns the receive channel. The channel is closed when the
// endpoint closes.
func (e *Endpoint) Inbox() <-chan Message { return e.inbox }

// Tracer returns the owning network's request tracer, so components
// built around an endpoint can record spans without extra plumbing.
func (e *Endpoint) Tracer() *obs.Tracer { return e.net.tracer }

// Registry returns the owning network's metrics registry.
func (e *Endpoint) Registry() *obs.Registry { return e.net.registry }

// Beacon returns the endpoint's network's beacon interval.
func (e *Endpoint) Beacon() time.Duration { return e.net.beacon }

// chance draws a loss decision from the endpoint's own rng.
func (e *Endpoint) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return e.rng.Float64() < p
}

// push attempts non-blocking delivery: a reply goes straight to the
// Call that awaits it, everything else to the inbox. A failed push is
// counted here and only here, so a drop costs one atomic add: at a full
// inbox in full or mcastFull, at a closed endpoint in dropped or
// mcastDropped.
func (e *Endpoint) push(msg Message) bool {
	n, closed, full := e.net, &e.net.dropped, &e.net.full
	if msg.Group != "" {
		closed, full = &n.mcastDropped, &n.mcastFull
	}
	if msg.Reply && msg.CallID != 0 {
		if e.closed.Load() {
			closed.Add(1)
			return false
		}
		return e.DeliverReply(msg)
	}
	e.closeMu.RLock()
	if e.closed.Load() {
		e.closeMu.RUnlock()
		closed.Add(1)
		return false
	}
	select {
	case e.inbox <- msg:
	default:
		e.closeMu.RUnlock()
		full.Add(1)
		return false
	}
	e.closeMu.RUnlock()
	// Raise the high-water mark: one load and a compare unless this push
	// made an inbox the deepest yet (a lost race re-reads the mark).
	hw := &n.inboxMax
	for depth, mark := uint64(len(e.inbox)), hw.Load(); depth > mark && !hw.CompareAndSwap(mark, depth); mark = hw.Load() {
	}
	return true
}

// Close detaches the endpoint: it leaves all groups, unregisters the
// address, fails pending calls, and closes the inbox. Calls awaiting
// the address end only when this endpoint actually held it (removed) —
// a replaced endpoint (restart reclaiming its name) must not fail its
// successor's callers.
func (e *Endpoint) Close() {
	removed := false
	e.net.mutate(func(s *netState) {
		if s.endpoints[e.addr] == e {
			delete(s.endpoints, e.addr)
			removed = true
		}
		for _, g := range e.groupsSnapshot() {
			s.groups[g] = withoutMember(s.groups[g], e)
		}
	})
	if removed {
		e.net.removed(e)
	} else {
		e.closeInternal()
	}
}

func (e *Endpoint) groupsSnapshot() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.groups...)
}

func (e *Endpoint) closeInternal() {
	e.closeMu.Lock()
	if e.closed.Load() {
		e.closeMu.Unlock()
		return
	}
	e.closed.Store(true)
	close(e.inbox)
	e.closeMu.Unlock()
	e.mu.Lock()
	for id, c := range e.pending {
		close(c.ch)
		delete(e.pending, id)
	}
	e.mu.Unlock()
}

// Unreachable ends every Call awaiting a reply from addr with
// ErrUnknownAddr: that endpoint closed, here or (as a fabric heard,
// behind any reply it sent) in another process, so a request still on
// its way there is dropped.
func (n *Network) Unreachable(addr Addr) {
	for _, ep := range n.state.Load().endpoints {
		ep.unreachable(addr, 0)
	}
}

// UnreachableCall ends with ErrUnknownAddr the one Call caller awaits
// under callID, if it awaits addr: the process that owns addr found no
// endpoint there when the request arrived. Other Calls to addr are
// untouched, so one that reached a live endpoint is never ended by it.
func (n *Network) UnreachableCall(caller Addr, callID uint64, addr Addr) {
	if ep, ok := n.state.Load().endpoints[caller]; ok {
		ep.unreachable(addr, callID)
	}
}

// unreachable closes the pending Calls to addr: every one, or with a
// non-zero callID only that one.
func (e *Endpoint) unreachable(addr Addr, callID uint64) {
	e.mu.Lock()
	for id, c := range e.pending {
		if c.to == addr && (callID == 0 || id == callID) {
			close(c.ch)
			delete(e.pending, id)
		}
	}
	e.mu.Unlock()
}

// Join subscribes the endpoint to a multicast group (idempotent).
func (e *Endpoint) Join(group string) {
	e.net.mutate(func(s *netState) {
		members := s.groups[group]
		for _, m := range members {
			if m == e {
				return
			}
		}
		out := make([]*Endpoint, 0, len(members)+1)
		out = append(out, members...)
		s.groups[group] = append(out, e)
	})
	e.mu.Lock()
	found := false
	for _, g := range e.groups {
		if g == group {
			found = true
			break
		}
	}
	if !found {
		e.groups = append(e.groups, group)
	}
	e.mu.Unlock()
}

// Leave unsubscribes the endpoint from a multicast group.
func (e *Endpoint) Leave(group string) {
	e.net.mutate(func(s *netState) {
		s.groups[group] = withoutMember(s.groups[group], e)
	})
	e.mu.Lock()
	for i, g := range e.groups {
		if g == group {
			e.groups = append(e.groups[:i], e.groups[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
}

// Send delivers a point-to-point message. It returns ErrUnknownAddr if
// no endpoint holds the destination address, or an ErrCodec-wrapped
// error when the body cannot be serialized; losses and partition drops
// are silent (datagram semantics), mirroring a real SAN. size is
// ignored: a message's size is the length of its encoding.
func (e *Endpoint) Send(to Addr, kind string, body any, size int) error {
	return e.SendTraced(0, to, kind, body, size)
}

// SendTraced is Send stamped with a request's trace id, so the one-way
// legs of a sampled request stay attributable at the receiver.
func (e *Endpoint) SendTraced(trace obs.TraceID, to Addr, kind string, body any, _ int) error {
	return e.send(to, kind, body, 0, false, time.Time{}, trace)
}

// send is every point-to-point path. A destination in another OS
// process goes to the fabric, whose delivery on the far side is the
// remote network's business (datagram semantics, no acknowledgement);
// a fabric that cannot place the address surfaces as ErrUnknownAddr,
// the answer a purely local network gives for an unbound address, and
// for a Call's request that a full local inbox refused.
// Either way the sender pays serialization before the network can drop
// the datagram, as a real NIC would, so an unencodable body is an
// error under loss and partition too.
func (e *Endpoint) send(to Addr, kind string, body any, callID uint64, reply bool, deadline time.Time, trace obs.TraceID) error {
	if e.closed.Load() {
		return ErrClosed // a dead process sends nothing
	}
	n := e.net
	if n.closed.Load() {
		return ErrNetworkClosed
	}
	st := n.state.Load()
	dst, local := st.endpoints[to]
	if !local && st.fabric == nil {
		return fmt.Errorf("%w: %s", ErrUnknownAddr, to)
	}
	wire, lease, err := n.encode(kind, body)
	if err != nil {
		return err
	}
	if !st.samePartition(e.addr.Node, to.Node) || e.chance(st.lossP) {
		lease.Release()
		n.dropped.Add(1)
		return nil
	}
	if !local {
		_, prompt := body.(Prompter)
		prompt = prompt || (callID != 0 && !reply) // a caller waits on it
		handed := st.fabric.Unicast(e.addr, to, kind, callID, reply, prompt, trace, wire, lease)
		lease.Release()
		if !handed {
			n.dropped.Add(1)
			return fmt.Errorf("%w: %s", ErrUnknownAddr, to)
		}
		n.sent.Add(1)
		n.bytes.Add(uint64(len(wire)))
		return nil
	}
	body, aliased, err := n.decode(kind, wire)
	if err != nil {
		// The bytes arrived but the receiver cannot parse them:
		// dropped on delivery, surfaced to the sender for tests.
		lease.Release()
		n.dropped.Add(1)
		return err
	}
	msg := Message{From: e.addr, To: to, Kind: kind, Body: body, Size: len(wire), CallID: callID, Reply: reply, Deadline: deadline, Trace: trace}
	if aliased {
		msg.Lease = lease // the sender's reference becomes the delivery's
	} else {
		lease.Release()
	}
	if !dst.push(msg) {
		msg.Release() // push counted the drop
		if callID != 0 && !reply {
			return refused(to) // its caller ends now
		}
		return nil
	}
	n.sent.Add(1)
	n.bytes.Add(uint64(len(wire)))
	return nil
}

// Multicast delivers a best-effort message to every group member
// except the sender. It returns the number of local members reached
// (after loss and full inboxes). The whole fanout reads one topology
// snapshot: membership or impairment changes mid-loop affect only
// later multicasts.
//
// The body is encoded exactly once per call, however large the group:
// the immutable byte slice is shared across the fanout and each actual
// delivery decodes its own fresh value from it (lost datagrams are
// never decoded — the receiver never saw them). An unencodable body
// reaches nobody and returns 0. size is ignored, as in Send.
func (e *Endpoint) Multicast(group, kind string, body any, _ int) int {
	n := e.net
	if e.closed.Load() || n.closed.Load() {
		return 0 // a dead process sends nothing, to anyone
	}
	st := n.state.Load()
	if len(st.groups[group]) == 0 && st.fabric == nil {
		return 0 // nobody to hear it: nothing to encode
	}
	wire, lease, err := n.encode(kind, body) // encode-once fan-out: 1 per Multicast
	if err != nil {
		return 0
	}
	delivered := n.fanout(st, e, e.addr, group, kind, wire, lease)
	if st.fabric != nil {
		// The same encode-once bytes cross the process boundary; each
		// remote network re-fans them out to its own members.
		st.fabric.Multicast(e.addr, group, kind, wire)
	}
	lease.Release()
	return delivered
}

// Call sends a request and waits for the matching reply or context
// cancellation. The component owning the destination endpoint must
// respond via Respond; the SAN hands that reply to this goroutine at
// delivery (push), never to the inbox, so an endpoint that only calls
// needs no receive loop. The context's deadline, if any, is stamped on
// the delivered request (Message.Deadline) so the callee can skip work
// nobody will wait for.
func (e *Endpoint) Call(ctx context.Context, to Addr, kind string, body any, _ int) (Message, error) {
	if e.closed.Load() {
		return Message{}, ErrClosed
	}
	id := e.nextID.Add(1)
	ch := make(chan Message, 1)
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return Message{}, ErrClosed
	}
	e.pending[id] = pendingCall{to: to, ch: ch}
	e.mu.Unlock()

	defer func() {
		e.mu.Lock()
		delete(e.pending, id)
		e.mu.Unlock()
	}()

	deadline, _ := ctx.Deadline()
	if err := e.send(to, kind, body, id, false, deadline, obs.TraceFrom(ctx)); err != nil {
		return Message{}, err
	}
	select {
	case m, ok := <-ch:
		if ok {
			return m, nil
		}
		if e.closed.Load() {
			return Message{}, ErrClosed
		}
		return Message{}, fmt.Errorf("%w: %s", ErrUnknownAddr, to) // Unreachable

	case <-ctx.Done():
		return Message{}, fmt.Errorf("%w: %s to %s", ErrTimeout, kind, to)
	}
}

// DeliverReply hands a reply to the Call that awaits it and reports
// whether msg was a reply. push is its only caller that ever sees one;
// it stays exported for bench/layers.go, whose pump over the inbox now
// idles (ROADMAP item 6 un-exports it).
func (e *Endpoint) DeliverReply(msg Message) bool {
	if !msg.Reply || msg.CallID == 0 {
		return false
	}
	e.mu.Lock()
	c, ok := e.pending[msg.CallID]
	if ok {
		delete(e.pending, msg.CallID)
	}
	e.mu.Unlock()
	if ok {
		c.ch <- msg
	} else {
		msg.Release() // the caller gave up: nobody will read the body
	}
	return true // replies are consumed even if the caller gave up
}

// Respond answers a request message received from Call. The request's
// trace id is echoed onto the reply so the return leg of a traced
// request stays attributable.
func (e *Endpoint) Respond(req Message, kind string, body any, _ int) error {
	return e.send(req.From, kind, body, req.CallID, true, time.Time{}, req.Trace)
}

// Expired reports whether the message carries a deadline that has
// already passed at time now — the check every hop makes before
// spending work on a request nobody awaits.
func (m Message) Expired(now time.Time) bool {
	return !m.Deadline.IsZero() && now.After(m.Deadline)
}
