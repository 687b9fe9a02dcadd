package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
)

// Config assembles a Bridge.
type Config struct {
	// Net is the local SAN the bridge splices into the cluster; every
	// network serializes, so its bodies already cross as bytes.
	Net *san.Network

	// Listen is the socket to accept peers on: "tcp:host:port" or
	// "unix:/path" (a bare "host:port" implies tcp). Port 0 picks a
	// free port; Advertise()/Addr() report the resolved address, which
	// is what peers are told to dial — so bind a dialable address, not
	// a wildcard.
	Listen string

	// Join lists seed addresses to dial. One live seed suffices: its
	// hello gossips the rest of the mesh.
	Join []string

	// ID is the node-name prefix this process owns, and names the
	// bridge across the cluster: a peer sends here every unicast whose
	// destination node this prefix matches longest (san.Owner). The
	// empty prefix owns every node no longer prefix claims.
	ID string
}

// Data-plane thresholds and connection timers. None is configurable:
// no deployment ever set one, and each is sized against the others.
const (
	// DefaultChunkBytes is the chunked-relay threshold: a leased body
	// larger than this streams to peers as FlagChunk fragments instead
	// of one giant frame, so ordinary frames interleave between
	// fragments rather than stalling behind a 500 KB blob occupying a
	// whole batch. Sized so a 64 KB cache object still rides one
	// (vectored) frame while the long tail of huge GIFs fragments.
	DefaultChunkBytes = 128 << 10
	// chunkFrag is the fragment size of chunked relay — above the
	// batch threshold, so each fragment is written as it is appended
	// and competing small frames never wait behind more than one.
	chunkFrag = 16 << 10
	// vecMinBody: leased bodies at least this large skip the staging
	// copy and go to the socket as their own iovec. Below it the
	// iovec bookkeeping costs more than the memcpy it saves.
	vecMinBody = 2 << 10
	// DefaultMaxBatchBytes bounds the bytes queued behind an
	// in-progress write to one peer. When a peer's reader stalls (gray
	// failure: the connection is up but nothing drains), sends beyond
	// the bound fail fast with ErrBackpressure — the datagram drops
	// and its lease releases — instead of buffering without limit; the
	// refusals are counted in Stats.Backpressure so upstream admission
	// control can see remote congestion. Far above the flush threshold
	// (a healthy peer drains long before this), small enough that a
	// stalled peer triggers backpressure within one RTT's worth of
	// traffic.
	DefaultMaxBatchBytes = 1 << 20

	// redialMin/redialMax bound the reconnect backoff.
	redialMin = 20 * time.Millisecond
	redialMax = time.Second
	// handshakeTimeout bounds the dial and the hello exchange.
	handshakeTimeout = 5 * time.Second
	// writeTimeout bounds one flush to a peer; a stall longer than
	// this kills the connection rather than wedging every sender
	// behind one sick peer.
	writeTimeout = 10 * time.Second
)

// Stats counts bridge activity.
type Stats struct {
	Peers        int    // live peer connections
	FramesOut    uint64 // frames handed to peer batchers
	FramesIn     uint64 // frames decoded from peers
	BytesIn      uint64 // raw bytes read
	Batches      uint64 // write syscalls issued (all peers, lifetime)
	TimerWrites  uint64 // of those, the ones the flush timer ran: frames that waited for the clock
	BytesOut     uint64 // bytes written (all peers, lifetime)
	Floods       uint64 // always 0: a unicast goes to its node's owner or nowhere (bench/layers.go reads it)
	FrameErrors  uint64 // connections dropped for stream corruption
	Injected     uint64 // frames delivered into the local SAN
	Reconnects   uint64 // successful dials after the first
	HellosIn     uint64 // handshakes accepted
	Unroutable   uint64 // unicasts refused: no connected peer owns the destination's node
	Chunked      uint64 // outbound bodies streamed as chunk fragments
	Reassembled  uint64 // inbound chunk streams completed and injected
	Backpressure uint64 // frames refused: a peer's write queue was full
	MaxQueued    uint64 // highest bytes any peer ever staged behind a write
}

// peer is one live connection to another bridge.
type peer struct {
	id        string
	advertise string
	conn      net.Conn
	batch     *Batcher
	dialed    bool // this side initiated the connection
	done      chan struct{}
	closeOnce sync.Once
}

func (p *peer) close() {
	p.closeOnce.Do(func() {
		_ = p.batch.Close()
		_ = p.conn.Close()
		close(p.done)
	})
}

// canonical reports whether this connection is the one both sides
// agree to keep when a pair accidentally holds two (each dialed the
// other simultaneously): the connection initiated by the
// lexicographically smaller bridge id wins. Both ends compute the
// same answer from the same two ids.
func (p *peer) canonical(selfID string) bool {
	if p.dialed {
		return selfID < p.id
	}
	return p.id < selfID
}

// Bridge splices a san.Network into a multi-process SAN. It implements
// san.Fabric: the network hands it messages for non-local endpoints;
// frames arriving from peers re-enter through the network's inject
// APIs. A peer's id is the node-name prefix its process owns, so a
// unicast goes to the peer owning the destination's node (san.Owner,
// the rule managers delegate restarts by) and the bridge holds no
// per-endpoint state.
type Bridge struct {
	cfg       Config
	net       *san.Network
	ln        net.Listener
	advertise string

	mu      sync.RWMutex
	peers   map[string]*peer
	dialing map[string]bool // canonical addrs with a live dial loop
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup

	framesOut   atomic.Uint64
	framesIn    atomic.Uint64
	bytesIn     atomic.Uint64
	frameErrors atomic.Uint64
	injected    atomic.Uint64
	reconnects  atomic.Uint64
	hellosIn    atomic.Uint64
	unroutable  atomic.Uint64
	chunked     atomic.Uint64
	reassembled atomic.Uint64
	chunkSeq    atomic.Uint64 // per-bridge fragment-stream id source
	// severedUntil, while in the future, suppresses dials and inbound
	// peer registrations (SeverPeers) — guarded by mu.
	severedUntil time.Time

	// Batch counters accumulated from connections that have closed;
	// Stats() adds the live batchers on top.
	deadBatches      atomic.Uint64
	deadTimerWrites  atomic.Uint64
	deadBytesOut     atomic.Uint64
	deadBackpressure atomic.Uint64
	deadMaxQueued    atomic.Uint64 // max, not sum: high-water across dead conns

	framePool sync.Pool
}

// New opens the listener, installs the bridge as the network's fabric,
// and begins dialing the seed addresses. The bridge owns its listener
// and all peer connections until Close.
func New(cfg Config) (*Bridge, error) {
	if cfg.Net == nil {
		return nil, errors.New("transport: Config.Net is required")
	}
	network, address, err := splitListen(cfg.Listen)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	b := &Bridge{
		cfg:       cfg,
		net:       cfg.Net,
		ln:        ln,
		advertise: network + ":" + ln.Addr().String(),
		peers:     make(map[string]*peer),
		dialing:   make(map[string]bool),
		done:      make(chan struct{}),
	}
	b.framePool.New = func() any {
		buf := make([]byte, 0, 2048)
		return &buf
	}
	cfg.Net.SetFabric(b)
	cfg.Net.Registry().SetCollector("bridge", func(emit func(string, float64)) {
		st := b.Stats()
		emit("peers", float64(st.Peers))
		emit("frames_out", float64(st.FramesOut))
		emit("frames_in", float64(st.FramesIn))
		emit("bytes_in", float64(st.BytesIn))
		emit("bytes_out", float64(st.BytesOut))
		emit("batches", float64(st.Batches))
		emit("timer_writes", float64(st.TimerWrites))
		emit("frame_errors", float64(st.FrameErrors))
		emit("injected", float64(st.Injected))
		emit("reconnects", float64(st.Reconnects))
		emit("unroutable", float64(st.Unroutable))
		emit("chunked", float64(st.Chunked))
		emit("reassembled", float64(st.Reassembled))
		emit("backpressure", float64(st.Backpressure))
		emit("max_queued", float64(st.MaxQueued))
	})
	b.wg.Add(1)
	go b.acceptLoop()
	for _, addr := range cfg.Join {
		b.ensureDial(addr)
	}
	return b, nil
}

// splitListen parses "tcp:host:port" / "unix:/path" / bare "host:port"
// into a net.Listen network+address pair.
func splitListen(s string) (network, address string, err error) {
	switch {
	case strings.HasPrefix(s, "tcp:"):
		return "tcp", s[len("tcp:"):], nil
	case strings.HasPrefix(s, "unix:"):
		return "unix", s[len("unix:"):], nil
	case s == "":
		return "", "", errors.New("transport: empty listen address")
	default:
		return "tcp", s, nil
	}
}

// canonicalAddr normalizes a dialable address to the advertised form.
func canonicalAddr(s string) (string, error) {
	network, address, err := splitListen(s)
	if err != nil {
		return "", err
	}
	return network + ":" + address, nil
}

// ID returns the bridge's id: the node-name prefix its process owns.
func (b *Bridge) ID() string { return b.cfg.ID }

// Advertise returns the canonical dialable listen address
// (scheme-prefixed), resolved — useful with ":0" listens.
func (b *Bridge) Advertise() string { return b.advertise }

// Peers returns the ids of currently connected peers.
func (b *Bridge) Peers() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.peers))
	for id := range b.peers {
		out = append(out, id)
	}
	return out
}

// WaitPeers blocks until at least n peers are connected (true) or the
// timeout expires (false).
func (b *Bridge) WaitPeers(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		b.mu.RLock()
		got := len(b.peers)
		b.mu.RUnlock()
		if got >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// SeverPeers force-closes every live peer connection and, when d > 0,
// refuses dials and inbound registrations until d elapses — the
// multi-process analogue of san.Network.PartitionFor, so scripted
// TCP-partition schedules share the in-process chaos vocabulary.
// Healing is automatic: when the window passes, the standing dial
// loops reconnect, and each peer owns its prefix again.
// SeverPeers(0) just drops the current connections (redial starts
// immediately), matching a transient network blip.
func (b *Bridge) SeverPeers(d time.Duration) {
	b.mu.Lock()
	if d > 0 {
		until := time.Now().Add(d)
		if until.After(b.severedUntil) {
			b.severedUntil = until
		}
	}
	peers := b.peersLocked()
	b.mu.Unlock()
	for _, p := range peers {
		// Close the conn, not the peer: the read loop unblocks with an
		// error and runConn's teardown (removePeer → p.close) does the
		// bookkeeping exactly as for a real network failure.
		_ = p.conn.Close()
	}
}

// severedFor reports how much of a SeverPeers window remains.
func (b *Bridge) severedFor() time.Duration {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.severedUntil.IsZero() {
		return 0
	}
	return time.Until(b.severedUntil)
}

// Stats returns a snapshot of the counters.
func (b *Bridge) Stats() Stats {
	st := Stats{
		FramesOut:    b.framesOut.Load(),
		FramesIn:     b.framesIn.Load(),
		BytesIn:      b.bytesIn.Load(),
		FrameErrors:  b.frameErrors.Load(),
		Injected:     b.injected.Load(),
		Reconnects:   b.reconnects.Load(),
		HellosIn:     b.hellosIn.Load(),
		Unroutable:   b.unroutable.Load(),
		Chunked:      b.chunked.Load(),
		Reassembled:  b.reassembled.Load(),
		Batches:      b.deadBatches.Load(),
		TimerWrites:  b.deadTimerWrites.Load(),
		BytesOut:     b.deadBytesOut.Load(),
		Backpressure: b.deadBackpressure.Load(),
		MaxQueued:    b.deadMaxQueued.Load(),
	}
	b.mu.RLock()
	st.Peers = len(b.peers)
	live := make([]*Batcher, 0, len(b.peers))
	for _, p := range b.peers {
		live = append(live, p.batch)
	}
	b.mu.RUnlock()
	for _, batch := range live {
		bs := batch.Stats()
		st.Batches += bs.Batches
		st.TimerWrites += bs.TimeFlushes
		st.BytesOut += bs.Bytes
		st.Backpressure += bs.Backpressure
		if bs.MaxQueued > st.MaxQueued {
			st.MaxQueued = bs.MaxQueued
		}
	}
	return st
}

// Close tears the bridge down: fabric detached, listener closed, all
// peer connections flushed and closed, every goroutine joined.
func (b *Bridge) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	peers := b.peersLocked()
	b.mu.Unlock()

	if !b.net.Closed() {
		b.net.SetFabric(nil)
	}
	close(b.done)
	_ = b.ln.Close()
	for _, p := range peers {
		p.close()
	}
	b.wg.Wait()
	return nil
}

func (b *Bridge) isClosed() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.closed
}

// ---------------------------------------------------------------------------
// Fabric (outbound).

// Unicast implements san.Fabric. The route is the peer that owns the
// destination's node: of this process and its connected peers, the one
// whose id is the longest prefix of it (ownerLocked). When nobody does,
// or this process does (the SAN found no such local endpoint), the send
// is refused and the SAN surfaces ErrUnknownAddr at once; a Call routed
// to an owner that has no such endpoint is answered by it (inject). A
// prompt frame never waits for the flush timer (Batcher.Append).
func (b *Bridge) Unicast(from, to san.Addr, kind string, callID uint64, reply, prompt bool, trace obs.TraceID, wire []byte, lease *san.Lease) bool {
	b.mu.RLock()
	p := b.ownerLocked(to.Node)
	b.mu.RUnlock()
	if p == nil {
		b.unroutable.Add(1)
		return false
	}

	var flags byte
	if reply {
		flags |= FlagReply
	}
	// Huge leased bodies stream as chunk fragments so competing small
	// frames interleave between them instead of stalling a whole batch
	// behind one 500 KB blob.
	if lease != nil && len(wire) > DefaultChunkBytes && len(wire) <= MaxChunkBody {
		return b.unicastChunked(p, from, to, kind, callID, flags, prompt, trace, wire, lease)
	}

	bufp := b.framePool.Get().(*[]byte)
	var hdr, body, trailer []byte
	var done func()
	if lease != nil && len(wire) >= vecMinBody {
		// Vectored: only the header and CRC trailer are staged; the
		// already-encoded body goes to the socket as its own iovec,
		// pinned by a lease reference until its flush.
		h, crc := AppendDataVec((*bufp)[:0], from, to, kind, callID, flags, uint64(trace), nil, wire)
		hdr, body, trailer = h, wire, crc[:]
		lease.Retain()
		done = lease.Release
	} else {
		hdr = AppendDataTrace((*bufp)[:0], from, to, kind, callID, flags, uint64(trace), wire)
	}
	if trace.Sampled() {
		done = b.flushSpan(trace, kind, len(wire), done)
	}
	sent := b.appendToPeer(p, hdr, body, trailer, prompt, done)
	if sent {
		b.framesOut.Add(1)
	}
	*bufp = hdr[:0]
	b.framePool.Put(bufp)
	return sent
}

// ownerLocked returns the peer owning node, nil when this process owns
// it or nobody does. A peer's id is the prefix it owns, and ids are
// unique (registerPeer refuses a second and this bridge's own), so no
// two candidates tie. The caller holds b.mu.
func (b *Bridge) ownerLocked(node string) *peer {
	id, _ := san.Owner(node, func(yield func(string) bool) {
		if yield(b.cfg.ID) {
			for id := range b.peers {
				if !yield(id) {
					return
				}
			}
		}
	}, ownedPrefix, ownedPrefix)
	return b.peers[id]
}

// ownedPrefix is a bridge id read as the node-name prefix it owns.
func ownedPrefix(id string) string { return id }

// unicastChunked streams wire to p as FlagChunk fragments of chunkFrag
// bytes. Each fragment is a self-contained frame (envelope: stream id,
// total, offset) carrying its slice of the body as an iovec, so the
// body is still never copied on the send side; the receiver reassembles
// into one lease and injects the completed message. The send counts as
// handed over if its first fragment was accepted — a failure later in
// the stream is a dying connection, and the loss surfaces exactly like
// any other dropped datagram.
//
// Lease discipline: every appendToPeer call is handed exactly one
// retained reference, and the batcher guarantees exactly one release
// of it — inline when the append is refused, after the flush that
// wrote the fragment otherwise. The Retain therefore sits immediately
// before the hand-off and nowhere else; this loop itself never
// releases. A prompt body's fragments are prompt too.
func (b *Bridge) unicastChunked(p *peer, from, to san.Addr, kind string, callID uint64, flags byte, prompt bool, trace obs.TraceID, wire []byte, lease *san.Lease) bool {
	id := b.chunkSeq.Add(1)
	total := len(wire)
	flags |= FlagChunk
	bufp := b.framePool.Get().(*[]byte)
	scratch := (*bufp)[:0]
	var env [3 * 10]byte // three uvarints, 10 bytes max each
	frames := 0
	for off := 0; off < total; off += chunkFrag {
		end := min(off+chunkFrag, total)
		frag := wire[off:end]
		prefix := appendChunkEnv(env[:0], id, total, off)
		hdr, trailer := AppendDataVec(scratch[:0], from, to, kind, callID, flags, uint64(trace), prefix, frag)
		scratch = hdr
		lease.Retain() // ownership of this one ref passes to the batcher
		done := lease.Release
		if trace.Sampled() && end == total {
			// One span per chunked send, closed when the final
			// fragment's flush completes.
			done = b.flushSpan(trace, kind, total, done)
		}
		if !b.appendToPeer(p, hdr, frag, trailer[:], prompt, done) {
			// The peer refused (dying, or its queue is full): the rest of
			// the stream stays home. Fed to a redialed connection, a tail
			// with no head would seed a build that can never complete.
			break
		}
		frames++
	}
	b.framesOut.Add(uint64(frames))
	b.chunked.Add(1)
	*bufp = scratch[:0]
	b.framePool.Put(bufp)
	return frames > 0
}

// EndpointDown implements san.Fabric: a local endpoint closed. Every
// peer hears a down frame, so a Call of theirs still awaiting the
// address ends at once.
func (b *Bridge) EndpointDown(a san.Addr) {
	bufp := b.framePool.Get().(*[]byte)
	frame := AppendDown((*bufp)[:0], a, san.Addr{}, 0)
	b.broadcast(frame)
	*bufp = frame[:0]
	b.framePool.Put(bufp)
}

func (b *Bridge) peersLocked() []*peer {
	out := make([]*peer, 0, len(b.peers))
	for _, p := range b.peers {
		out = append(out, p)
	}
	return out
}

// broadcast appends one staged frame to every peer's batcher.
func (b *Bridge) broadcast(frame []byte) {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return
	}
	peers := b.peersLocked()
	b.mu.RUnlock()
	sent := 0
	for _, p := range peers {
		if b.appendToPeer(p, frame, nil, nil, false, nil) {
			sent++
		}
	}
	b.framesOut.Add(uint64(sent))
}

// appendToPeer queues one frame (hdr ++ body ++ trailer; see
// Batcher.Append) on one peer's batcher, and is the one place a send
// result is classified. A write error (e.g. the write timeout firing
// on a stalled peer) is fatal to the connection: the conn is closed so
// the read loop unblocks, the peer is removed, and the dial loop
// redials — a wedged connection must never keep counting as a live
// peer. The batcher runs done itself on every path, refusals included.
// A prompt or ≥ 8 KiB frame's appender writes it, so one caller per
// stalled connection (a probe, a dispatch, a Put or Inject, a worker's
// result) may wait one writeTimeout: the failed write closes the peer,
// and meanwhile other appenders stage behind it (a Call ends at its own
// deadline) or get ErrBackpressure at once.
func (b *Bridge) appendToPeer(p *peer, hdr, body, trailer []byte, prompt bool, done func()) bool {
	err := p.batch.Append(hdr, body, trailer, prompt, done)
	if err == nil {
		return true
	}
	if errors.Is(err, ErrBackpressure) {
		// Remote congestion, not a dead connection: drop this datagram
		// and keep the conn. Closing here would turn every overload
		// into a reconnect storm; the counter lets admission control
		// upstream shed instead.
		return false
	}
	if !errors.Is(err, ErrBatcherClosed) {
		p.close()
	}
	return false
}

// flushSpan builds a batcher completion hook that records a
// "transport.flush" span for a sampled trace: the duration covers the
// batching wait plus the write that carried the frame. inner, when
// non-nil, runs first (the body's lease release).
func (b *Bridge) flushSpan(trace obs.TraceID, kind string, size int, inner func()) func() {
	start := time.Now()
	return func() {
		if inner != nil {
			inner()
		}
		b.net.Tracer().Record(obs.Span{
			Trace: trace,
			Comp:  b.cfg.ID,
			Hop:   "transport.flush",
			Note:  kind,
			Start: start.UnixNano(),
			Dur:   int64(time.Since(start)),
		})
	}
}

// Multicast implements san.Fabric: the frame is built once and the
// same bytes are appended to every peer's batch — the encode-once
// fan-out extended across the wire.
func (b *Bridge) Multicast(from san.Addr, group, kind string, wire []byte) {
	bufp := b.framePool.Get().(*[]byte)
	frame := AppendMcast((*bufp)[:0], from, group, kind, wire)
	b.broadcast(frame)
	*bufp = frame[:0]
	b.framePool.Put(bufp)
}

// ---------------------------------------------------------------------------
// Connection lifecycle.

func (b *Bridge) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return // listener closed
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			_, _ = b.runConn(conn, false)
		}()
	}
}

// ensureDial starts (at most) one persistent dial loop for addr.
func (b *Bridge) ensureDial(addr string) {
	canon, err := canonicalAddr(addr)
	if err != nil {
		return
	}
	b.mu.Lock()
	if b.closed || canon == b.advertise || b.dialing[canon] {
		b.mu.Unlock()
		return
	}
	b.dialing[canon] = true
	// Add under the lock: Close sets closed under the same lock before
	// it waits, so the waitgroup can never be grown after Wait begins.
	b.wg.Add(1)
	b.mu.Unlock()
	go b.dialLoop(canon)
}

// dialRetireAfter bounds how long a dial loop keeps retrying a
// gossiped address that never answers before retiring. Configured
// seed addresses are never retired — the operator asserted they
// exist.
const dialRetireAfter = 2 * time.Minute

// dialLoop keeps a connection to addr alive: dial, hand off to
// runConn, wait for the peer to die, redial with backoff. It stands
// down while another connection covers the same peer — matched by the
// peer id the address last answered with, so an aliased address
// ("localhost" vs "127.0.0.1") or a duplicate-rejected dial waits on
// the surviving connection instead of churning. Gossiped addresses
// that stay dead past dialRetireAfter are retired (a future hello
// re-announces them); configured seeds retry forever.
func (b *Bridge) dialLoop(canon string) {
	defer b.wg.Done()
	defer func() {
		b.mu.Lock()
		delete(b.dialing, canon)
		b.mu.Unlock()
	}()
	network, address, _ := splitListen(canon)
	backoff := redialMin
	connected := false
	peerID := "" // who this address last identified as
	deadSince := time.Now()
	for {
		if b.isClosed() {
			return
		}
		if wait := b.severedFor(); wait > 0 {
			// A scripted partition (SeverPeers) is in force: hold all
			// redials until the window passes, then heal.
			select {
			case <-time.After(wait):
			case <-b.done:
				return
			}
			continue
		}
		if p := b.peerByAdvertiseOrID(canon, peerID); p != nil {
			select {
			case <-p.done:
				backoff = redialMin
				deadSince = time.Now()
			case <-b.done:
				return
			}
			continue
		}
		conn, err := net.DialTimeout(network, address, handshakeTimeout)
		if err == nil {
			id, kept := b.runConn(conn, true) // returns when the conn dies or is rejected
			if id != "" {
				peerID = id
			}
			if kept {
				if connected {
					b.reconnects.Add(1)
				}
				connected = true
				backoff = redialMin
				deadSince = time.Now()
				continue
			}
			// Rejected (duplicate, self, or bad handshake): fall
			// through to the backoff — instant redial would churn.
		}
		if !b.isSeed(canon) && time.Since(deadSince) > dialRetireAfter {
			return
		}
		select {
		case <-time.After(backoff):
		case <-b.done:
			return
		}
		backoff *= 2
		if backoff > redialMax {
			backoff = redialMax
		}
	}
}

func (b *Bridge) isSeed(canon string) bool {
	for _, s := range b.cfg.Join {
		if c, err := canonicalAddr(s); err == nil && c == canon {
			return true
		}
	}
	return false
}

// peerByAdvertiseOrID finds a live peer covering the dialed address:
// by its advertised address, or by the identity the address answered
// with last time (covers aliased addresses and duplicate-conn
// rejections).
func (b *Bridge) peerByAdvertiseOrID(canon, id string) *peer {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if id != "" {
		if p, ok := b.peers[id]; ok {
			return p
		}
	}
	for _, p := range b.peers {
		if p.advertise == canon {
			return p
		}
	}
	return nil
}

// helloFor snapshots the gossip payload: who we are (the prefix we
// own) and every peer address we can vouch for.
func (b *Bridge) helloFor() Hello {
	h := Hello{ID: b.cfg.ID, Advertise: b.advertise}
	b.mu.RLock()
	for _, p := range b.peers {
		if p.advertise != "" {
			h.Peers = append(h.Peers, p.advertise)
		}
	}
	b.mu.RUnlock()
	return h
}

// runConn performs the handshake, registers the peer, and runs the
// read loop until the connection dies. It blocks; dialers call it
// inline, the acceptor spawns a goroutine per conn. It returns the
// peer id the handshake produced ("" if none) and whether the
// connection was kept (registered and run, vs rejected).
func (b *Bridge) runConn(conn net.Conn, dialed bool) (peerID string, kept bool) {
	if b.severedFor() > 0 {
		// A SeverPeers window: no handshake, so the dialer never holds
		// this bridge as a peer, not even until registerPeer refuses it.
		_ = conn.Close()
		return "", false
	}
	// Handshake: send our hello, read theirs, both under a deadline.
	deadline := time.Now().Add(handshakeTimeout)
	_ = conn.SetDeadline(deadline)
	if _, err := conn.Write(AppendHello(nil, b.helloFor())); err != nil {
		_ = conn.Close()
		return "", false
	}
	dec := NewLeasedDecoder()
	hello, err := b.readHello(conn, dec)
	if err != nil {
		_ = conn.Close()
		dec.Close()
		return "", false
	}
	_ = conn.SetDeadline(time.Time{})
	b.hellosIn.Add(1)

	p := &peer{
		id:        hello.ID,
		advertise: hello.Advertise,
		conn:      conn,
		batch:     NewBatcher(deadlineWriter{conn}, DefaultMaxBatchBytes),
		dialed:    dialed,
		done:      make(chan struct{}),
	}
	if !b.registerPeer(p) {
		_ = conn.Close()
		dec.Close()
		return hello.ID, false
	}

	// Gossip: dial anyone the peer knows that we don't.
	b.ensureDial(hello.Advertise)
	for _, addr := range hello.Peers {
		b.ensureDial(addr)
	}

	b.readLoop(p, dec)
	dec.Close()
	b.removePeer(p)
	return hello.ID, true
}

// readHello pulls the first frame off the conn; it must be a hello.
func (b *Bridge) readHello(conn net.Conn, dec *Decoder) (Hello, error) {
	buf := make([]byte, 4096)
	for {
		if f, ok, err := dec.Next(); err != nil {
			return Hello{}, err
		} else if ok {
			if f.Type != FrameHello {
				return Hello{}, fmt.Errorf("%w: first frame type %d, want hello", ErrFrameFormat, f.Type)
			}
			return f.DecodeHello()
		}
		n, err := conn.Read(buf)
		if n > 0 {
			b.bytesIn.Add(uint64(n))
			_, _ = dec.Write(buf[:n])
		}
		if err != nil {
			return Hello{}, err
		}
	}
}

// registerPeer installs p, resolving duplicate connections to the same
// peer with the canonical-initiator rule so both ends keep the same
// one. Returns false if p should be discarded.
func (b *Bridge) registerPeer(p *peer) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || p.id == b.cfg.ID {
		return false
	}
	if time.Now().Before(b.severedUntil) {
		return false // partition window in force: refuse inbound conns too
	}
	if old, ok := b.peers[p.id]; ok {
		if !p.canonical(b.cfg.ID) {
			return false // keep the existing (canonical or first) conn
		}
		if old.canonical(b.cfg.ID) {
			return false // existing conn already canonical; keep it
		}
		// The new conn is the canonical one: evict the old.
		delete(b.peers, p.id)
		go old.close()
	}
	b.peers[p.id] = p
	return true
}

func (b *Bridge) removePeer(p *peer) {
	p.close()
	bs := p.batch.Stats()
	b.deadBatches.Add(bs.Batches)
	b.deadTimerWrites.Add(bs.TimeFlushes)
	b.deadBytesOut.Add(bs.Bytes)
	b.deadBackpressure.Add(bs.Backpressure)
	for {
		old := b.deadMaxQueued.Load()
		if bs.MaxQueued <= old || b.deadMaxQueued.CompareAndSwap(old, bs.MaxQueued) {
			break
		}
	}
	b.mu.Lock()
	if b.peers[p.id] == p {
		delete(b.peers, p.id)
	}
	b.mu.Unlock()
}

// chunkBuild is one in-flight reassembly: fragments land at their
// offsets in a lease-backed buffer sized for the full body, so the
// completed message injects with zero further copies.
type chunkBuild struct {
	lease  *san.Lease
	buf    []byte
	got    int    // bytes received: where the next fragment must start
	opened uint64 // the connection's build count when it opened, for FIFO eviction
}

// maxChunkBuilds bounds concurrent reassemblies per connection — a
// hostile or wildly interleaving peer pins at most maxChunkBuilds ×
// MaxChunkBody.
const maxChunkBuilds = 64

// chunkAsm is a connection's reassembly table (owned by its read loop,
// so unlocked).
type chunkAsm struct {
	builds map[uint64]*chunkBuild
	opened uint64 // builds ever opened
}

func (a *chunkAsm) drop(id uint64) {
	if cb := a.builds[id]; cb != nil {
		cb.lease.Release()
		delete(a.builds, id)
	}
}

func (a *chunkAsm) releaseAll() {
	for id := range a.builds {
		a.drop(id)
	}
}

// readLoop decodes frames off the connection and injects them into the
// local SAN until the stream ends or corrupts.
func (b *Bridge) readLoop(p *peer, dec *Decoder) {
	buf := make([]byte, 64<<10)
	intern := newInterner()
	asm := &chunkAsm{builds: make(map[uint64]*chunkBuild)}
	defer asm.releaseAll()
	for {
		for {
			f, ok, err := dec.Next()
			if err != nil {
				b.frameErrors.Add(1)
				return
			}
			if !ok {
				break
			}
			b.framesIn.Add(1)
			b.handleFrame(f, intern, dec, asm)
		}
		n, err := p.conn.Read(buf)
		if n > 0 {
			b.bytesIn.Add(uint64(n))
			_, _ = dec.Write(buf[:n])
		}
		if err != nil {
			return
		}
	}
}

func (b *Bridge) handleFrame(f Frame, intern *interner, dec *Decoder, asm *chunkAsm) {
	switch f.Type {
	case FrameData:
		from := san.Addr{Node: intern.str(f.SrcNode), Proc: intern.str(f.SrcProc)}
		to := san.Addr{Node: intern.str(f.DstNode), Proc: intern.str(f.DstProc)}
		if f.Flags&FlagChunk != 0 {
			b.handleChunk(asm, f, from, to, intern.str(f.Kind))
			return
		}
		b.inject(from, to, intern.str(f.Kind), f.CallID, f.Flags&FlagReply != 0, obs.TraceID(f.Trace), f.Body, dec.Lease())
	case FrameMcast:
		from := san.Addr{Node: intern.str(f.SrcNode), Proc: intern.str(f.SrcProc)}
		if b.net.InjectMulticast(from, intern.str(f.Group), intern.str(f.Kind), f.Body, dec.Lease()) > 0 {
			b.injected.Add(1)
		}
	case FrameDown:
		gone := san.Addr{Node: intern.str(f.SrcNode), Proc: intern.str(f.SrcProc)}
		if f.CallID == 0 {
			b.net.Unreachable(gone)
		} else {
			caller := san.Addr{Node: intern.str(f.DstNode), Proc: intern.str(f.DstProc)}
			b.net.UnreachableCall(caller, f.CallID, gone)
		}
	}
}

// inject delivers one point-to-point message into the local SAN. A
// Call's request that finds no endpoint at its address, or one whose
// inbox is full, is answered at once with a down frame for that one
// Call: the sender routed it here because this process owns the node,
// so nobody else will answer it and the caller would otherwise wait out
// its timeout. A request dropped by a partition gets no answer.
func (b *Bridge) inject(from, to san.Addr, kind string, callID uint64, reply bool, trace obs.TraceID, body []byte, lease *san.Lease) {
	err := b.net.InjectUnicast(from, to, kind, callID, reply, trace, body, lease)
	if err == nil {
		b.injected.Add(1)
		return
	}
	if callID == 0 || reply || !errors.Is(err, san.ErrUnknownAddr) {
		return
	}
	b.mu.RLock()
	p := b.ownerLocked(from.Node)
	b.mu.RUnlock()
	if p == nil {
		return
	}
	bufp := b.framePool.Get().(*[]byte)
	frame := AppendDown((*bufp)[:0], to, from, callID)
	if b.appendToPeer(p, frame, nil, nil, true, nil) { // the caller is blocked on it
		b.framesOut.Add(1)
	}
	*bufp = frame[:0]
	b.framePool.Put(bufp)
}

// handleChunk folds one FlagChunk fragment into its reassembly build
// and injects the message when the last fragment lands. The frame's
// CRC already passed, so a malformed envelope or an inconsistent total
// is a sender bug; it poisons only that stream, not the connection.
//
// A sender writes a stream's fragments in order to one connection, so
// each starts where the last ended, and only a stream's first fragment
// (offset 0) opens a build; a gap, repeat or overlap would complete the
// build with a hole (ParseChunk keeps frag within total). Any other
// fragment without an open build — the tail of a stream that was
// evicted or poisoned, or a stray — is counted and dropped before
// anything is allocated for the total it declares.
func (b *Bridge) handleChunk(asm *chunkAsm, f Frame, from, to san.Addr, kind string) {
	id, total, offset, frag, err := ParseChunk(f.Body)
	if err != nil {
		b.frameErrors.Add(1)
		return
	}
	cb := asm.builds[id]
	if cb == nil {
		if offset != 0 {
			b.frameErrors.Add(1)
			return
		}
		if len(asm.builds) == maxChunkBuilds {
			// The oldest live stream is sacrificed; its fragments still in
			// flight find no build and are dropped at the door.
			var oldest *chunkBuild
			var oldestID uint64
			for oid, ob := range asm.builds {
				if oldest == nil || ob.opened < oldest.opened {
					oldest, oldestID = ob, oid
				}
			}
			asm.drop(oldestID)
		}
		asm.opened++
		cb = &chunkBuild{lease: san.NewLease(total), opened: asm.opened}
		cb.buf = cb.lease.Bytes()[:total]
		asm.builds[id] = cb
	}
	if total != len(cb.buf) || offset != cb.got {
		b.frameErrors.Add(1)
		asm.drop(id) // the stream is poisoned; its tail is garbage
		return
	}
	copy(cb.buf[offset:], frag)
	cb.got += len(frag)
	if cb.got < len(cb.buf) {
		return
	}
	delete(asm.builds, id)
	b.reassembled.Add(1)
	b.inject(from, to, kind, f.CallID, f.Flags&FlagReply != 0, obs.TraceID(f.Trace), cb.buf, cb.lease)
	cb.lease.Release()
}

// deadlineWriter applies writeTimeout to every write so one stalled
// peer cannot wedge its drainer (and Close, which waits on it) forever.
type deadlineWriter struct{ conn net.Conn }

func (w deadlineWriter) Write(p []byte) (int, error) {
	_ = w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return w.conn.Write(p)
}

// WriteVec forwards a gather list to the connection under the same
// deadline. net.Buffers.WriteTo issues a real writev only on the
// concrete TCP/unix conn types, which is exactly what w.conn is — this
// forwarder exists so the Batcher's vecWriter probe survives the
// deadline wrapper.
func (w deadlineWriter) WriteVec(bufs *net.Buffers) (int64, error) {
	_ = w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return bufs.WriteTo(w.conn)
}

// interner deduplicates the small, hot string set a connection sees
// (node names, process names, message kinds) so the steady-state
// receive path stops allocating for them. Map lookups keyed by
// string(bytes) do not allocate; only first sightings do. Each read
// loop owns one, so no locking. Retention is bounded in both
// dimensions — entry count and per-string length — so a hostile peer
// flooding distinct or huge identifiers cannot pin memory beyond the
// caps (the frame layer's never-over-allocate rule extends here).
type interner struct {
	m map[string]string
}

const (
	internMaxEntries = 4096
	internMaxStrLen  = 256 // identifiers are short; anything bigger is not worth pinning
)

func newInterner() *interner { return &interner{m: make(map[string]string, 64)} }

func (in *interner) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in.m) < internMaxEntries && len(s) <= internMaxStrLen {
		in.m[s] = s
	}
	return s
}
