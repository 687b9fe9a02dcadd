// Package stub implements the narrow interface between service-
// specific workers and the SNS layer (paper §2.2.5): the worker stub,
// which hides queueing, load reporting, fault isolation and discovery
// from worker code; and the manager stub, linked into front ends,
// which caches load-balancing state from manager beacons, dispatches
// tasks by lottery, and carries the process-peer duties (restart a
// silent manager).
//
// A worker says it is alive the way a front end or a cache does: one
// supervisor.Member (member.announce) per interval on a
// softstate.Schedule, from its own serving loop, carrying its queue
// length as its load. While it knows no manager each announcement is
// multicast on the control group, so the primary admits it milliseconds
// after it starts; from its first beacon on it is unicast to that
// manager, and a new manager's beacon is answered at once (§3.1.3). A
// worker hears only the beacon's head, on GroupBeacon: the load table is
// for front ends, so a worker's cost per beacon does not grow with N. A
// worker stopped on purpose (reaped, or a restart's stop half — the hot
// upgrade's disable) says down as its last word and refuses every task
// it will not run; a crashed one says nothing, and its silence is the
// news.
//
// The stub serves every tenant alike and imports none: a TranSend
// distillation and a HotBot shard query are both a Task dispatched to
// some worker of a class, and the wire codec lays out the SNS layer's
// messages only.
package stub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/supervisor"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// Multicast groups. Components discover each other exclusively through
// these — the paper's "use of IP multicast provides a level of
// indirection and relieves components of having to explicitly locate
// each other" (§3.1.2). Each message goes to the group of those who read
// it: the primary beacons its existence to workers and supervisors on
// GroupBeacon and its load table to everyone else on GroupControl
// (§3.1.3), and status reports and span digests go to the monitor alone
// (§3.1.7).
const (
	GroupControl = supervisor.GroupControl // full manager beacons, supervisor hellos, member announcements
	GroupBeacon  = supervisor.GroupBeacon  // the beacon's head (Manager, Seq, Epoch, no rows): what workers and supervisors read
	GroupReports = "sns.reports"           // status reports and span digests, joined by the monitor only
)

// Message kinds. Liveness is supervisor.MsgAnnounce, whose Member body
// sits beside the roster rows it is diffed against.
const (
	MsgBeacon     = "mgr.beacon"   // manager -> group: Beacon
	MsgTask       = "wrk.task"     // front end -> worker: TaskMsg
	MsgResult     = "wrk.result"   // worker -> front end (reply): ResultMsg
	MsgSpawnReq   = "mgr.spawnreq" // front end -> manager: SpawnReq
	MsgMonReport  = "mon.report"   // component -> reports group: StatusReport
	MsgSpanDigest = "obs.spans"    // span reporter -> reports group: SpanDigest
)

// WorkerInfo describes one live worker as carried in beacons.
type WorkerInfo struct {
	ID    string
	Class string
	Addr  san.Addr
	Node  string
	// QLen is the manager's weighted moving average of the worker's
	// reported queue length.
	QLen float64
	// Overflow marks workers running on overflow-pool nodes.
	Overflow bool
}

// Beacon is the manager's periodic multicast: its own address (for
// registration and spawn requests) plus the load-balancing hints the
// front ends cache (§2.2.2). Epoch is the election generation: every
// takeover bumps it, and listeners ignore beacons from epochs older
// than the newest they have seen, so a deposed primary cannot drag
// followers back. What should be running is not in here: that is the
// supervisors' rosters (supervisor.HelloMsg), which every replica hears.
type Beacon struct {
	Manager san.Addr
	Seq     uint64
	Epoch   uint64
	Workers []WorkerInfo
}

// TaskMsg asks a worker to run one task. Deadline, when non-zero, is
// the absolute wall-clock instant (unix nanoseconds) after which the
// caller no longer awaits the result; it rides inside the body so it
// crosses process boundaries through the wire codec, and workers drop
// expired tasks from their inboxes instead of running them. Trace
// mirrors the same dual-carriage pattern for the tracing id
// (obs.TraceID bits): the SAN stamps Message.Trace on deliveries, and
// the body copy covers consumers that re-queue the task beyond the
// original message.
type TaskMsg struct {
	Task     tacc.Task
	Deadline int64
	Trace    uint64
}

// ResultMsg answers a TaskMsg.
type ResultMsg struct {
	Blob tacc.Blob
	Err  string // empty on success
}

// Prompt makes a result a san.Prompter, written at once whatever its
// size: a worker serves one task at a time, so nothing would share its
// write. A task needs no mark: a Call's request is always prompt.
func (ResultMsg) Prompt() {}

// SpawnReq asks the manager to start a worker of a class the front end
// found no instances of.
type SpawnReq struct {
	Class string
}

// StatusReport is the monitor's food: any component multicasts these
// on GroupReports.
type StatusReport struct {
	Component string // process name
	Kind      string // "worker", "frontend", "manager", "cache"
	Node      string
	Metrics   map[string]float64
}

// Report is a component's StatusReport: its registry collector's keys,
// unprefixed, plus its network's san.inbox_max and san.inbox_full.
func Report(net *san.Network, component, kind, node, collector string) StatusReport {
	st := net.Stats()
	m := net.Registry().Collect(collector)
	m["san.inbox_max"] = float64(st.InboxMax)
	m["san.inbox_full"] = float64(st.InboxFull)
	return StatusReport{Component: component, Kind: kind, Node: node, Metrics: m}
}

// SpanDigest batches freshly recorded trace spans for the report
// group: each process's span reporter multicasts one every report
// interval, and the monitor alone takes them in — into its process's
// tracer, so /trace?id= there answers for the whole cluster, and into
// its per-hop latency table. Every other process answers for its own
// spans only.
type SpanDigest struct {
	Spans []obs.Span
}

// DefaultCallTimeout bounds one dispatch attempt or supervisor command
// unless a deployment sets its own. Soft-state timing is the network's
// beacon interval (san.WithBeacon) and the softstate table.
const DefaultCallTimeout = 2 * time.Second

// ---------------------------------------------------------------------------
// Wire codec.
//
// EncodeBodyAppend/DecodeBodyView define the production wire format for
// every SNS message — the stub control plane, the task/result data
// plane (HotBot's shard queries are tasks too) and the vcache cache
// protocol: a compact, deterministic binary encoding (strings and byte
// slices are uvarint-length-prefixed, maps are emitted in sorted key
// order so equal values encode to equal bytes, floats are IEEE-754
// bits). DecodeBodyView is total: malformed input yields an error,
// never a panic or an unbounded allocation — the property the
// FuzzWireRoundTrip fuzzer hammers on. Every san.Network outside san's
// own tests is built with san.WithCodec(WireCodec{}), so this codec is
// every message path; a signal without a body layout (vcache.MsgStats)
// encodes a nil body as empty bytes.

// ErrWireFormat reports a malformed or truncated wire message.
var ErrWireFormat = errors.New("stub: malformed wire message")

// WireCodec adapts the package codec to san.Codec, so a network built
// with san.WithCodec(stub.WireCodec{}) serializes every SNS message —
// control plane, data plane and the cache protocol — through the
// production encoding, and decodes []byte body fields as views whose
// deliveries carry the backing san.Lease.
type WireCodec struct{}

// AppendBody implements san.Codec.
func (WireCodec) AppendBody(dst []byte, kind string, body any) ([]byte, error) {
	return EncodeBodyAppend(dst, kind, body)
}

// DecodeBodyView implements san.Codec.
func (WireCodec) DecodeBodyView(kind string, data []byte) (any, bool, error) {
	return DecodeBodyView(kind, data)
}

// EncodeBody serializes a message body for the given kind. Kinds
// without a registered body layout (signals like vcache.MsgStats)
// encode a nil body as empty bytes.
func EncodeBody(kind string, body any) ([]byte, error) {
	return EncodeBodyAppend(nil, kind, body)
}

// EncodeBodyAppend serializes a message body for the given kind into
// dst (which may be nil or a recycled buffer; its existing contents
// are preserved) and returns the extended slice — the zero-alloc
// variant the SAN's pooled lease buffers use.
func EncodeBodyAppend(dst []byte, kind string, body any) ([]byte, error) {
	w := &wireWriter{buf: dst}
	switch kind {
	case MsgBeacon:
		b, ok := body.(Beacon)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants Beacon, got %T", ErrWireFormat, kind, body)
		}
		w.addr(b.Manager)
		w.u64(b.Seq)
		w.u64(b.Epoch)
		w.uvarint(uint64(len(b.Workers)))
		for _, wi := range b.Workers {
			w.workerInfo(wi)
		}
	case MsgTask:
		m, ok := body.(TaskMsg)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants TaskMsg, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Task.Key)
		w.blob(m.Task.Input)
		w.uvarint(uint64(len(m.Task.Inputs)))
		for _, b := range m.Task.Inputs {
			w.blob(b)
		}
		w.strMap(m.Task.Profile)
		w.strMap(m.Task.Params)
		w.varint(m.Deadline)
		w.uvarint(m.Trace)
	case MsgResult:
		m, ok := body.(ResultMsg)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants ResultMsg, got %T", ErrWireFormat, kind, body)
		}
		w.blob(m.Blob)
		w.str(m.Err)
	case MsgSpawnReq:
		m, ok := body.(SpawnReq)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants SpawnReq, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Class)
	case MsgMonReport:
		m, ok := body.(StatusReport)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants StatusReport, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Component)
		w.str(m.Kind)
		w.str(m.Node)
		w.f64Map(m.Metrics)
	case MsgSpanDigest:
		m, ok := body.(SpanDigest)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants SpanDigest, got %T", ErrWireFormat, kind, body)
		}
		w.uvarint(uint64(len(m.Spans)))
		for _, sp := range m.Spans {
			w.uvarint(uint64(sp.Trace))
			w.str(sp.Proc)
			w.str(sp.Comp)
			w.str(sp.Hop)
			w.str(sp.Note)
			w.varint(sp.Start)
			w.varint(sp.Dur)
		}
	case vcache.MsgGet:
		m, ok := body.(vcache.GetReq)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants vcache.GetReq, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Key)
		w.bool(m.Stale)
		w.str(m.Else)
	case vcache.MsgGot:
		m, ok := body.(vcache.GetResp)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants vcache.GetResp, got %T", ErrWireFormat, kind, body)
		}
		w.bool(m.Found)
		w.bytes(m.Data)
		w.str(m.MIME)
		w.bool(m.Stale)
		w.bool(m.Else)
	case vcache.MsgPut, vcache.MsgInject:
		m, ok := body.(vcache.PutReq)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants vcache.PutReq, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Key)
		w.bytes(m.Data)
		w.str(m.MIME)
		w.varint(int64(m.TTL))
	case vcache.MsgStatsR:
		m, ok := body.(vcache.Stats)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants vcache.Stats, got %T", ErrWireFormat, kind, body)
		}
		w.u64(m.Hits)
		w.u64(m.Misses)
		w.u64(m.Puts)
		w.u64(m.Injects)
		w.u64(m.Evictions)
		w.u64(m.Expired)
		w.varint(m.Used)
		w.varint(int64(m.Objects))
	case supervisor.MsgHello:
		m, ok := body.(supervisor.HelloMsg)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants supervisor.HelloMsg, got %T", ErrWireFormat, kind, body)
		}
		w.str(m.Name)
		w.addr(m.Addr)
		w.str(m.Node)
		w.str(m.Prefix)
		if len(m.Roster) > wireMaxRoster {
			return nil, fmt.Errorf("%w: %s roster of %d rows exceeds %d", ErrWireFormat, kind, len(m.Roster), wireMaxRoster)
		}
		w.uvarint(uint64(len(m.Roster)))
		for _, row := range m.Roster {
			w.str(row.Name)
			w.str(row.Kind)
			w.str(row.Node)
		}
	case supervisor.MsgAnnounce:
		m, ok := body.(supervisor.Member)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants supervisor.Member, got %T", ErrWireFormat, kind, body)
		}
		w.addr(m.Addr)
		w.str(m.Kind)
		w.str(m.Class)
		w.str(m.State)
		w.varint(int64(m.Load))
		w.str(m.HTTPAddr)
		w.bool(m.Overflow)
	case supervisor.MsgCmd:
		m, ok := body.(supervisor.Command)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants supervisor.Command, got %T", ErrWireFormat, kind, body)
		}
		w.u64(m.ID)
		w.str(m.Origin)
		w.str(m.Op)
		w.str(m.Target)
		w.u64(m.Epoch)
	case supervisor.MsgAck:
		m, ok := body.(supervisor.Ack)
		if !ok {
			return nil, fmt.Errorf("%w: %s wants supervisor.Ack, got %T", ErrWireFormat, kind, body)
		}
		w.u64(m.ID)
		w.bool(m.OK)
		w.str(m.Err)
	default:
		if body != nil {
			return nil, fmt.Errorf("%w: kind %q carries no body layout", ErrWireFormat, kind)
		}
	}
	return w.buf, nil
}

// DecodeBodyView parses a message body for the given kind into the
// concrete type EncodeBody accepts for it. []byte fields of the result
// (blob data, cache values) alias data directly instead of copying,
// reported by aliased=true; strings are always copied (Go string
// conversion), so only the bulk payload bytes share memory with the
// input. The caller owns data's lifetime: with aliased=true the result
// is valid only while data's buffer is — the san layer pairs it with a
// Lease. Kinds without byte-slice fields return aliased=false.
func DecodeBodyView(kind string, data []byte) (any, bool, error) {
	r := &wireReader{buf: data}
	var body any
	switch kind {
	case MsgBeacon:
		var b Beacon
		b.Manager = r.addr()
		b.Seq = r.u64()
		b.Epoch = r.u64()
		n := r.sliceLen(wireMinWorkerInfo)
		if n > 0 {
			b.Workers = make([]WorkerInfo, 0, n)
			class := ""
			for i := 0; i < n; i++ {
				wi := r.workerInfo(class)
				class = wi.Class
				b.Workers = append(b.Workers, wi)
			}
		}
		body = b
	case MsgTask:
		var m TaskMsg
		m.Task.Key = r.str()
		m.Task.Input = r.blob()
		n := r.sliceLen(wireMinBlob)
		if n > 0 {
			m.Task.Inputs = make([]tacc.Blob, 0, n)
			for i := 0; i < n; i++ {
				m.Task.Inputs = append(m.Task.Inputs, r.blob())
			}
		}
		m.Task.Profile = r.strMap()
		m.Task.Params = r.strMap()
		m.Deadline = r.varint()
		m.Trace = r.uvarint()
		body = m
	case MsgResult:
		body = ResultMsg{Blob: r.blob(), Err: r.str()}
	case MsgSpawnReq:
		body = SpawnReq{Class: r.str()}
	case MsgMonReport:
		body = StatusReport{Component: r.str(), Kind: r.str(), Node: r.str(), Metrics: r.f64Map()}
	case MsgSpanDigest:
		var m SpanDigest
		n := r.sliceLen(wireMinSpan)
		if n > 0 {
			m.Spans = make([]obs.Span, 0, n)
			for i := 0; i < n; i++ {
				m.Spans = append(m.Spans, obs.Span{
					Trace: obs.TraceID(r.uvarint()),
					Proc:  r.str(),
					Comp:  r.str(),
					Hop:   r.str(),
					Note:  r.str(),
					Start: r.varint(),
					Dur:   r.varint(),
				})
			}
		}
		body = m
	case vcache.MsgGet:
		body = vcache.GetReq{Key: r.str(), Stale: r.bool(), Else: r.str()}
	case vcache.MsgGot:
		body = vcache.GetResp{Found: r.bool(), Data: r.bytes(), MIME: r.str(), Stale: r.bool(), Else: r.bool()}
	case vcache.MsgPut, vcache.MsgInject:
		body = vcache.PutReq{Key: r.str(), Data: r.bytes(), MIME: r.str(), TTL: time.Duration(r.varint())}
	case vcache.MsgStatsR:
		body = vcache.Stats{
			Hits:      r.u64(),
			Misses:    r.u64(),
			Puts:      r.u64(),
			Injects:   r.u64(),
			Evictions: r.u64(),
			Expired:   r.u64(),
			Used:      r.varint(),
			Objects:   int(r.varint()),
		}
	case supervisor.MsgHello:
		m := supervisor.HelloMsg{Name: r.str(), Addr: r.addr(), Node: r.str(), Prefix: r.str()}
		n := r.sliceLen(wireMinRow)
		if n > wireMaxRoster {
			r.fail()
		} else if n > 0 {
			m.Roster = make([]supervisor.Row, 0, n)
			for i := 0; i < n; i++ {
				m.Roster = append(m.Roster, supervisor.Row{Name: r.str(), Kind: r.str(), Node: r.str()})
			}
		}
		body = m
	case supervisor.MsgAnnounce:
		body = supervisor.Member{Addr: r.addr(), Kind: r.str(), Class: r.str(), State: r.str(), Load: int(r.varint()), HTTPAddr: r.str(), Overflow: r.bool()}
	case supervisor.MsgCmd:
		body = supervisor.Command{ID: r.u64(), Origin: r.str(), Op: r.str(), Target: r.str(), Epoch: r.u64()}
	case supervisor.MsgAck:
		body = supervisor.Ack{ID: r.u64(), OK: r.bool(), Err: r.str()}
	default:
		if len(data) != 0 {
			return nil, false, fmt.Errorf("%w: kind %q carries no body layout", ErrWireFormat, kind)
		}
		return nil, false, nil
	}
	if r.err != nil {
		return nil, false, r.err
	}
	if len(r.buf) != r.pos {
		return nil, false, fmt.Errorf("%w: %d trailing bytes", ErrWireFormat, len(r.buf)-r.pos)
	}
	return body, r.aliased, nil
}

// WireKinds lists every kind with a registered body layout, sorted —
// the fuzzer's kind table.
func WireKinds() []string {
	return []string{
		MsgBeacon, MsgMonReport, MsgResult, MsgSpawnReq, MsgSpanDigest, MsgTask,
		supervisor.MsgAck, supervisor.MsgAnnounce, supervisor.MsgCmd, supervisor.MsgHello,
		vcache.MsgGet, vcache.MsgGot, vcache.MsgInject, vcache.MsgPut, vcache.MsgStatsR,
	}
}

// Minimum encoded sizes, used to bound slice preallocation against
// attacker-controlled counts: a claimed N-element slice needs at
// least N*min bytes of remaining input.
const (
	wireMinWorkerInfo = 7 // 4 empty strings + f64 varint + bool + 2 more strings? conservative floor
	wireMinBlob       = 3 // empty MIME + empty data + empty meta
	wireMinSpan       = 7 // trace uvarint + 4 empty strings + 2 varints
	wireMinRow        = 3 // three empty strings
)

// wireMaxRoster bounds the component-table rows one supervisor hello
// may carry, on both sides: a longer roster is refused whole, never cut
// short — a manager handed half a table would stop watching the rest.
const wireMaxRoster = 1024

type wireWriter struct{ buf []byte }

func (w *wireWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *wireWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *wireWriter) u64(v uint64)     { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *wireWriter) f64(v float64)    { w.u64(math.Float64bits(v)) }
func (w *wireWriter) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

func (w *wireWriter) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *wireWriter) str(s string) { w.bytes([]byte(s)) }

func (w *wireWriter) addr(a san.Addr) {
	w.str(a.Node)
	w.str(a.Proc)
}

func (w *wireWriter) workerInfo(i WorkerInfo) {
	w.str(i.ID)
	w.str(i.Class)
	w.addr(i.Addr)
	w.str(i.Node)
	w.f64(i.QLen)
	w.bool(i.Overflow)
}

func (w *wireWriter) blob(b tacc.Blob) {
	w.str(b.MIME)
	w.bytes(b.Data)
	w.strMap(b.Meta)
}

// sortedKeys collects and sorts a map's keys, using the caller's
// stack-backed scratch array when it fits so typical small maps
// (profiles, metrics) sort without a heap allocation.
func sortedKeys[V any](m map[string]V, scratch *[8]string) []string {
	var keys []string
	if len(m) <= len(scratch) {
		keys = scratch[:0]
	} else {
		keys = make([]string, 0, len(m))
	}
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// strMap encodes a map in sorted key order: equal maps always yield
// equal bytes.
func (w *wireWriter) strMap(m map[string]string) {
	var scratch [8]string
	keys := sortedKeys(m, &scratch)
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.str(m[k])
	}
}

func (w *wireWriter) f64Map(m map[string]float64) {
	var scratch [8]string
	keys := sortedKeys(m, &scratch)
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.f64(m[k])
	}
}

// wireReader parses with sticky errors: after the first failure every
// accessor returns zero values, so decode paths need no per-field
// error plumbing. bytes() returns subslices of buf instead of copies
// and records that it did, so the caller knows the result aliases the
// input.
type wireReader struct {
	buf     []byte
	pos     int
	err     error
	aliased bool
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = ErrWireFormat
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.buf) {
		r.fail()
		return false
	}
	b := r.buf[r.pos]
	r.pos++
	if b > 1 {
		r.fail()
		return false
	}
	return b == 1
}

func (r *wireReader) bytes() []byte {
	raw := r.raw()
	if len(raw) == 0 {
		return nil
	}
	r.aliased = true
	// Capacity-capped so an append by the consumer reallocates instead
	// of scribbling over the rest of the receive buffer.
	return raw[:len(raw):len(raw)]
}

// raw reads a length-prefixed field as a subslice of the input — no
// copy, no aliased mark. Callers either copy it themselves (str: the
// string conversion is the copy) or mark it via bytes().
func (r *wireReader) raw() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail()
		return nil
	}
	out := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out
}

func (r *wireReader) str() string { return string(r.raw()) }

// sliceLen reads an element count and bounds it by the bytes left:
// each element needs at least min bytes, so a count the remaining
// input cannot possibly satisfy is rejected before any allocation.
func (r *wireReader) sliceLen(min int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.buf)-r.pos)/min)+1 {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *wireReader) addr() san.Addr {
	return san.Addr{Node: r.str(), Proc: r.str()}
}

// workerInfo reads one beacon row. A row repeats itself — its address's
// Proc is its ID, its Node its address's node, and rows in a row share a
// class (prevClass) — and those fields reuse the string already read:
// every stub decodes every beacon, so a 900-worker beacon costs 900
// stubs 2 string allocations a row instead of 5.
func (r *wireReader) workerInfo(prevClass string) WorkerInfo {
	id := r.str()
	class := r.strOr(prevClass)
	node := r.str()
	return WorkerInfo{
		ID:       id,
		Class:    class,
		Addr:     san.Addr{Node: node, Proc: r.strOr(id)},
		Node:     r.strOr(node),
		QLen:     r.f64(),
		Overflow: r.bool(),
	}
}

// strOr reads a string field, returning same rather than a copy when the
// bytes are equal.
func (r *wireReader) strOr(same string) string {
	if raw := r.raw(); string(raw) != same {
		return string(raw)
	}
	return same
}

func (r *wireReader) blob() tacc.Blob {
	return tacc.Blob{MIME: r.str(), Data: r.bytes(), Meta: r.strMap()}
}

func (r *wireReader) strMap() map[string]string {
	n := r.sliceLen(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.str()
		v := r.str()
		if r.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}

func (r *wireReader) f64Map() map[string]float64 {
	n := r.sliceLen(9)
	if n == 0 {
		return nil
	}
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		k := r.str()
		v := r.f64()
		if r.err != nil {
			return nil
		}
		m[k] = v
	}
	return m
}
