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
// some worker of a class. It registers the wire layouts of its own six
// kinds in san's kind table (wire.go's init); the cache's and the
// supervisor's kinds are theirs to lay out.
package stub

import (
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/supervisor"
	"repro/internal/tacc"
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

// The layouts of the stub's kinds: rows of san's kind table.
func init() {
	san.RegisterKind(MsgBeacon, appendBeacon, decodeBeacon)
	san.RegisterKind(MsgTask, appendTask, decodeTask)
	san.RegisterKind(MsgResult, appendResult, decodeResult)
	san.RegisterKind(MsgSpawnReq, appendSpawnReq, decodeSpawnReq)
	san.RegisterKind(MsgMonReport, appendReport, decodeReport)
	san.RegisterKind(MsgSpanDigest, appendSpanDigest, decodeSpanDigest)
}

// WireCodec is empty: every network runs san's kind table. bench/ still
// names it; it goes with ROADMAP item 20.
type WireCodec struct{}

// EncodeBody is san.AppendBody into a new buffer; it goes with item 20.
func EncodeBody(kind string, body any) ([]byte, error) { return san.AppendBody(nil, kind, body) }

// EncodeBodyAppend is san.AppendBody; it goes with item 20.
func EncodeBodyAppend(dst []byte, kind string, body any) ([]byte, error) {
	return san.AppendBody(dst, kind, body)
}

// DecodeBodyView is san.DecodeBodyView; it goes with item 20.
func DecodeBodyView(kind string, data []byte) (any, bool, error) {
	return san.DecodeBodyView(kind, data)
}

func appendBeacon(w san.Writer, b Beacon) (san.Writer, error) {
	w.Addr(b.Manager)
	w.U64(b.Seq)
	w.U64(b.Epoch)
	w.Uvarint(uint64(len(b.Workers)))
	for _, wi := range b.Workers {
		w.Str(wi.ID)
		w.Str(wi.Class)
		w.Addr(wi.Addr)
		w.Str(wi.Node)
		w.F64(wi.QLen)
		w.Bool(wi.Overflow)
	}
	return w, nil
}

// decodeBeacon reads a row's repeats without copying them — its
// address's Proc is its ID, its Node its address's node, and rows in a
// row share a class: every stub decodes every beacon, so a 900-worker
// beacon costs 900 stubs 2 string allocations a row instead of 5.
func decodeBeacon(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	b := Beacon{Manager: r.Addr(), Seq: r.U64(), Epoch: r.U64()}
	if n := r.SliceLen(7); n > 0 { // a row is at least 7 bytes
		b.Workers = make([]WorkerInfo, 0, n)
		class := ""
		for i := 0; i < n; i++ {
			id := r.Str()
			class = r.StrOr(class)
			node := r.Str()
			b.Workers = append(b.Workers, WorkerInfo{
				ID:       id,
				Class:    class,
				Addr:     san.Addr{Node: node, Proc: r.StrOr(id)},
				Node:     r.StrOr(node),
				QLen:     r.F64(),
				Overflow: r.Bool(),
			})
		}
	}
	return r.Done(b)
}

func appendTask(w san.Writer, m TaskMsg) (san.Writer, error) {
	w.Str(m.Task.Key)
	appendBlob(&w, m.Task.Input)
	w.Uvarint(uint64(len(m.Task.Inputs)))
	for _, b := range m.Task.Inputs {
		appendBlob(&w, b)
	}
	w.StrMap(m.Task.Profile)
	w.StrMap(m.Task.Params)
	w.Varint(m.Deadline)
	w.Uvarint(m.Trace)
	return w, nil
}

func decodeTask(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	var m TaskMsg
	m.Task.Key = r.Str()
	m.Task.Input = readBlob(&r)
	if n := r.SliceLen(3); n > 0 { // a blob is at least 3 bytes
		m.Task.Inputs = make([]tacc.Blob, 0, n)
		for i := 0; i < n; i++ {
			m.Task.Inputs = append(m.Task.Inputs, readBlob(&r))
		}
	}
	m.Task.Profile = r.StrMap()
	m.Task.Params = r.StrMap()
	m.Deadline = r.Varint()
	m.Trace = r.Uvarint()
	return r.Done(m)
}

func appendResult(w san.Writer, m ResultMsg) (san.Writer, error) {
	appendBlob(&w, m.Blob)
	w.Str(m.Err)
	return w, nil
}

func decodeResult(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	return r.Done(ResultMsg{Blob: readBlob(&r), Err: r.Str()})
}

func appendSpawnReq(w san.Writer, m SpawnReq) (san.Writer, error) {
	w.Str(m.Class)
	return w, nil
}

func decodeSpawnReq(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	return r.Done(SpawnReq{Class: r.Str()})
}

func appendReport(w san.Writer, m StatusReport) (san.Writer, error) {
	w.Str(m.Component)
	w.Str(m.Kind)
	w.Str(m.Node)
	w.F64Map(m.Metrics)
	return w, nil
}

func decodeReport(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	return r.Done(StatusReport{Component: r.Str(), Kind: r.Str(), Node: r.Str(), Metrics: r.F64Map()})
}

func appendSpanDigest(w san.Writer, m SpanDigest) (san.Writer, error) {
	w.Uvarint(uint64(len(m.Spans)))
	for _, sp := range m.Spans {
		w.Uvarint(uint64(sp.Trace))
		w.Str(sp.Proc)
		w.Str(sp.Comp)
		w.Str(sp.Hop)
		w.Str(sp.Note)
		w.Varint(sp.Start)
		w.Varint(sp.Dur)
	}
	return w, nil
}

func decodeSpanDigest(data []byte) (any, bool, error) {
	r := san.NewReader(data)
	var m SpanDigest
	if n := r.SliceLen(7); n > 0 { // a span is at least 7 bytes
		m.Spans = make([]obs.Span, 0, n)
		for i := 0; i < n; i++ {
			m.Spans = append(m.Spans, obs.Span{
				Trace: obs.TraceID(r.Uvarint()),
				Proc:  r.Str(),
				Comp:  r.Str(),
				Hop:   r.Str(),
				Note:  r.Str(),
				Start: r.Varint(),
				Dur:   r.Varint(),
			})
		}
	}
	return r.Done(m)
}

func appendBlob(w *san.Writer, b tacc.Blob) {
	w.Str(b.MIME)
	w.Bytes(b.Data)
	w.StrMap(b.Meta)
}

func readBlob(r *san.Reader) tacc.Blob {
	return tacc.Blob{MIME: r.Str(), Data: r.Bytes(), Meta: r.StrMap()}
}
