package stub

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/softstate"
	"repro/internal/supervisor"
	"repro/internal/tacc"
)

// WorkerConfig tunes a worker stub.
type WorkerConfig struct {
	// QueueCap bounds the request queue; beyond it the stub rejects
	// tasks so front ends retry elsewhere. Default 64.
	QueueCap int
	// ReportInterval paces announcements. Default DefaultBeaconInterval.
	ReportInterval time.Duration
	// SurvivePanic converts worker panics into task errors instead
	// of killing the stub process. The default (false) is the
	// paper's model: distillers crash freely on pathological input
	// and the SNS layer restarts them.
	SurvivePanic bool
	// Overflow marks this stub as running on an overflow-pool node.
	Overflow bool
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = DefaultBeaconInterval
	}
	return c
}

// WorkerStub wraps a tacc.Worker into an SNS citizen: it queues tasks,
// announces itself and its load to whatever manager is beaconing,
// survives (or deliberately propagates) worker crashes, and drains when
// stopped — the hot upgrade's disable (§2.1). It implements
// cluster.Process.
//
// The worker code itself "need not be thread-safe" (§2.2.5): the stub
// executes tasks strictly serially.
type WorkerStub struct {
	name   string
	node   string
	class  string
	worker tacc.Worker
	net    *san.Network
	cfg    WorkerConfig

	ep      *san.Endpoint
	queue   chan queuedTask
	qlen    atomic.Int64
	done    atomic.Uint64
	errs    atomic.Uint64
	crashes atomic.Uint64
	expired atomic.Uint64 // tasks dropped unrun: deadline passed in queue
	costMs  atomic.Uint64 // EWMA of task cost, microseconds, stored *1

	// Fault injection (chaos testing): an artificial per-task delay
	// and a hang switch, both honored by the process loop. A hung
	// worker keeps queueing tasks and reporting load (its queue
	// visibly grows) but completes nothing — the gray-failure mode
	// timeouts must catch, distinct from a crash.
	slowdown atomic.Int64 // nanoseconds added to every task
	hung     atomic.Bool

	mu        sync.Mutex
	manager   san.Addr
	lastEpoch uint64
	beaconAt  time.Time // when the last beacon was accepted; construction before the first
}

// InjectSlowdown adds d to every subsequent task execution (zero
// removes the fault). Chaos harness knob.
func (s *WorkerStub) InjectSlowdown(d time.Duration) { s.slowdown.Store(int64(d)) }

// InjectHang stops (true) or resumes (false) task completion without
// killing the process. Chaos harness knob.
func (s *WorkerStub) InjectHang(h bool) { s.hung.Store(h) }

// NewWorkerStub creates a stub and eagerly registers its SAN endpoint.
func NewWorkerStub(name, node string, w tacc.Worker, net *san.Network, cfg WorkerConfig) *WorkerStub {
	cfg = cfg.withDefaults()
	s := &WorkerStub{
		name:     name,
		node:     node,
		class:    w.Class(),
		worker:   w,
		net:      net,
		cfg:      cfg,
		queue:    make(chan queuedTask, cfg.QueueCap),
		beaconAt: time.Now(),
	}
	s.ep = net.Endpoint(s.addr(), san.InboxSize)
	return s
}

func (s *WorkerStub) addr() san.Addr { return san.Addr{Node: s.node, Proc: s.name} }

// Addr returns the stub's SAN address.
func (s *WorkerStub) Addr() san.Addr { return s.addr() }

// ID implements cluster.Process.
func (s *WorkerStub) ID() string { return s.name }

// Member is this worker's announcement of itself, with its queue
// length as its load.
func (s *WorkerStub) Member() supervisor.Member {
	return supervisor.Member{
		Addr: s.addr(), Kind: supervisor.KindWorker, Class: s.class, State: supervisor.StateUp,
		Load: int(s.qlen.Load()), Overflow: s.cfg.Overflow,
	}
}

// BeaconAge is how long the stub has gone without a manager beacon. A
// worker running on the far side of a SAN partition grows old here, and
// that — not its silence at the manager, which a slow worker shares —
// is what says a restart should move it (§2.2.4).
func (s *WorkerStub) BeaconAge() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Since(s.beaconAt)
}

// QueueLen returns the current queue length (pending + in service).
func (s *WorkerStub) QueueLen() int { return int(s.qlen.Load()) }

// ExpiredDrops returns how many queued tasks this stub dropped unrun
// because their deadline had already passed.
func (s *WorkerStub) ExpiredDrops() uint64 { return s.expired.Load() }

// TasksDone returns how many tasks this stub completed successfully —
// the per-worker share counter the gray-failure scenarios compare to
// show the lottery shifting load away from an impaired worker.
func (s *WorkerStub) TasksDone() uint64 { return s.done.Load() }

// errWorkerCrash marks a stub exit caused by a worker panic.
type errWorkerCrash struct{ cause any }

func (e errWorkerCrash) Error() string {
	return fmt.Sprintf("stub: worker crashed: %v", e.cause)
}

// Run implements cluster.Process.
func (s *WorkerStub) Run(ctx context.Context) error {
	if ctx.Err() != nil {
		return nil // killed before it ran: its endpoint stays dropped, and it says nothing
	}
	if s.ep == nil || !s.net.Lookup(s.addr()) {
		s.ep = s.net.Endpoint(s.addr(), san.InboxSize)
	}
	ep := s.ep
	defer ep.Close()
	ep.Join(GroupBeacon) // the head only: the load table is the front ends'
	// Drop the collector on exit: an extra's id is never used again, and
	// a slot's successor sets its own, so a dead worker.<id> family never
	// sits in /metrics with this stub pinned behind it.
	defer s.net.Registry().DropCollector("worker." + s.name)
	s.net.Registry().SetCollector("worker."+s.name, func(emit func(string, float64)) {
		emit("qlen", float64(s.qlen.Load()))
		emit("done", float64(s.done.Load()))
		emit("errors", float64(s.errs.Load()))
		emit("crashes", float64(s.crashes.Load()))
		emit("expired", float64(s.expired.Load()))
		emit("cost_ms", float64(s.costMs.Load())/1000)
	})

	crashed := make(chan any, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	go func() {
		defer wg.Done()
		s.processLoop(pctx, crashed)
	}()

	report := softstate.NewSchedule(s.cfg.ReportInterval)
	defer report.Stop()

	for {
		select {
		case <-ctx.Done():
			// Stopped on purpose (§2.1's disable): say so behind any
			// announcement still in flight, finish the task in service and
			// refuse the rest, so their callers fail over now. A crash
			// (below), or a kill that dropped the endpoint first, sends
			// nothing — a dead process cannot say goodbye, and the manager
			// infers the loss by timeout (§3.1.3).
			down := s.Member()
			down.State = supervisor.StateDown
			s.announce(ep, down)
			pcancel()
			wg.Wait()
			for {
				select {
				case qt := <-s.queue:
					s.refuse(qt.msg)
				case msg, ok := <-ep.Inbox():
					if !ok {
						return nil
					}
					if msg.Kind == MsgTask {
						s.refuse(msg)
					}
				default:
					return nil
				}
			}
		case cause := <-crashed:
			pcancel()
			wg.Wait()
			return errWorkerCrash{cause: cause}
		case <-report.C:
			s.announce(ep, s.Member())
			ep.Multicast(GroupReports, MsgMonReport, Report(s.net, s.name, "worker", s.node, "worker."+s.name), 96)
			report.Next()
		case msg, ok := <-ep.Inbox():
			if !ok {
				pcancel()
				wg.Wait()
				return fmt.Errorf("stub: %s endpoint closed", s.name)
			}
			s.handle(ctx, ep, msg)
		}
	}
}

func (s *WorkerStub) handle(ctx context.Context, ep *san.Endpoint, msg san.Message) {
	switch msg.Kind {
	case MsgBeacon:
		b, ok := msg.Body.(Beacon)
		if !ok {
			return
		}
		s.mu.Lock()
		if b.Epoch < s.lastEpoch {
			// Stale-epoch straggler from a deposed primary: following
			// it would re-anchor the stub on a manager that no longer
			// owns anything.
			s.mu.Unlock()
			return
		}
		s.lastEpoch, s.beaconAt = b.Epoch, time.Now()
		known := s.manager == b.Manager
		s.manager = b.Manager
		s.mu.Unlock()
		if !known {
			// New manager (first sight or restarted): announce at once.
			// This is the §3.1.3 recovery path — "if the manager
			// crashes and restarts, the distillers detect beacons
			// from the new manager and re-register themselves".
			s.announce(ep, s.Member())
		}
	case MsgTask:
		select {
		case s.queue <- queuedTask{msg: msg, at: time.Now()}:
			s.qlen.Add(1)
		default:
			_ = ep.Respond(msg, MsgResult, ResultMsg{Err: "queue full"}, 16)
		}
	}
}

// ErrWorkerDisabled answers a task a stopping worker will not run.
const ErrWorkerDisabled = "worker disabled"

// refuse answers a held task the stub will not run.
func (s *WorkerStub) refuse(msg san.Message) {
	_ = s.ep.Respond(msg, MsgResult, ResultMsg{Err: ErrWorkerDisabled}, 16)
	msg.Release()
}

// queuedTask pairs a task with its enqueue instant so the process
// loop can decompose latency into queue-wait vs service time — the
// split the trace plane and the slow-request log report per hop.
type queuedTask struct {
	msg san.Message
	at  time.Time
}

// processLoop serially executes queued tasks.
func (s *WorkerStub) processLoop(ctx context.Context, crashed chan<- any) {
	tracer := s.net.Tracer()
	for {
		select {
		case <-ctx.Done():
			return
		case qt := <-s.queue:
			msg := qt.msg
			for s.hung.Load() && ctx.Err() == nil {
				select {
				case <-ctx.Done():
				case <-time.After(2 * time.Millisecond):
				}
			}
			if d := time.Duration(s.slowdown.Load()); d > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(d):
				}
			}
			if ctx.Err() != nil {
				s.refuse(msg) // stopping: not yet in service, so not run
				return
			}
			trace := taskTrace(msg)
			if trace.Sampled() {
				tracer.Record(obs.Span{
					Trace: trace, Comp: s.name, Hop: "worker.queue",
					Start: qt.at.UnixNano(), Dur: int64(time.Since(qt.at)),
				})
			}
			if dl := taskDeadline(msg); !dl.IsZero() && time.Now().After(dl) {
				// The request expired while queued (or while this stub
				// hung): nobody awaits the answer, so don't burn capacity
				// computing it — the deadline-propagation half of graceful
				// degradation under overload.
				s.expired.Add(1)
				s.qlen.Add(-1)
				// Expired drops record unconditionally: a shed request is
				// exactly the one an operator wants a trace of.
				tracer.ForceRecord(obs.Span{
					Trace: trace, Comp: s.name, Hop: "worker.expired",
					Start: qt.at.UnixNano(), Dur: int64(time.Since(qt.at)),
				})
				_ = s.ep.Respond(msg, MsgResult, ResultMsg{Err: ErrTaskExpired}, 16)
				msg.Release()
				continue
			}
			start := time.Now()
			blob, err, panicked := s.runTask(ctx, msg)
			s.qlen.Add(-1)
			cost := time.Since(start)
			s.observeCost(cost)
			if trace.Sampled() {
				tracer.Record(obs.Span{
					Trace: trace, Comp: s.name, Hop: "worker.service", Note: s.class,
					Start: start.UnixNano(), Dur: int64(cost),
				})
			}
			if panicked != nil {
				s.crashes.Add(1)
				_ = s.ep.Respond(msg, MsgResult, ResultMsg{Err: fmt.Sprintf("worker panic: %v", panicked)}, 16)
				msg.Release()
				if !s.cfg.SurvivePanic {
					select {
					case crashed <- panicked:
					default:
					}
					return
				}
				continue
			}
			if err != nil {
				s.errs.Add(1)
				_ = s.ep.Respond(msg, MsgResult, ResultMsg{Err: err.Error()}, 16)
				msg.Release()
				continue
			}
			s.done.Add(1)
			_ = s.ep.Respond(msg, MsgResult, ResultMsg{Blob: blob}, blob.Size()+32)
			// Release after Respond: the result blob may alias the
			// task's input (identity transforms), and Respond has
			// finished encoding it by the time it returns.
			msg.Release()
		}
	}
}

// ErrTaskExpired is the ResultMsg.Err a worker answers with when it
// drops a task whose deadline passed before execution. Dispatch treats
// it as terminal — retrying work that is already too late only amplifies
// the overload that delayed it.
const ErrTaskExpired = "expired"

// taskDeadline extracts the effective deadline of a queued task: the
// SAN delivery deadline (in-process hops) or the one embedded in the
// TaskMsg body (which is how it crosses process boundaries), whichever
// is present.
func taskDeadline(msg san.Message) time.Time {
	if !msg.Deadline.IsZero() {
		return msg.Deadline
	}
	if tm, ok := msg.Body.(TaskMsg); ok && tm.Deadline != 0 {
		return time.Unix(0, tm.Deadline)
	}
	return time.Time{}
}

// taskTrace extracts the trace id of a queued task, mirroring
// taskDeadline: the SAN delivery metadata (in-process hops) or the
// copy embedded in the TaskMsg body (cross-process belt and braces).
func taskTrace(msg san.Message) obs.TraceID {
	if msg.Trace.Valid() {
		return msg.Trace
	}
	if tm, ok := msg.Body.(TaskMsg); ok {
		return obs.TraceID(tm.Trace)
	}
	return 0
}

// runTask executes the worker with panic isolation.
func (s *WorkerStub) runTask(ctx context.Context, msg san.Message) (blob tacc.Blob, err error, panicked any) {
	tm, ok := msg.Body.(TaskMsg)
	if !ok {
		return tacc.Blob{}, fmt.Errorf("stub: malformed task"), nil
	}
	defer func() {
		if r := recover(); r != nil {
			panicked = r
		}
	}()
	blob, err = s.worker.Process(ctx, &tm.Task)
	return blob, err, nil
}

func (s *WorkerStub) observeCost(d time.Duration) {
	us := uint64(d.Microseconds())
	old := s.costMs.Load()
	if old == 0 {
		s.costMs.Store(us)
		return
	}
	s.costMs.Store((old*7 + us*3) / 10) // EWMA alpha 0.3
}

// announce sends m to the stub's manager, or multicasts it on the
// control group while it knows none.
func (s *WorkerStub) announce(ep *san.Endpoint, m supervisor.Member) {
	s.mu.Lock()
	mgr := s.manager
	s.mu.Unlock()
	if mgr.IsZero() {
		ep.Multicast(GroupControl, supervisor.MsgAnnounce, m, 64)
	} else {
		_ = ep.Send(mgr, supervisor.MsgAnnounce, m, 64)
	}
}
