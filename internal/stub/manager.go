package stub

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/lottery"
	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/softstate"
	"repro/internal/tacc"
)

// ManagerStubConfig tunes a front end's manager stub.
type ManagerStubConfig struct {
	// CallTimeout bounds one dispatch attempt to one worker.
	CallTimeout time.Duration
	// RetryBackoff is the base delay inserted before each retry
	// attempt. The actual delay grows exponentially per attempt with
	// uniform jitter (base*2^(attempt-1) .. 2x that), so a fleet of
	// front ends failing over from the same dead worker does not
	// re-converge on the next one in lockstep — the retry-storm
	// amplifier under overload. Default 2 ms; negative disables.
	RetryBackoff time.Duration
	// OnManagerSilence is the process-peer action, typically
	// "restart the manager" wired up by the platform layer: a watchdog
	// runs it after softstate.ManagerSilence beats without a beacon.
	// Nil watches nothing.
	OnManagerSilence func()
	// Seed feeds the lottery scheduler.
	Seed int64
}

// dispatchAttempts is how many distinct workers one dispatch tries
// before it fails.
const dispatchAttempts = 3

func (c ManagerStubConfig) withDefaults() ManagerStubConfig {
	if c.CallTimeout <= 0 {
		c.CallTimeout = DefaultCallTimeout
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	return c
}

// ManagerStub is the front-end half of the SNS narrow interface: it
// consumes manager beacons, caches worker locations and load hints,
// selects workers by lottery scheduling, dispatches tasks with
// timeout-and-retry, and watches the manager as a process peer.
type ManagerStub struct {
	ep  *san.Endpoint
	cfg ManagerStubConfig

	workers *softstate.Table[WorkerInfo]
	sched   *lottery.Scheduler
	wd      *softstate.Watchdog

	mu        sync.Mutex
	manager   san.Addr
	lastEpoch uint64
	rng       *rand.Rand // jitter source for retry backoff (under mu)

	// Stats.
	dispatches  uint64
	retries     uint64
	failovers   uint64
	exhausted   uint64
	spawnAsks   uint64
	beaconsSeen uint64
	staleDrops  uint64
}

// ManagerStubStats is a snapshot of dispatch counters.
type ManagerStubStats struct {
	Dispatches  uint64
	Retries     uint64
	Failovers   uint64
	Exhausted   uint64
	SpawnAsks   uint64
	BeaconsSeen uint64
	// Epoch is the newest election epoch seen in a beacon; StaleDrops
	// counts beacons discarded for carrying an older one (a deposed
	// primary still talking).
	Epoch      uint64
	StaleDrops uint64
}

// NewManagerStub builds a stub over the front end's endpoint. The
// owner's receive loop must route every inbound message through
// HandleMessage.
func NewManagerStub(ep *san.Endpoint, cfg ManagerStubConfig) *ManagerStub {
	cfg = cfg.withDefaults()
	ms := &ManagerStub{
		ep:      ep,
		cfg:     cfg,
		workers: softstate.NewTable[WorkerInfo](softstate.StubWorkerTTL.Of(ep.Beacon()), nil),
		sched:   lottery.NewScheduler(cfg.Seed, true),                  // the §4.5 queue-delta estimator
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x6261636b6f6666)), // "backoff"
	}
	if cfg.OnManagerSilence != nil {
		ms.wd = &softstate.Watchdog{
			Timeout:   softstate.ManagerSilence.Of(ep.Beacon()),
			OnSilence: func(int) { cfg.OnManagerSilence() },
		}
		ms.wd.Start()
	}
	return ms
}

// Stop releases the watchdog.
func (ms *ManagerStub) Stop() {
	if ms.wd != nil {
		ms.wd.Stop()
	}
}

// HandleMessage processes one inbound SAN message if it belongs to the
// stub; it returns true when consumed. Call it for every message the
// front end receives.
func (ms *ManagerStub) HandleMessage(msg san.Message) bool {
	if msg.Kind != MsgBeacon {
		return false
	}
	b, ok := msg.Body.(Beacon)
	if !ok {
		return true
	}
	ms.mu.Lock()
	if b.Epoch < ms.lastEpoch {
		// A deposed primary's straggler: the newest epoch owns this
		// stub now. Dropping it (rather than letting it flip the cached
		// manager address back and forth) is what makes failover settle
		// within one beacon interval.
		ms.staleDrops++
		ms.mu.Unlock()
		return true
	}
	ms.lastEpoch = b.Epoch
	ms.manager = b.Manager
	ms.beaconsSeen++
	ms.mu.Unlock()
	if ms.wd != nil {
		ms.wd.Feed()
	}
	now := time.Now()
	live := make(map[string]bool, len(b.Workers))
	for _, w := range b.Workers {
		live[w.ID] = true
		ms.workers.Put(w.ID, w)
		ms.sched.Report(w.ID, w.QLen, now)
	}
	// Workers the manager no longer advertises are gone (the manager
	// "reports distiller failures to the manager stubs, which update
	// their caches", §3.1.3).
	for id := range ms.workers.Snapshot() {
		if !live[id] {
			ms.workers.Delete(id)
			ms.sched.Forget(id)
		}
	}
	// Collect entries that aged out between beacons (softstate reads
	// are non-destructive; the owner reaps expiry). The scheduler
	// forgets them too, so its estimator drops stale queue state.
	for _, id := range ms.workers.Expired() {
		ms.sched.Forget(id)
	}
	return true
}

// Manager returns the last known manager address.
func (ms *ManagerStub) Manager() san.Addr {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.manager
}

// Epoch returns the newest election epoch seen in a beacon.
func (ms *ManagerStub) Epoch() uint64 {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.lastEpoch
}

// Workers returns the cached workers of a class, sorted by ID.
func (ms *ManagerStub) Workers(class string) []WorkerInfo {
	snap := ms.workers.Snapshot()
	var out []WorkerInfo
	for _, w := range snap {
		if w.Class == class {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// QueueEstimate returns the smallest estimated queue length (the §4.5
// extrapolation the lottery runs on) among cached workers of class —
// any class when class is "". This is the front end's saturation
// signal: when even the least-loaded worker's estimated queue is deep,
// new work cannot plausibly meet a tight deadline and should degrade
// or shed instead of piling on. ok is false when no workers are known;
// the caller cannot distinguish idle from unknown and must not shed on
// that.
func (ms *ManagerStub) QueueEstimate(class string) (float64, bool) {
	now := time.Now()
	best := 0.0
	known := false
	for id, w := range ms.workers.Snapshot() {
		if class != "" && w.Class != class {
			continue
		}
		est := ms.sched.Estimate(id, now)
		if !known || est < best {
			best, known = est, true
		}
	}
	return best, known
}

// Stats returns dispatch counters.
func (ms *ManagerStub) Stats() ManagerStubStats {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ManagerStubStats{
		Dispatches:  ms.dispatches,
		Retries:     ms.retries,
		Failovers:   ms.failovers,
		Exhausted:   ms.exhausted,
		SpawnAsks:   ms.spawnAsks,
		BeaconsSeen: ms.beaconsSeen,
		Epoch:       ms.lastEpoch,
		StaleDrops:  ms.staleDrops,
	}
}

// Errors returned by dispatch.
var (
	ErrNoWorkers = errors.New("stub: no workers available for class")
	ErrExhausted = errors.New("stub: all dispatch attempts failed")
	// ErrDeadline means the request's deadline passed (or cannot
	// plausibly be met) before a worker produced a result; retrying
	// would only burn capacity on an answer nobody awaits.
	ErrDeadline = errors.New("stub: request deadline exceeded")
)

// retryBackoff computes the jittered exponential delay before retry
// attempt n (n >= 1): base*2^(n-1) scaled by a uniform [1, 2) draw.
// The exponent is capped so a long retry budget cannot overflow into
// multi-second stalls. Returns 0 when backoff is disabled.
func (ms *ManagerStub) retryBackoff(attempt int) time.Duration {
	base := ms.cfg.RetryBackoff
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	d := base << shift
	ms.mu.Lock()
	jitter := 1 + ms.rng.Float64()
	ms.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// sleepBackoff waits the attempt's backoff, abandoning the wait when
// the context ends first. Returns false if the context ended.
func (ms *ManagerStub) sleepBackoff(ctx context.Context, attempt int) bool {
	d := ms.retryBackoff(attempt)
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Dispatch runs one task on some worker of the class: lottery pick,
// bounded call, retry elsewhere on timeout or overload. Dead workers
// are dropped from the local cache immediately — the timeout is the
// BASE failure detector (§3.1.8: "if a request is sent to a worker
// that no longer exists, the request will time out and another worker
// will be chosen").
func (ms *ManagerStub) Dispatch(ctx context.Context, class string, task *tacc.Task) (tacc.Blob, error) {
	ms.mu.Lock()
	ms.dispatches++
	ms.mu.Unlock()

	// One dispatch span covers the whole pick/call/retry episode; the
	// note names the worker that finally answered (or the last tried).
	trace := obs.TraceFrom(ctx)
	var picked string
	attempts := 0
	if trace.Sampled() {
		dstart := time.Now()
		defer func() {
			ms.ep.Tracer().Record(obs.Span{
				Trace: trace, Hop: "dispatch",
				Note:  fmt.Sprintf("%s->%s x%d", class, picked, attempts),
				Start: dstart.UnixNano(), Dur: int64(time.Since(dstart)),
			})
		}()
	}

	// The context deadline is the request's end-to-end deadline: it is
	// stamped into every TaskMsg so workers can drop expired queue
	// entries, and it bounds each attempt's timeout so retries never
	// outlive the caller's interest.
	dl, hasDL := ctx.Deadline()
	var dlNanos int64
	if hasDL {
		dlNanos = dl.UnixNano()
	}

	tried := make(map[string]bool)
	for attempt := 0; attempt < dispatchAttempts; attempt++ {
		if attempt > 0 && !ms.sleepBackoff(ctx, attempt) {
			return tacc.Blob{}, fmt.Errorf("%w: class %s", ErrDeadline, class)
		}
		var ids []string
		for _, w := range ms.Workers(class) {
			if !tried[w.ID] {
				ids = append(ids, w.ID)
			}
		}
		if len(ids) == 0 {
			if attempt == 0 {
				// Nothing known: ask the manager to spawn and give
				// the beacons a moment to propagate.
				ms.requestSpawn(class)
				if !ms.waitForWorker(ctx, class) {
					return tacc.Blob{}, fmt.Errorf("%w: %s", ErrNoWorkers, class)
				}
				continue
			}
			break
		}
		id := ms.sched.Pick(ids, time.Now())
		tried[id] = true
		picked, attempts = id, attempt+1
		info, ok := ms.workers.Get(id)
		if !ok {
			continue
		}
		if attempt > 0 {
			ms.mu.Lock()
			ms.retries++
			ms.mu.Unlock()
		}
		callTimeout := ms.cfg.CallTimeout
		if hasDL {
			remaining := time.Until(dl)
			if remaining <= 0 {
				return tacc.Blob{}, fmt.Errorf("%w: class %s", ErrDeadline, class)
			}
			if remaining < callTimeout {
				callTimeout = remaining
			}
		}
		cctx, cancel := context.WithTimeout(ctx, callTimeout)
		resp, err := ms.ep.Call(cctx, info.Addr, MsgTask, TaskMsg{Task: *task, Deadline: dlNanos, Trace: uint64(trace)}, task.Input.Size()+128)
		cancel()
		if err != nil {
			// Timeout or vanished endpoint: treat the worker as
			// dead until the next beacon says otherwise.
			ms.workers.Delete(id)
			ms.sched.Forget(id)
			ms.mu.Lock()
			ms.failovers++
			ms.mu.Unlock()
			continue
		}
		res, ok := resp.Body.(ResultMsg)
		if !ok {
			resp.Release()
			continue
		}
		if res.Err != "" {
			resp.Release()
			if res.Err == ErrTaskExpired {
				// The worker dropped the task because its deadline had
				// already passed when it reached the head of the queue.
				// Terminal, not retryable: the clock won't run backwards.
				return tacc.Blob{}, fmt.Errorf("%w: class %s (dropped by %s)", ErrDeadline, class, id)
			}
			if res.Err == "queue full" || res.Err == ErrWorkerDisabled {
				continue // overloaded/disabled: try another instance
			}
			// A genuine task error (e.g. pathological input) is
			// not retryable: every instance would fail the same way.
			return tacc.Blob{}, fmt.Errorf("stub: worker %s: %s", id, res.Err)
		}
		if resp.Lease != nil {
			// Copy-on-retain: Dispatch hands out an owned Blob (callers
			// cache it, compose pipelines with it), so a view-decoded
			// result is cloned out of its receive buffer here.
			res.Blob.Data = san.CloneBytes(res.Blob.Data)
			resp.Release()
		}
		return res.Blob, nil
	}
	ms.mu.Lock()
	ms.exhausted++
	ms.mu.Unlock()
	return tacc.Blob{}, fmt.Errorf("%w: class %s", ErrExhausted, class)
}

// DispatchPipeline chains stages through remote workers: the output of
// stage i is the input of stage i+1 (the distributed counterpart of
// tacc.Registry.Run).
func (ms *ManagerStub) DispatchPipeline(ctx context.Context, p tacc.Pipeline, task *tacc.Task) (tacc.Blob, error) {
	if len(p) == 0 {
		return task.Input, nil
	}
	cur := *task
	for i, stage := range p {
		cur.Params = stage.Params
		out, err := ms.Dispatch(ctx, stage.Class, &cur)
		if err != nil {
			return tacc.Blob{}, fmt.Errorf("stub: pipeline stage %d (%s): %w", i, stage.Class, err)
		}
		cur.Input = out
		cur.Inputs = nil
	}
	return cur.Input, nil
}

// requestSpawn asks the manager for a new worker of class.
func (ms *ManagerStub) requestSpawn(class string) {
	mgr := ms.Manager()
	if mgr.IsZero() {
		return
	}
	ms.mu.Lock()
	ms.spawnAsks++
	ms.mu.Unlock()
	_ = ms.ep.Send(mgr, MsgSpawnReq, SpawnReq{Class: class}, 32)
}

// waitForWorker polls the cached table briefly for a worker of class
// to appear (spawn + beacon round trip).
func (ms *ManagerStub) waitForWorker(ctx context.Context, class string) bool {
	deadline := time.Now().Add(ms.cfg.CallTimeout)
	for time.Now().Before(deadline) {
		if len(ms.Workers(class)) > 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(5 * time.Millisecond):
		}
	}
	return len(ms.Workers(class)) > 0
}
