package chaos

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/manager"
	"repro/internal/tacc"
)

// Config assembles a chaos harness. Zero values give a compact system
// with timings compressed for tests: 2 workers of one echo class, one
// front end, two cache partitions, 10 ms beacons.
type Config struct {
	Seed int64

	// Topology. Defaults: 10 dedicated nodes (one process each, so
	// node-level faults map 1:1 to component faults), no overflow
	// pool, cacheParts cache partitions.
	DedicatedNodes int
	FrontEnds      int
	Workers        map[string]int
	// Managers is how many manager replicas to run (election-ranked:
	// rank 0 boots as primary, the rest as standbys). Default 1 — the
	// pre-replication topology. KillManager faults always target the
	// acting primary.
	Managers int
	// Edge adds the L7 front door: the system binds an edge listener
	// and per-FE HTTP adapters on loopback, and StartEdgeLoad drives
	// the workload through it as real HTTP instead of in-process
	// System.Request calls.
	Edge bool

	// Service. Nil Registry/Rules install an echo worker class
	// ("chaos-echo") whose pipeline every request traverses, so a
	// request observes the full FE -> cache -> dispatch -> inject
	// path without distillation cost.
	Registry *tacc.Registry
	Rules    tacc.DispatchRule

	// Timings (compressed for tests).
	BeaconInterval time.Duration
	CallTimeout    time.Duration

	// CacheSuperviseTTL tunes the manager's cache process-peer
	// timeout. The harness default (10 s) is deliberately longer than
	// any scripted partition or loss burst, so cache restarts appear
	// on a timeline only when a schedule actually kills a cache —
	// keeping run-to-run timelines deterministic. The crash-loop
	// scenario opts into a tight TTL explicitly.
	CacheSuperviseTTL time.Duration

	// Overload robustness passthroughs (zero = the core defaults:
	// no deadline stamping, no queue-high-water shedding, no cache
	// expiry). The saturation scenarios set these; CacheTTL > 0 gives
	// the degraded path stale entries to serve.
	RequestDeadline  time.Duration
	FEQueueHighWater float64
	CacheTTL         time.Duration
}

// EchoClass is the default worker class installed when no registry is
// supplied.
const EchoClass = "chaos-echo"

// Fixed parts of every harness: two cache partitions; a cache round
// trip bound tight enough that a partitioned cache group falls back to
// origin fast.
const (
	cacheParts   = 2
	cacheTimeout = 100 * time.Millisecond
)

// recoveryOnly is the manager policy every harness runs: restart what
// the roster names, never spawn on load — so restart counts are a pure
// function of the fault schedule.
var recoveryOnly = manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1}

func (c Config) withDefaults() Config {
	if c.DedicatedNodes <= 0 {
		c.DedicatedNodes = 10
	}
	if c.FrontEnds <= 0 {
		c.FrontEnds = 1
	}
	if len(c.Workers) == 0 {
		c.Workers = map[string]int{EchoClass: 2}
	}
	if c.Registry == nil {
		c.Registry = tacc.NewRegistry()
		for class := range c.Workers { // every class echoes; the rule below routes to EchoClass
			c.Registry.Register(class, func() tacc.Worker {
				return tacc.WorkerFunc{Name: class, Fn: func(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
					return task.Input, nil
				}}
			})
		}
		if c.Rules == nil {
			c.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
				return tacc.Pipeline{{Class: EchoClass}}
			}
		}
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = 10 * time.Millisecond
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 250 * time.Millisecond
	}
	if c.CacheSuperviseTTL <= 0 {
		c.CacheSuperviseTTL = 10 * time.Second
	}
	return c
}

// Harness drives one SNS instance through fault schedules.
type Harness struct {
	cfg Config
	Sys *core.System

	rec          *recorder
	managerKills int // KillManager faults that found a live replica
	removeObs    func()
	load         *loadGen
	baseline     float64 // pre-fault steady-state capacity (success fraction)
	baselineOK   bool
}

// New boots a complete SNS instance and attaches the observers.
func New(cfg Config) (*Harness, error) {
	cfg = cfg.withDefaults()
	var edgeListen, feHTTP string
	if cfg.Edge {
		edgeListen, feHTTP = "127.0.0.1:0", "127.0.0.1"
	}
	sys, err := core.Start(core.Config{
		Seed:              cfg.Seed,
		DedicatedNodes:    cfg.DedicatedNodes,
		FrontEnds:         cfg.FrontEnds,
		CacheParts:        cacheParts,
		Workers:           cfg.Workers,
		Managers:          cfg.Managers,
		Registry:          cfg.Registry,
		Rules:             cfg.Rules,
		BeaconInterval:    cfg.BeaconInterval,
		CallTimeout:       cfg.CallTimeout,
		CacheTimeout:      cacheTimeout,
		CacheSuperviseTTL: cfg.CacheSuperviseTTL,
		MinDistillSize:    1, // everything traverses the worker pipeline
		Policy:            recoveryOnly,
		RequestDeadline:   cfg.RequestDeadline,
		FEQueueHighWater:  cfg.FEQueueHighWater,
		CacheTTL:          cfg.CacheTTL,
		EdgeListen:        edgeListen,
		FEHTTP:            feHTTP,
		EdgeRetryBudget:   0.5,
	})
	if err != nil {
		return nil, err
	}
	h := &Harness{cfg: cfg, Sys: sys, rec: &recorder{start: time.Now()}}
	h.removeObs = sys.Cluster.OnExit(func(info cluster.ExitInfo) {
		detail := "clean"
		if info.Err != nil {
			detail = info.Err.Error()
		}
		h.rec.record("exit", info.Node+"/"+info.Proc, detail)
	})
	if !h.AwaitSteady(10 * time.Second) {
		h.Stop()
		return nil, fmt.Errorf("chaos: system did not become ready")
	}
	return h, nil
}

// Stop tears the system down. The timeline remains readable.
func (h *Harness) Stop() {
	if h.load != nil {
		h.load.stop()
	}
	if h.removeObs != nil {
		h.removeObs()
	}
	h.Sys.Stop()
}

// Timeline returns the recorded history so far: injected faults,
// process exits, scenario notes, and the monitor's alerts merged in.
func (h *Harness) Timeline() Timeline {
	tl := h.rec.snapshot()
	for _, a := range h.Sys.Mon.Alerts() {
		t := a.Time.Sub(h.rec.start)
		if t < 0 {
			t = 0
		}
		tl = append(tl, TimelineEvent{T: t, Kind: "alert", Name: a.Component, Detail: a.Message})
	}
	sort.SliceStable(tl, func(i, j int) bool { return tl[i].T < tl[j].T })
	return tl
}

// FaultTimeline returns only the injected-fault events, each named by
// the deterministic Event identity (offset, kind, slot, knobs). Two
// executions of the same schedule yield identical fault timelines —
// the reproducibility contract the determinism test asserts.
func (h *Harness) FaultTimeline() []string {
	var out []string
	for _, e := range h.rec.snapshot() {
		if e.Kind == "fault" {
			out = append(out, e.Name)
		}
	}
	return out
}

// Note records a scenario annotation (e.g. a measured recovery
// latency) on the timeline.
func (h *Harness) Note(name, detail string) { h.rec.record("note", name, detail) }

// Execute runs the schedule to completion: each event fires at its
// offset from the call, against the live system. It returns the
// number of events injected.
func (h *Harness) Execute(ctx context.Context, sched Schedule) int {
	start := time.Now()
	injected := 0
	for _, ev := range sched.Events {
		wait := ev.At - time.Since(start)
		if wait > 0 {
			select {
			case <-ctx.Done():
				return injected
			case <-time.After(wait):
			}
		}
		h.inject(ev)
		injected++
	}
	return injected
}

// inject applies one event and records it. The recorded name is the
// event's deterministic identity; the detail carries the resolved
// target (which may legitimately differ between runs, e.g. respawned
// worker ids).
func (h *Harness) inject(ev Event) {
	detail := ""
	switch ev.Kind {
	case KillWorker, KillCache, KillFrontEnd:
		detail = "no-target"
		if name := h.pick(killKinds[ev.Kind], ev.Slot); name != "" {
			_ = h.Sys.Kill(name)
			detail = name
		}
	case KillManager:
		if h.Sys.KillManager() == nil {
			h.managerKills++
		}
	case PartitionCaches:
		groups := h.CachePartitionGroups()
		if ev.Dur > 0 {
			h.Sys.Net.PartitionFor(groups, ev.Dur)
		} else {
			h.Sys.Net.Partition(groups)
		}
	case LossBurst:
		h.Sys.Net.LossBurst(ev.P2P, ev.Mcast, ev.Dur)
	case HangWorker:
		// As with PartitionCaches, Dur <= 0 means the fault persists
		// until lifted manually.
		if id := h.pick(core.KindWorker, ev.Slot); id != "" {
			if ws := h.Sys.WorkerStub(id); ws != nil {
				ws.InjectHang(true)
				if ev.Dur > 0 {
					time.AfterFunc(ev.Dur, func() { ws.InjectHang(false) })
				}
				detail = id
			}
		}
	case SlowWorker:
		if id := h.pick(core.KindWorker, ev.Slot); id != "" {
			if ws := h.Sys.WorkerStub(id); ws != nil {
				ws.InjectSlowdown(ev.Delay)
				if ev.Dur > 0 {
					time.AfterFunc(ev.Dur, func() { ws.InjectSlowdown(0) })
				}
				detail = id
			}
		}
	case SeverBridge:
		if br := h.Sys.Bridge; br != nil {
			br.SeverPeers(ev.Dur)
		} else {
			detail = "no-bridge"
		}
	case Heal:
		h.Sys.Net.Heal()
	}
	h.rec.record("fault", ev.String(), detail)
}

// killKinds maps each kill-by-slot fault to the kind of component it
// crashes.
var killKinds = map[ActionKind]core.Kind{
	KillWorker:   core.KindWorker,
	KillCache:    core.KindCache,
	KillFrontEnd: core.KindFrontEnd,
}

// pick resolves a slot to the name of a live locally hosted component
// of kind (sorted order), "" when there is none.
func (h *Harness) pick(kind core.Kind, slot int) string {
	names := h.Sys.Names(kind)
	if len(names) == 0 {
		return ""
	}
	return names[slot%len(names)]
}

// AwaitSteady blocks until the system is at full strength — the
// platform's own readiness rule (core.System.WaitReady). It returns
// false on timeout.
func (h *Harness) AwaitSteady(timeout time.Duration) bool { return h.Sys.WaitReady(timeout) }

// AwaitPopulation blocks until the live count of every component kind
// has equalled the configured count — no fewer, no more — for ten
// beacon periods on end, and reports what is off if that takes longer
// than timeout. It is the convergence every scenario must reach once
// its last fault is behind it.
func (h *Harness) AwaitPopulation(timeout time.Duration) error {
	want := map[core.Kind]int{
		core.KindCache:    cacheParts,
		core.KindManager:  max(h.cfg.Managers, 1),
		core.KindFrontEnd: h.cfg.FrontEnds,
	}
	for _, n := range h.cfg.Workers {
		want[core.KindWorker] += n
	}
	start := time.Now()
	for since := start; ; time.Sleep(2 * time.Millisecond) {
		off := ""
		for kind, n := range want {
			got := h.Sys.Names(kind)
			ok := len(got) == n
			if kind == core.KindManager && n > 1 {
				// The one component a kill deliberately leaves dead: a
				// replicated manager replaces a lost primary by election,
				// and front ends respawn corpses only once every replica
				// is silent.
				ok = len(got) <= n && len(got) >= max(1, n-h.managerKills)
			}
			if !ok {
				off += fmt.Sprintf(" %s: %d live %v, %d configured;", kind, len(got), got, n)
			}
		}
		now := time.Now()
		switch {
		case off != "" && now.Sub(start) > timeout:
			return fmt.Errorf("chaos: population did not converge:%s", off)
		case off != "":
			since = now
		case now.Sub(since) >= 10*h.cfg.BeaconInterval:
			return nil
		}
	}
}

// ProbeCapacity issues n sequential requests against the system and
// returns the fraction that succeeded — the steady-state capacity
// measure the soak test compares before and after the kill storm.
// Probes use a dedicated URL range so they share cache state across
// calls only with each other.
func (h *Harness) ProbeCapacity(ctx context.Context, n int) float64 {
	if n <= 0 {
		return 0
	}
	ok := 0
	for i := 0; i < n; i++ {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_, err := h.Sys.Request(rctx, probeURL(i), "probe")
		cancel()
		if err == nil {
			ok++
		}
	}
	return float64(ok) / float64(n)
}

func probeURL(i int) string {
	return fmt.Sprintf("http://probe.example/obj%d.bin", i%64)
}

// BaselineCapacity measures and remembers the pre-fault steady-state
// capacity; RecoveredWithin compares against it later.
func (h *Harness) BaselineCapacity(ctx context.Context, n int) float64 {
	h.baseline = h.ProbeCapacity(ctx, n)
	h.baselineOK = true
	h.Note("baseline", fmt.Sprintf("capacity=%.2f over %d probes", h.baseline, n))
	return h.baseline
}

// RecoveredWithin reports whether post-fault capacity is within frac
// (e.g. 0.10) of the recorded baseline, probing with n requests.
func (h *Harness) RecoveredWithin(ctx context.Context, n int, frac float64) (float64, bool) {
	after := h.ProbeCapacity(ctx, n)
	h.Note("recovered", fmt.Sprintf("capacity=%.2f baseline=%.2f", after, h.baseline))
	if !h.baselineOK {
		return after, false
	}
	return after, after >= h.baseline*(1-frac)
}

// CachePartitionGroups returns the partition map that isolates every
// cache node — exported so scenarios can partition and heal manually
// around their own assertions.
func (h *Harness) CachePartitionGroups() map[string]int {
	groups := map[string]int{}
	for _, addr := range h.Sys.CacheNodes() {
		groups[addr.Node] = 1
	}
	return groups
}
