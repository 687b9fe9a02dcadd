// Package monitor implements the SNS graphical monitor (paper §3.1.7)
// minus the Tcl/Tk pixels: it is the one subscriber of the multicast
// report group (status reports and span digests, the latter ingested
// into its process's tracer), presents a unified view of the system as
// a single virtual entity, raises asynchronous alerts when a component
// falls silent ("the monitor can page or email the system operator ...
// if it stops receiving reports from some component"), and drives hot
// upgrades (§2.1) as a rolling wave of supervisor restarts, each one's
// stop the temporary disabling of its worker.
package monitor

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/san"
	"repro/internal/softstate"
	"repro/internal/stub"
	"repro/internal/supervisor"
)

// ComponentStatus is the monitor's view of one component.
type ComponentStatus struct {
	Component string
	Kind      string
	Node      string
	Metrics   map[string]float64
	LastSeen  time.Time
	Silent    bool // no report within the alert window
}

// Alert is an asynchronous operator notification (the email/pager
// analogue).
type Alert struct {
	Time      time.Time
	Component string
	Message   string
}

// Config tunes the monitor.
type Config struct {
	Name string
	Node string
	Net  *san.Network
	// SilenceAfter marks a component silent (and alerts) when no
	// report arrives for this long, and forgets a supervisor whose hellos
	// stopped that long ago. Default 4x the report interval.
	SilenceAfter time.Duration
	// OnAlert is invoked for every alert (nil = collect only).
	OnAlert func(Alert)
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "monitor"
	}
	if c.SilenceAfter <= 0 {
		c.SilenceAfter = 4 * stub.DefaultBeaconInterval
	}
	return c
}

// Monitor implements cluster.Process.
type Monitor struct {
	cfg  Config
	ep   *san.Endpoint
	sups *softstate.Table[supervisor.HelloMsg] // supervisor table, addr-keyed

	mu         sync.Mutex
	seen       map[string]*ComponentStatus
	hops       map[string]*hopAgg // per-hop latency from span digests
	alerts     []Alert
	alerted    map[string]bool   // component -> alert outstanding
	workers    []stub.WorkerInfo // inventory from the last beacon
	workersSeq uint64            // beacon seq the inventory came from
	cmdSeq     uint64
}

// New creates a monitor and registers its endpoint.
func New(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:     cfg,
		seen:    make(map[string]*ComponentStatus),
		hops:    make(map[string]*hopAgg),
		alerted: make(map[string]bool),
		sups:    softstate.NewTable[supervisor.HelloMsg](cfg.SilenceAfter, nil),
	}
	m.ep = cfg.Net.Endpoint(m.addr(), san.InboxSize)
	return m
}

func (m *Monitor) addr() san.Addr { return san.Addr{Node: m.cfg.Node, Proc: m.cfg.Name} }

// Addr returns the monitor's SAN address.
func (m *Monitor) Addr() san.Addr { return m.addr() }

// ID implements cluster.Process.
func (m *Monitor) ID() string { return m.cfg.Name }

// Run implements cluster.Process.
func (m *Monitor) Run(ctx context.Context) error {
	if m.ep == nil || !m.cfg.Net.Lookup(m.addr()) {
		m.ep = m.cfg.Net.Endpoint(m.addr(), san.InboxSize)
	}
	ep := m.ep
	defer ep.Close()
	ep.Join(stub.GroupReports)
	ep.Join(stub.GroupControl) // beacons double as manager liveness

	scan := time.NewTicker(m.cfg.SilenceAfter / 2)
	defer scan.Stop()

	for {
		select {
		case <-ctx.Done():
			return nil
		case <-scan.C:
			m.scanSilence()
		case msg, ok := <-ep.Inbox():
			if !ok {
				return fmt.Errorf("monitor: endpoint closed")
			}
			m.handle(msg)
		}
	}
}

func (m *Monitor) handle(msg san.Message) {
	switch msg.Kind {
	case stub.MsgMonReport:
		r, ok := msg.Body.(stub.StatusReport)
		if !ok {
			return
		}
		m.mu.Lock()
		m.seen[r.Component] = &ComponentStatus{
			Component: r.Component,
			Kind:      r.Kind,
			Node:      r.Node,
			Metrics:   r.Metrics, // decoded for this delivery: nobody else holds it
			LastSeen:  time.Now(),
		}
		if m.alerted[r.Component] {
			delete(m.alerted, r.Component)
			m.emitLocked(r.Component, "component recovered")
		}
		m.mu.Unlock()
	case stub.MsgBeacon:
		b, ok := msg.Body.(stub.Beacon)
		if !ok {
			return
		}
		m.mu.Lock()
		// The manager's row in the table comes from the status report it
		// sends with every beacon, like every other component's. The
		// beacon's worker list is the cluster-wide inventory the
		// upgrade-wave driver walks; the seq lets a reader insist on
		// an inventory generated after some action took effect.
		m.workers = append(m.workers[:0], b.Workers...)
		m.workersSeq = b.Seq
		m.mu.Unlock()
	case stub.MsgSpanDigest:
		d, ok := msg.Body.(stub.SpanDigest)
		if !ok {
			return
		}
		// The monitor is the one place digests go: its process's tracer
		// answers /trace?id= for the whole cluster.
		m.cfg.Net.Tracer().Ingest(d.Spans)
		m.mu.Lock()
		for _, sp := range d.Spans {
			if sp.Hop == "" {
				continue
			}
			h := m.hops[sp.Hop]
			if h == nil {
				h = &hopAgg{procs: make(map[string]struct{})}
				m.hops[sp.Hop] = h
			}
			h.count++
			h.total += sp.Dur
			if sp.Dur > h.max {
				h.max = sp.Dur
			}
			if sp.Proc != "" {
				h.procs[sp.Proc] = struct{}{}
			}
		}
		m.mu.Unlock()
	case supervisor.MsgHello:
		hb, ok := msg.Body.(supervisor.HelloMsg)
		if !ok {
			return
		}
		m.sups.Put(hb.Addr.String(), hb)
	}
}

// hopAgg accumulates span digests for one hop name.
type hopAgg struct {
	count uint64
	total int64
	max   int64
	procs map[string]struct{}
}

// HopStat is the monitor's cluster-wide latency summary for one trace
// hop — the §3.1.7 "single virtual entity" view of where request time
// goes, fed by the span digests every process multicasts on the report
// group.
type HopStat struct {
	Hop   string
	Count uint64
	Avg   time.Duration
	Max   time.Duration
	Procs int // distinct processes that reported this hop
}

// HopBreakdown returns per-hop latency aggregates sorted by hop name.
func (m *Monitor) HopBreakdown() []HopStat {
	m.mu.Lock()
	out := make([]HopStat, 0, len(m.hops))
	for hop, h := range m.hops {
		st := HopStat{Hop: hop, Count: h.count, Max: time.Duration(h.max), Procs: len(h.procs)}
		if h.count > 0 {
			st.Avg = time.Duration(h.total / int64(h.count))
		}
		out = append(out, st)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Hop < out[j].Hop })
	return out
}

func (m *Monitor) scanSilence() {
	now := time.Now()
	m.sups.Expired() // drop the rows silence has already hidden
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, st := range m.seen {
		if now.Sub(st.LastSeen) > m.cfg.SilenceAfter {
			st.Silent = true
			if !m.alerted[name] {
				m.alerted[name] = true
				m.emitLocked(name, fmt.Sprintf("no reports for %v", now.Sub(st.LastSeen).Round(time.Millisecond)))
			}
		} else {
			st.Silent = false
		}
	}
}

func (m *Monitor) emitLocked(component, message string) {
	a := Alert{Time: time.Now(), Component: component, Message: message}
	m.alerts = append(m.alerts, a)
	if m.cfg.OnAlert != nil {
		// Deliver outside the lock.
		go m.cfg.OnAlert(a)
	}
}

// Snapshot returns the current component table, sorted by name.
func (m *Monitor) Snapshot() []ComponentStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ComponentStatus, 0, len(m.seen))
	for _, st := range m.seen {
		cp := *st
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	return out
}

// Alerts returns all alerts so far.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// WorkersOf returns the workers of a class from the latest manager
// beacon, sorted by id — the cluster-wide inventory, wherever each
// worker's process lives.
func (m *Monitor) WorkersOf(class string) []stub.WorkerInfo {
	ws, _ := m.workersOfSeq(class)
	return ws
}

// workersOfSeq additionally reports the beacon seq the inventory was
// carried by.
func (m *Monitor) workersOfSeq(class string) ([]stub.WorkerInfo, uint64) {
	m.mu.Lock()
	var out []stub.WorkerInfo
	for _, w := range m.workers {
		if w.Class == class {
			out = append(out, w)
		}
	}
	seq := m.workersSeq
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, seq
}

// SupervisorFor resolves the supervisor owning a node by longest
// advertised prefix (supervisor.Owner — the same rule the manager
// uses, shared so the two watchers can never disagree).
func (m *Monitor) SupervisorFor(node string) (supervisor.HelloMsg, bool) {
	return supervisor.Owner(node, m.sups.Snapshot())
}

// Wave bounds: per supervisor command (retries reuse its id, so they are
// idempotent), and for a restarted worker to re-register.
const (
	waveCommandTimeout = 5 * time.Second
	waveRetries        = 3
	waveReadyTimeout   = 10 * time.Second
)

// WaveReport summarizes one upgrade wave.
type WaveReport struct {
	Class    string
	Upgraded []string // worker ids restarted and re-registered
	Failed   []string // worker ids the wave could not roll
}

// UpgradeWave performs the paper's hot upgrade (§2.1) as a rolling
// restart across every worker of a class, wherever each one's OS
// process lives: ask the owning process's supervisor to restart it
// under the same id, and wait for it to be back in the beacons before
// touching the next one. The restart's stop is the disable — the worker
// announces itself down, finishes the task in service and refuses the
// rest, so their callers fail over at once — and the restarted stub is
// the "upgraded binary". One worker is down at a time, so a class with
// two or more replicas serves throughout.
func (m *Monitor) UpgradeWave(ctx context.Context, class string) (WaveReport, error) {
	rep := WaveReport{Class: class}
	workers := m.WorkersOf(class)
	if len(workers) == 0 {
		return rep, fmt.Errorf("monitor: no workers of class %q in the beacon inventory", class)
	}
	m.mu.Lock()
	m.emitLocked("upgrade-wave", fmt.Sprintf("rolling %d %s workers", len(workers), class))
	m.mu.Unlock()

	for _, w := range workers {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if err := m.rollOne(ctx, class, w); err != nil {
			rep.Failed = append(rep.Failed, w.ID)
			m.mu.Lock()
			m.emitLocked("upgrade-wave", fmt.Sprintf("%s failed: %v", w.ID, err))
			m.mu.Unlock()
			continue
		}
		rep.Upgraded = append(rep.Upgraded, w.ID)
	}
	m.mu.Lock()
	m.emitLocked("upgrade-wave", fmt.Sprintf("%s complete: %d upgraded, %d failed",
		class, len(rep.Upgraded), len(rep.Failed)))
	m.mu.Unlock()
	if len(rep.Failed) > 0 {
		return rep, fmt.Errorf("monitor: wave left %d %s workers unupgraded", len(rep.Failed), class)
	}
	return rep, nil
}

// rollOne upgrades one worker: restart it, then wait for re-registration.
func (m *Monitor) rollOne(ctx context.Context, class string, w stub.WorkerInfo) error {
	sup, ok := m.SupervisorFor(w.Node)
	if !ok {
		return fmt.Errorf("no supervisor owns node %s", w.Node)
	}
	m.mu.Lock()
	m.cmdSeq++
	cmd := supervisor.Command{
		ID:     m.cmdSeq,
		Origin: m.addr().String(),
		Op:     supervisor.OpRestart,
		Target: w.ID,
	}
	m.mu.Unlock()

	var lastErr error
	for attempt := 0; attempt < waveRetries; attempt++ {
		cctx, cancel := context.WithTimeout(ctx, waveCommandTimeout)
		resp, err := m.ep.Call(cctx, sup.Addr, supervisor.MsgCmd, cmd, 64)
		cancel()
		if err != nil {
			lastErr = err
			continue
		}
		ack, isAck := resp.Body.(supervisor.Ack)
		if !isAck {
			lastErr = fmt.Errorf("malformed ack %T", resp.Body)
			continue
		}
		if !ack.OK {
			return fmt.Errorf("supervisor refused: %s", ack.Err)
		}
		lastErr = nil
		break
	}
	if lastErr != nil {
		return fmt.Errorf("restart command: %w", lastErr)
	}

	// Roll on only once the upgraded instance is back in the beacon
	// inventory — the zero-downtime guarantee for the next step. The
	// cached inventory can still be the stale pre-restart snapshot
	// (it is at most one beacon old and would still list w.ID), so
	// insist on one carried by a beacon at least two seqs past the
	// restart: re-registration happens on beacon receipt, so the
	// first beacon that can prove it is the one after the next.
	m.mu.Lock()
	seqAtRestart := m.workersSeq
	m.mu.Unlock()
	deadline := time.Now().Add(waveReadyTimeout)
	for time.Now().Before(deadline) {
		cur, seq := m.workersOfSeq(class)
		if seq >= seqAtRestart+2 {
			for _, c := range cur {
				if c.ID == w.ID {
					return nil
				}
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("restarted worker %s never re-registered", w.ID)
}

// RenderTable renders the system view as text — the visualization
// panel's textual equivalent.
func (m *Monitor) RenderTable() string {
	snap := m.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-10s %-8s %-8s %s\n", "COMPONENT", "KIND", "NODE", "STATE", "METRICS")
	for _, st := range snap {
		state := "ok"
		if st.Silent {
			state = "SILENT"
		}
		keys := make([]string, 0, len(st.Metrics))
		for k := range st.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var metrics []string
		for _, k := range keys {
			metrics = append(metrics, fmt.Sprintf("%s=%.1f", k, st.Metrics[k]))
		}
		fmt.Fprintf(&b, "%-16s %-10s %-8s %-8s %s\n",
			st.Component, st.Kind, st.Node, state, strings.Join(metrics, " "))
	}
	if hops := m.HopBreakdown(); len(hops) > 0 {
		fmt.Fprintf(&b, "\n%-18s %8s %12s %12s %6s\n", "HOP", "COUNT", "AVG", "MAX", "PROCS")
		for _, h := range hops {
			fmt.Fprintf(&b, "%-18s %8d %12v %12v %6d\n",
				h.Hop, h.Count, h.Avg.Round(time.Microsecond), h.Max.Round(time.Microsecond), h.Procs)
		}
	}
	return b.String()
}
