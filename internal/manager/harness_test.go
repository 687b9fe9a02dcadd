package manager

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
	"repro/internal/tacc"
)

// tick is the suite's beat: a network of newNet(tick) announces every
// 10 ms and expires a worker after 5 ticks, a front end after 6.
const tick = 10 * time.Millisecond

// calmBeat stretches the worker TTL to 20 ticks (5 beats): for tests
// that assert nothing more happens, on a test host whose scheduler can
// stall a heartbeat past the suite's usual five.
const calmBeat = 4 * tick

// newNet is a test network whose components announce once a beat.
func newNet(beat time.Duration) *san.Network {
	return san.NewNetwork(1, san.WithCodec(stub.WireCodec{}), san.WithBeacon(beat))
}

type nullWorker struct{ class string }

func (w nullWorker) Class() string { return w.class }
func (w nullWorker) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	return task.Input, nil
}

// fakeSup is a supervisor endpoint and the process behind it, both
// hand-driven: it heartbeats its roster like the real daemon, answers
// commands from a script — absorb (no ack), refuse, or execute — and,
// executing, runs real worker stubs the way core's component table
// does: a slot keeps its roster row when it dies, an extra loses it.
// It is the only lever the manager under test has.
type fakeSup struct {
	net    *san.Network
	addr   san.Addr
	prefix string
	ep     *san.Endpoint

	mu       sync.Mutex
	mode     string // "ok", "absorb", "refuse"
	roster   []supervisor.Row
	commands []supervisor.Command
	nextID   int
	workers  map[string]*fakeWorker
}

type fakeWorker struct {
	row    supervisor.Row
	class  string
	extra  bool
	ovf    bool
	cancel context.CancelFunc // nil while dead
	done   chan struct{}
}

func startFakeSup(t *testing.T, net *san.Network, node, prefix string) *fakeSup {
	t.Helper()
	s := &fakeSup{
		net:     net,
		addr:    san.Addr{Node: node, Proc: "sup"},
		prefix:  prefix,
		mode:    "ok",
		workers: make(map[string]*fakeWorker),
	}
	s.ep = net.Endpoint(s.addr, 64)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, w := range s.workers {
			if w.cancel != nil {
				w.cancel()
			}
		}
	})
	go func() {
		hb := time.NewTicker(tick)
		defer hb.Stop()
		s.hello()
		for {
			select {
			case <-ctx.Done():
				return
			case <-hb.C:
				s.hello()
			case msg, ok := <-s.ep.Inbox():
				if !ok {
					return
				}
				if msg.Kind != supervisor.MsgCmd {
					continue
				}
				cmd := msg.Body.(supervisor.Command)
				s.mu.Lock()
				s.commands = append(s.commands, cmd)
				mode := s.mode
				s.mu.Unlock()
				switch mode {
				case "absorb":
					// Supervisor died mid-command: received, never acked.
				case "refuse":
					_ = s.ep.Respond(msg, supervisor.MsgAck, supervisor.Ack{ID: cmd.ID, Err: "busy"}, 64)
				default:
					ack := supervisor.Ack{ID: cmd.ID, OK: true}
					if err := s.execute(cmd); err != nil {
						ack = supervisor.Ack{ID: cmd.ID, Err: err.Error()}
					}
					_ = s.ep.Respond(msg, supervisor.MsgAck, ack, 64)
				}
			}
		}
	}()
	return s
}

// member is the announcement of a component of kind at ep, up.
func member(ep *san.Endpoint, kind string) supervisor.Member {
	return supervisor.Member{Addr: ep.Addr(), Kind: kind, State: supervisor.StateUp}
}

func (s *fakeSup) hello() {
	s.mu.Lock()
	roster := append([]supervisor.Row(nil), s.roster...)
	s.mu.Unlock()
	s.ep.Multicast(stub.GroupControl, supervisor.MsgHello, supervisor.HelloMsg{
		Name: "sup", Addr: s.addr, Node: s.addr.Node, Prefix: s.prefix, Roster: roster,
	}, 64)
}

func (s *fakeSup) setRoster(rows ...supervisor.Row) {
	s.mu.Lock()
	s.roster = rows
	s.mu.Unlock()
}

func (s *fakeSup) setMode(mode string) {
	s.mu.Lock()
	s.mode = mode
	s.mu.Unlock()
}

func (s *fakeSup) received() []supervisor.Command {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]supervisor.Command(nil), s.commands...)
}

// count returns how many commands of op arrived ("" = any).
func (s *fakeSup) count(op string) int {
	n := 0
	for _, c := range s.received() {
		if op == "" || c.Op == op {
			n++
		}
	}
	return n
}

// live lists the ids of the worker stubs running now.
func (s *fakeSup) live() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for id, w := range s.workers {
		if w.cancel != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// slot starts a configured worker: a roster row for good.
func (s *fakeSup) slot(class string) stub.WorkerInfo { return s.add(class, false, false) }

// extra starts a worker the way OpSpawnWorker does: listed while alive.
func (s *fakeSup) extra(class string, overflow bool) stub.WorkerInfo {
	return s.add(class, true, overflow)
}

func (s *fakeSup) add(class string, extra, overflow bool) stub.WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	pool := "nd"
	if overflow {
		pool = "ovf"
	}
	w := &fakeWorker{
		row: supervisor.Row{
			Name: fmt.Sprintf("%s%s.%d", s.prefix, class, s.nextID),
			Kind: supervisor.KindWorker,
			Node: fmt.Sprintf("%s%s%d", s.prefix, pool, s.nextID),
		},
		class: class, extra: extra, ovf: overflow,
	}
	s.nextID++
	s.workers[w.row.Name] = w
	s.roster = append(s.roster, w.row)
	return s.runLocked(w)
}

func (s *fakeSup) runLocked(w *fakeWorker) stub.WorkerInfo {
	ws := stub.NewWorkerStub(w.row.Name, w.row.Node, nullWorker{class: w.class}, s.net,
		stub.WorkerConfig{Overflow: w.ovf})
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel, w.done = cancel, make(chan struct{})
	go func(done chan struct{}) {
		ws.Run(ctx)
		close(done)
	}(w.done)
	return stub.WorkerInfo{ID: w.row.Name, Class: w.class, Addr: ws.Addr(), Node: w.row.Node, Overflow: w.ovf}
}

// stopLocked ends a worker's current instance and waits for it to exit;
// abrupt drops its endpoint first so it cannot say goodbye. An extra
// leaves the roster, as core's exit observer has it.
func (s *fakeSup) stopLocked(w *fakeWorker, abrupt bool) {
	if w.cancel != nil {
		if abrupt {
			s.net.Drop(san.Addr{Node: w.row.Node, Proc: w.row.Name})
		}
		w.cancel()
		<-w.done
		w.cancel = nil
	}
	if w.extra {
		delete(s.workers, w.row.Name)
		for i, r := range s.roster {
			if r == w.row {
				s.roster = append(s.roster[:i:i], s.roster[i+1:]...)
				break
			}
		}
	}
}

// crash kills a worker with no deregistration reaching the manager.
func (s *fakeSup) crash(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.workers[id]; w != nil {
		s.stopLocked(w, true)
	}
}

func (s *fakeSup) execute(cmd supervisor.Command) error {
	s.mu.Lock()
	w := s.workers[cmd.Target]
	s.mu.Unlock()
	switch cmd.Op {
	case supervisor.OpSpawnWorker:
		s.extra(cmd.Target, false)
	case supervisor.OpRestart:
		if w != nil { // stop-then-start under the same id; other kinds are only recorded
			s.mu.Lock()
			defer s.mu.Unlock()
			s.stopLocked(w, false)
			s.runLocked(w)
		}
	case supervisor.OpReap:
		if w == nil {
			return fmt.Errorf("no worker %s", cmd.Target)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.stopLocked(w, false)
	}
	return nil
}

// startManager runs a manager on node, as mutate adjusts it, until the
// test ends; the returned cancel kills it early. Its timing is its
// network's beat.
func startManager(t *testing.T, net *san.Network, node string, mutate func(*Config)) (*Manager, context.CancelFunc) {
	t.Helper()
	cfg := Config{
		Node:       node,
		Net:        net,
		Policy:     Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
		CmdTimeout: 5 * tick,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go m.Run(ctx)
	return m, cancel
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// holds fails the test if cond stops holding at any point within d,
// and says what the manager and the supervisor had seen by then.
func holds(t *testing.T, d time.Duration, what string, m *Manager, sup *fakeSup, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if !cond() {
			t.Fatalf("%s stopped holding: manager %+v, supervisor saw %+v, live %v", what, m.Stats(), sup.received(), sup.live())
		}
	}
}
