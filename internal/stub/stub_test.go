package stub

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/supervisor"
	"repro/internal/tacc"
)

// echoWorker returns its input with a marker, or fails/panics on
// demand via the task params.
type echoWorker struct{}

func (echoWorker) Class() string { return "echo" }

func (echoWorker) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	switch task.Param("mode", "") {
	case "fail":
		return tacc.Blob{}, errors.New("pathological input")
	case "panic":
		panic("worker bug")
	case "slow":
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
		}
	case "busy": // a distiller's CPU burst: no context to watch
		time.Sleep(40 * time.Millisecond)
	}
	return tacc.Blob{MIME: "text/plain", Data: append([]byte("echo:"), task.Input.Data...)}, nil
}

// fakeManager beacons periodically and counts announcements. Admitting
// a worker is idempotent, as the real manager's is: a stub's multicast
// announcements and its unicast ones after the first beacon all arrive,
// and workers carries each worker once.
type fakeManager struct {
	net      *san.Network
	ep       *san.Endpoint
	interval time.Duration

	up        atomic.Int64 // announcements of a worker up
	down      atomic.Int64 // ... and of one stopping
	unicast   atomic.Int64 // of either, those sent here rather than to the group
	spawnReqs atomic.Int64
	workers   chan WorkerInfo // sized to the stubs a test runs
	admitted  map[string]bool // run's goroutine only
}

func newFakeManager(net *san.Network, interval time.Duration) *fakeManager {
	fm := &fakeManager{
		net:      net,
		interval: interval,
		workers:  make(chan WorkerInfo, 8),
		admitted: make(map[string]bool),
	}
	fm.ep = net.Endpoint(san.Addr{Node: "mgr", Proc: "manager"}, 1024)
	fm.ep.Join(GroupControl)
	return fm
}

func (fm *fakeManager) run(ctx context.Context, advertise func() []WorkerInfo) {
	tk := time.NewTicker(fm.interval)
	defer tk.Stop()
	seq := uint64(0)
	send := func() { // as the manager does: the head to workers, the table to the rest
		seq++
		fm.ep.Multicast(GroupBeacon, MsgBeacon, Beacon{Manager: fm.ep.Addr(), Seq: seq}, 64)
		fm.ep.Multicast(GroupControl, MsgBeacon, Beacon{
			Manager: fm.ep.Addr(), Seq: seq, Workers: advertise(),
		}, 128)
	}
	send()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tk.C:
			send()
		case msg, ok := <-fm.ep.Inbox():
			if !ok {
				return
			}
			switch msg.Kind {
			case supervisor.MsgAnnounce:
				m := msg.Body.(supervisor.Member)
				if msg.Group == "" {
					fm.unicast.Add(1)
				}
				if m.State == supervisor.StateDown {
					fm.down.Add(1)
				}
				if m.State != supervisor.StateUp {
					continue
				}
				fm.up.Add(1)
				if !fm.admitted[m.Addr.Proc] {
					fm.admitted[m.Addr.Proc] = true
					fm.workers <- WorkerInfo{ID: m.Addr.Proc, Class: m.Class, Addr: m.Addr, Node: m.Addr.Node}
				}
			case MsgSpawnReq:
				fm.spawnReqs.Add(1)
			}
		}
	}
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

// newNet is a test network whose components announce once a beat.
func newNet(beat time.Duration) *san.Network {
	return san.NewNetwork(1, san.WithBeacon(beat))
}

// feEndpoint builds a front-end-like endpoint with a manager stub and
// a pump routing messages into it.
func feEndpoint(t *testing.T, net *san.Network, cfg ManagerStubConfig) (*san.Endpoint, *ManagerStub) {
	t.Helper()
	ep := net.Endpoint(san.Addr{Node: "fe", Proc: "fe0"}, 1024)
	ep.Join(GroupControl)
	ms := NewManagerStub(ep, cfg)
	go func() {
		for msg := range ep.Inbox() {
			ms.HandleMessage(msg)
		}
	}()
	t.Cleanup(ms.Stop)
	return ep, ms
}

func TestWorkerRegistersAndServes(t *testing.T) {
	net := newNet(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	fm := newFakeManager(net, 10*time.Millisecond)
	var advertised atomic.Value
	advertised.Store([]WorkerInfo{})
	go fm.run(ctx, func() []WorkerInfo { return advertised.Load().([]WorkerInfo) })

	ws := NewWorkerStub("w0", "n1", echoWorker{}, net, WorkerConfig{})
	go ws.Run(ctx)

	waitFor(t, "registration", func() bool { return fm.up.Load() >= 1 })
	info := <-fm.workers
	if info.Class != "echo" || info.ID != "w0" {
		t.Fatalf("info = %+v", info)
	}
	advertised.Store([]WorkerInfo{info})

	// Announcements go to the manager once the worker has heard it.
	waitFor(t, "unicast announcements", func() bool { return fm.unicast.Load() >= 2 })

	// Dispatch through a manager stub.
	_, ms := feEndpoint(t, net, ManagerStubConfig{CallTimeout: time.Second})
	waitFor(t, "worker visible in stub", func() bool { return len(ms.Workers("echo")) == 1 })
	out, err := ms.Dispatch(ctx, "echo", &tacc.Task{Input: tacc.Blob{Data: []byte("hi")}})
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Data) != "echo:hi" {
		t.Fatalf("out = %q", out.Data)
	}
}

// TestWorkerRegistersBeforeAnyBeacon: a stub that knows no manager
// multicasts its announcement on its schedule — at once, then 5, 15,
// 35 ms in — so a manager hears it long before its own next beacon, here
// one that never beacons at all.
func TestWorkerRegistersBeforeAnyBeacon(t *testing.T) {
	net := san.NewNetwork(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	listener := net.Endpoint(san.Addr{Node: "mgr", Proc: "silent"}, 64)
	listener.Join(GroupControl)

	start := time.Now()
	go NewWorkerStub("w0", "n1", echoWorker{}, net, WorkerConfig{}).Run(ctx)
	for n := 0; n < 4; n++ {
		select {
		case msg := <-listener.Inbox():
			if m, ok := msg.Body.(supervisor.Member); !ok || m.Addr.Proc != "w0" || m.State != supervisor.StateUp || msg.Group != GroupControl {
				t.Fatalf("heard %s %+v, want w0 announcing itself up on the group", msg.Kind, msg.Body)
			}
		case <-time.After(time.Second):
			t.Fatalf("%d announcements in %v", n, time.Since(start))
		}
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("four announcements took %v at a %v interval", d, net.Beacon())
	}
}

func TestWorkerTaskErrorPropagates(t *testing.T) {
	net := newNet(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fm := newFakeManager(net, 10*time.Millisecond)
	var adv atomic.Value
	adv.Store([]WorkerInfo{})
	go fm.run(ctx, func() []WorkerInfo { return adv.Load().([]WorkerInfo) })

	ws := NewWorkerStub("w0", "n1", echoWorker{}, net, WorkerConfig{})
	go ws.Run(ctx)
	waitFor(t, "registration", func() bool { return fm.up.Load() >= 1 })
	adv.Store([]WorkerInfo{<-fm.workers})

	_, ms := feEndpoint(t, net, ManagerStubConfig{CallTimeout: time.Second})
	waitFor(t, "worker visible", func() bool { return len(ms.Workers("echo")) == 1 })
	_, err := ms.Dispatch(ctx, "echo", &tacc.Task{Params: map[string]string{"mode": "fail"}})
	if err == nil || !strings.Contains(err.Error(), "pathological") {
		t.Fatalf("err = %v", err)
	}
	// Task errors are not retried on other instances.
	if st := ms.Stats(); st.Failovers != 0 {
		t.Fatalf("failovers = %d on a task error", st.Failovers)
	}
}

func TestWorkerPanicCrashesStub(t *testing.T) {
	net := newNet(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fm := newFakeManager(net, 10*time.Millisecond)
	var adv atomic.Value
	adv.Store([]WorkerInfo{})
	go fm.run(ctx, func() []WorkerInfo { return adv.Load().([]WorkerInfo) })

	ws := NewWorkerStub("w0", "n1", echoWorker{}, net, WorkerConfig{})
	exit := make(chan error, 1)
	go func() { exit <- ws.Run(ctx) }()
	waitFor(t, "registration", func() bool { return fm.up.Load() >= 1 })
	adv.Store([]WorkerInfo{<-fm.workers})

	ep, ms := feEndpoint(t, net, ManagerStubConfig{CallTimeout: time.Second})
	_ = ep
	waitFor(t, "worker visible", func() bool { return len(ms.Workers("echo")) == 1 })
	_, err := ms.Dispatch(ctx, "echo", &tacc.Task{Params: map[string]string{"mode": "panic"}})
	if err == nil {
		t.Fatal("panic should surface as an error to the caller")
	}
	select {
	case runErr := <-exit:
		var crash errWorkerCrash
		if !errors.As(runErr, &crash) {
			t.Fatalf("stub exit = %v, want worker crash", runErr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stub did not crash on worker panic")
	}
}

func TestDispatchFailsOverToLiveWorker(t *testing.T) {
	net := newNet(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fm := newFakeManager(net, 10*time.Millisecond)
	var adv atomic.Value
	adv.Store([]WorkerInfo{})
	go fm.run(ctx, func() []WorkerInfo { return adv.Load().([]WorkerInfo) })

	// One live worker plus one advertised ghost (crashed but still
	// in the stale beacon — exactly the §3.1.8 scenario).
	ws := NewWorkerStub("w-live", "n1", echoWorker{}, net, WorkerConfig{})
	go ws.Run(ctx)
	waitFor(t, "registration", func() bool { return fm.up.Load() >= 1 })
	live := <-fm.workers
	ghost := WorkerInfo{ID: "w-ghost", Class: "echo", Addr: san.Addr{Node: "gone", Proc: "w-ghost"}, Node: "gone"}
	adv.Store([]WorkerInfo{live, ghost})

	_, ms := feEndpoint(t, net, ManagerStubConfig{CallTimeout: 50 * time.Millisecond})
	waitFor(t, "both visible", func() bool { return len(ms.Workers("echo")) == 2 })

	// Run enough dispatches that the lottery must hit the ghost at
	// least once; every request must still succeed via failover.
	for i := 0; i < 10; i++ {
		out, err := ms.Dispatch(ctx, "echo", &tacc.Task{Input: tacc.Blob{Data: []byte("x")}})
		if err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
		if string(out.Data) != "echo:x" {
			t.Fatalf("out = %q", out.Data)
		}
	}
}

func TestQueueFullRejection(t *testing.T) {
	net := newNet(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fm := newFakeManager(net, 10*time.Millisecond)
	var adv atomic.Value
	adv.Store([]WorkerInfo{})
	go fm.run(ctx, func() []WorkerInfo { return adv.Load().([]WorkerInfo) })

	// Tiny queue + slow tasks = rejections.
	ws := NewWorkerStub("w0", "n1", echoWorker{}, net,
		WorkerConfig{QueueCap: 1})
	go ws.Run(ctx)
	waitFor(t, "registration", func() bool { return fm.up.Load() >= 1 })
	info := <-fm.workers
	adv.Store([]WorkerInfo{info})

	ep, _ := feEndpoint(t, net, ManagerStubConfig{CallTimeout: 100 * time.Millisecond})
	// Saturate: send slow tasks directly.
	slow := TaskMsg{Task: tacc.Task{Params: map[string]string{"mode": "slow"}}}
	for i := 0; i < 3; i++ {
		go ep.Call(ctx, info.Addr, MsgTask, slow, 64)
	}
	// One task in service and one queued is the cap: only then is the
	// next one sure to be refused rather than queued behind them.
	waitFor(t, "queue to fill", func() bool { return ws.QueueLen() >= 2 })
	cctx, ccancel := context.WithTimeout(ctx, time.Second)
	defer ccancel()
	resp, err := ep.Call(cctx, info.Addr, MsgTask, slow, 64)
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Body.(ResultMsg)
	if res.Err != "queue full" {
		t.Fatalf("res = %+v, want queue full", res)
	}
}

func TestManagerStubSurvivesManagerDeath(t *testing.T) {
	net := newNet(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mgrCtx, mgrCancel := context.WithCancel(ctx)
	fm := newFakeManager(net, 10*time.Millisecond)
	var adv atomic.Value
	adv.Store([]WorkerInfo{})
	go fm.run(mgrCtx, func() []WorkerInfo { return adv.Load().([]WorkerInfo) })

	ws := NewWorkerStub("w0", "n1", echoWorker{}, net, WorkerConfig{})
	go ws.Run(ctx)
	waitFor(t, "registration", func() bool { return fm.up.Load() >= 1 })
	adv.Store([]WorkerInfo{<-fm.workers})

	// The stub keeps a worker 20 beats (200 ms) after the beacons stop:
	// generous, so its cache outlives the manager.
	_, ms := feEndpoint(t, net, ManagerStubConfig{CallTimeout: time.Second})
	waitFor(t, "worker visible", func() bool { return len(ms.Workers("echo")) == 1 })

	// Kill the manager; dispatch must keep working from cache.
	mgrCancel()
	net.DropNode("mgr")
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 5; i++ {
		out, err := ms.Dispatch(ctx, "echo", &tacc.Task{Input: tacc.Blob{Data: []byte("x")}})
		if err != nil {
			t.Fatalf("dispatch with dead manager: %v", err)
		}
		if string(out.Data) != "echo:x" {
			t.Fatalf("out = %q", out.Data)
		}
	}
}

func TestManagerWatchdogFires(t *testing.T) {
	net := newNet(12 * time.Millisecond) // the watchdog fires after 5 beats: 60 ms
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mgrCtx, mgrCancel := context.WithCancel(ctx)
	fm := newFakeManager(net, 10*time.Millisecond)
	go fm.run(mgrCtx, func() []WorkerInfo { return nil })

	var restarts atomic.Int32
	_, ms := feEndpoint(t, net, ManagerStubConfig{OnManagerSilence: func() { restarts.Add(1) }})
	waitFor(t, "first beacon", func() bool { return ms.Stats().BeaconsSeen > 0 })
	if restarts.Load() != 0 {
		t.Fatal("watchdog fired while manager alive")
	}
	mgrCancel()
	waitFor(t, "watchdog", func() bool { return restarts.Load() >= 1 })
}

// TestHotUpgradeDisableEnable: the hot upgrade's disable is a stop and
// its enable the restart under the same name (§2.1). Stopped, the worker
// says it is down, and a task sent to it fails at once instead of
// waiting out a timeout; restarted, it announces itself up and serves.
func TestHotUpgradeDisableEnable(t *testing.T) {
	net := newNet(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fm := newFakeManager(net, 10*time.Millisecond)
	go fm.run(ctx, func() []WorkerInfo { return nil })

	wctx, stop := context.WithCancel(ctx)
	ws := NewWorkerStub("w0", "n1", echoWorker{}, net, WorkerConfig{})
	exited := make(chan error, 1)
	go func() { exited <- ws.Run(wctx) }()
	waitFor(t, "registration", func() bool { return fm.up.Load() >= 1 })
	info := <-fm.workers

	stop()
	if err := <-exited; err != nil {
		t.Fatalf("graceful stop returned %v", err)
	}
	waitFor(t, "announced down", func() bool { return fm.down.Load() == 1 })
	ep, _ := feEndpoint(t, net, ManagerStubConfig{})
	cctx, ccancel := context.WithTimeout(ctx, time.Second)
	defer ccancel()
	if _, err := ep.Call(cctx, info.Addr, MsgTask, TaskMsg{}, 16); !errors.Is(err, san.ErrUnknownAddr) {
		t.Fatalf("task to a stopped worker: %v, want %v", err, san.ErrUnknownAddr)
	}

	// The restart: the same name, a fresh instance (the upgraded binary).
	before := fm.up.Load()
	go NewWorkerStub("w0", "n1", echoWorker{}, net, WorkerConfig{}).Run(ctx)
	waitFor(t, "announced up again", func() bool { return fm.up.Load() > before })
	resp, err := ep.Call(cctx, info.Addr, MsgTask,
		TaskMsg{Task: tacc.Task{Input: tacc.Blob{Data: []byte("hi")}}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res := resp.Body.(ResultMsg); res.Err != "" || string(res.Blob.Data) != "echo:hi" {
		t.Fatalf("res = %+v", res)
	}
}

// TestStopDrainsHeldTasks: a graceful stop answers every task the
// stub holds. One task is in service and three wait behind it; the one
// in service finishes, the three queued ones are refused with the
// retryable "worker disabled", and every caller has its answer well
// inside its call timeout.
func TestStopDrainsHeldTasks(t *testing.T) {
	net := san.NewNetwork(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wctx, stop := context.WithCancel(ctx)
	ws := NewWorkerStub("w0", "n1", echoWorker{}, net, WorkerConfig{})
	exited := make(chan error, 1)
	go func() { exited <- ws.Run(wctx) }()

	caller := net.Endpoint(san.Addr{Node: "fe", Proc: "fe0"}, 16)
	type answer struct {
		res ResultMsg
		err error
		at  time.Time
	}
	answers := make(chan answer, 4)
	busy := TaskMsg{Task: tacc.Task{Params: map[string]string{"mode": "busy"}}}
	call := func() {
		cctx, ccancel := context.WithTimeout(ctx, 2*time.Second)
		defer ccancel()
		resp, err := caller.Call(cctx, ws.Addr(), MsgTask, busy, 16)
		a := answer{err: err, at: time.Now()}
		if err == nil {
			a.res = resp.Body.(ResultMsg)
		}
		answers <- a
	}
	go call()
	waitFor(t, "first task in service", func() bool { return ws.QueueLen() == 1 && len(ws.queue) == 0 })
	for range 3 {
		go call()
	}
	waitFor(t, "three tasks queued behind it", func() bool { return ws.QueueLen() == 4 })

	stopAt := time.Now()
	stop()
	served, refused := 0, 0
	for range 4 {
		a := <-answers
		switch {
		case a.err != nil:
			t.Fatalf("a caller got no answer: %v", a.err)
		case a.res.Err == "":
			served++
		case a.res.Err == "worker disabled":
			refused++
		default:
			t.Fatalf("unexpected answer %+v", a.res)
		}
		if wait := a.at.Sub(stopAt); wait > 100*time.Millisecond {
			t.Fatalf("a caller waited %v after the stop", wait)
		}
	}
	if served != 1 || refused != 3 {
		t.Fatalf("served %d, refused %d; want the task in service served and 3 refused", served, refused)
	}
	if err := <-exited; err != nil {
		t.Fatalf("graceful stop returned %v", err)
	}
}

func TestDispatchNoWorkersAsksForSpawn(t *testing.T) {
	net := san.NewNetwork(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fm := newFakeManager(net, 10*time.Millisecond)
	go fm.run(ctx, func() []WorkerInfo { return nil })

	_, ms := feEndpoint(t, net, ManagerStubConfig{CallTimeout: 50 * time.Millisecond})
	waitFor(t, "beacon", func() bool { return ms.Stats().BeaconsSeen > 0 })
	_, err := ms.Dispatch(ctx, "echo", &tacc.Task{})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v", err)
	}
	waitFor(t, "spawn request", func() bool { return fm.spawnReqs.Load() >= 1 })
}

func TestDispatchPipelineChains(t *testing.T) {
	net := newNet(10 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fm := newFakeManager(net, 10*time.Millisecond)
	var adv atomic.Value
	adv.Store([]WorkerInfo{})
	go fm.run(ctx, func() []WorkerInfo { return adv.Load().([]WorkerInfo) })

	ws := NewWorkerStub("w0", "n1", echoWorker{}, net, WorkerConfig{})
	go ws.Run(ctx)
	waitFor(t, "registration", func() bool { return fm.up.Load() >= 1 })
	adv.Store([]WorkerInfo{<-fm.workers})

	_, ms := feEndpoint(t, net, ManagerStubConfig{CallTimeout: time.Second})
	waitFor(t, "worker visible", func() bool { return len(ms.Workers("echo")) == 1 })
	out, err := ms.DispatchPipeline(ctx,
		tacc.Pipeline{{Class: "echo"}, {Class: "echo"}},
		&tacc.Task{Input: tacc.Blob{Data: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Data) != "echo:echo:x" {
		t.Fatalf("out = %q", out.Data)
	}
	// Empty pipeline passes through.
	out, err = ms.DispatchPipeline(ctx, nil, &tacc.Task{Input: tacc.Blob{Data: []byte("raw")}})
	if err != nil || string(out.Data) != "raw" {
		t.Fatalf("out = %q, %v", out.Data, err)
	}
}

func TestBeaconRemovesVanishedWorkers(t *testing.T) {
	net := san.NewNetwork(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fm := newFakeManager(net, 10*time.Millisecond)
	var adv atomic.Value
	w1 := WorkerInfo{ID: "w1", Class: "echo", Addr: san.Addr{Node: "n1", Proc: "w1"}}
	w2 := WorkerInfo{ID: "w2", Class: "echo", Addr: san.Addr{Node: "n2", Proc: "w2"}}
	adv.Store([]WorkerInfo{w1, w2})
	go fm.run(ctx, func() []WorkerInfo { return adv.Load().([]WorkerInfo) })

	_, ms := feEndpoint(t, net, ManagerStubConfig{})
	waitFor(t, "two workers", func() bool { return len(ms.Workers("echo")) == 2 })
	adv.Store([]WorkerInfo{w1}) // manager reports w2 gone
	waitFor(t, "w2 dropped", func() bool { return len(ms.Workers("echo")) == 1 })
	if ms.Workers("echo")[0].ID != "w1" {
		t.Fatal("wrong worker dropped")
	}
}

func TestRetryBackoffJitteredExponential(t *testing.T) {
	const base = 2 * time.Millisecond
	_, ms := feEndpoint(t, san.NewNetwork(1), ManagerStubConfig{Seed: 7, RetryBackoff: base})

	// Every draw for attempt n lands in [base*2^(n-1), 2*base*2^(n-1)),
	// with the exponent capped at 6 so deep retry budgets cannot turn
	// into multi-second stalls.
	for attempt := 1; attempt <= 10; attempt++ {
		shift := attempt - 1
		if shift > 6 {
			shift = 6
		}
		lo := base << shift
		for i := 0; i < 16; i++ {
			if d := ms.retryBackoff(attempt); d < lo || d >= 2*lo {
				t.Fatalf("attempt %d draw %d: backoff %v outside [%v, %v)", attempt, i, d, lo, 2*lo)
			}
		}
	}

	// Same seed, same jitter sequence: retry timing stays inside the
	// run-twice determinism contract.
	_, ms1 := feEndpoint(t, san.NewNetwork(1), ManagerStubConfig{Seed: 42, RetryBackoff: base})
	_, ms2 := feEndpoint(t, san.NewNetwork(1), ManagerStubConfig{Seed: 42, RetryBackoff: base})
	for attempt := 1; attempt <= 6; attempt++ {
		if d1, d2 := ms1.retryBackoff(attempt), ms2.retryBackoff(attempt); d1 != d2 {
			t.Fatalf("attempt %d: same-seed stubs drew %v vs %v", attempt, d1, d2)
		}
	}

	// Negative disables backoff outright (zero would mean "default").
	_, msOff := feEndpoint(t, san.NewNetwork(1), ManagerStubConfig{Seed: 7, RetryBackoff: -time.Millisecond})
	if d := msOff.retryBackoff(3); d != 0 {
		t.Fatalf("disabled backoff returned %v, want 0", d)
	}
}

func TestDispatchBacksOffBetweenRetries(t *testing.T) {
	net := san.NewNetwork(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fm := newFakeManager(net, 5*time.Millisecond)
	// Three ghosts at dead addresses: every call times out, so a full
	// dispatch burns all three attempts with a backoff sleep before
	// each retry.
	ghosts := []WorkerInfo{
		{ID: "w-g1", Class: "echo", Addr: san.Addr{Node: "gone", Proc: "w-g1"}, Node: "gone"},
		{ID: "w-g2", Class: "echo", Addr: san.Addr{Node: "gone", Proc: "w-g2"}, Node: "gone"},
		{ID: "w-g3", Class: "echo", Addr: san.Addr{Node: "gone", Proc: "w-g3"}, Node: "gone"},
	}
	go fm.run(ctx, func() []WorkerInfo { return ghosts })

	const base = 30 * time.Millisecond
	_, ms := feEndpoint(t, net, ManagerStubConfig{
		Seed:         3,
		CallTimeout:  10 * time.Millisecond,
		RetryBackoff: base,
	})
	waitFor(t, "ghosts advertised", func() bool { return len(ms.Workers("echo")) == 3 })

	start := time.Now()
	_, err := ms.Dispatch(ctx, "echo", &tacc.Task{Input: tacc.Blob{Data: []byte("x")}})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	// Backoff floor: >= base before attempt 1 and >= 2*base before
	// attempt 2 — without backoff this dispatch finishes in ~3 call
	// timeouts (30ms), well under the floor.
	if min := 3 * base; elapsed < min {
		t.Fatalf("dispatch returned after %v; jittered backoff floor is %v", elapsed, min)
	}
	if st := ms.Stats(); st.Retries != 2 || st.Exhausted != 1 {
		t.Fatalf("stats = %+v, want 2 retries and 1 exhausted", st)
	}
}
