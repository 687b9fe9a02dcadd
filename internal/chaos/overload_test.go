package chaos

// Overload and gray-failure scenarios: the estimator-driven load
// shifts of §4.5 observed end to end, and the BASE saturation story
// (§3.1.8, §4.6) — degrade and shed rather than queue into deadlines
// nobody can meet.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stub"
	"repro/internal/tacc"
)

// slowEchoService returns a registry/rules pair whose single echo
// class costs `cost` wall-clock per task — giving the system a finite,
// known capacity the saturation soak can overdrive.
func slowEchoService(cost time.Duration) (*tacc.Registry, tacc.DispatchRule) {
	reg := tacc.NewRegistry()
	reg.Register(EchoClass, func() tacc.Worker {
		return tacc.WorkerFunc{Name: EchoClass, Fn: func(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
			select {
			case <-ctx.Done():
				return tacc.Blob{}, ctx.Err()
			case <-time.After(cost):
			}
			return task.Input, nil
		}}
	})
	rules := func(url, mime string, profile map[string]string) tacc.Pipeline {
		return tacc.Pipeline{{Class: EchoClass}}
	}
	return reg, rules
}

// TestScenarioSlowWorkerEstimatorShift: one worker grows a 40 ms
// per-task limp (gray failure: alive, registered, just slow). Under a
// steady arrival stream the queue-delta estimator must starve it long
// before CallTimeout — zero dispatch retries, every request well under
// the timeout, and the survivor executing the clear majority of tasks.
// Run twice; the fault timelines must match.
func TestScenarioSlowWorkerEstimatorShift(t *testing.T) {
	const callTimeout = 2 * time.Second
	run := func(t *testing.T) []string {
		h := newHarness(t, Config{Seed: seed, CallTimeout: callTimeout})
		ctx := context.Background()

		victim := h.pick(core.KindWorker, 0)
		vs := h.Sys.WorkerStub(victim)
		if vs == nil {
			t.Fatalf("no stub for %s", victim)
		}
		// 25 ms per task: even if every request piled onto the victim
		// its backlog could not reach CallTimeout, so any dispatch
		// retry is estimator failure, not bad luck.
		h.Execute(ctx, Schedule{Seed: seed, Events: []Event{
			{Kind: SlowWorker, Slot: 0, Delay: 25 * time.Millisecond}, // Dur 0: persists
		}})

		fe := h.Sys.FrontEnds()[0]
		retries0 := fe.ManagerStub().Stats().Retries
		done0 := map[string]uint64{}
		for _, id := range h.Sys.Workers() {
			done0[id] = h.Sys.WorkerStub(id).TasksDone()
		}

		const n = 48
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			slowest time.Duration
		)
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rctx, cancel := context.WithTimeout(ctx, 8*time.Second)
				defer cancel()
				t0 := time.Now()
				_, errs[i] = h.Sys.Request(rctx, fmt.Sprintf("http://chaos.example/sw%d.bin", i), "u")
				el := time.Since(t0)
				mu.Lock()
				if el > slowest {
					slowest = el
				}
				mu.Unlock()
			}(i)
			// A steady stream (not a wave) so the victim's backlog is
			// visible in its load reports while new work keeps arriving.
			time.Sleep(5 * time.Millisecond)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("request %d failed under slow worker: %v", i, err)
			}
		}

		if d := fe.ManagerStub().Stats().Retries - retries0; d != 0 {
			t.Fatalf("dispatch fell back %d times via CallTimeout; the estimator should have shifted load first", d)
		}
		if slowest >= callTimeout {
			t.Fatalf("slowest request took %s, at/past CallTimeout %s", slowest, callTimeout)
		}

		victimDelta := vs.TasksDone() - done0[victim]
		var survivorDelta uint64
		for _, id := range h.Sys.Workers() {
			if id != victim {
				survivorDelta += h.Sys.WorkerStub(id).TasksDone() - done0[id]
			}
		}
		h.Note("slow-worker-shift", fmt.Sprintf("victim=%d survivors=%d slowest=%s", victimDelta, survivorDelta, slowest))
		if survivorDelta <= 2*victimDelta {
			t.Fatalf("victim executed %d of %d tasks (survivors %d); lottery did not shift load away",
				victimDelta, n, survivorDelta)
		}
		return h.FaultTimeline()
	}

	first := run(t)
	second := run(t)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("fault timelines diverged across identical runs:\n%v\n%v", first, second)
	}
}

// TestScenarioHangWorkerEstimatorShift: a hung worker keeps its
// trapped queue on display in every load report. Once a few requests
// are stuck, the estimator must route the next burst to the survivor
// before CallTimeout fires — most of the burst completes in a fraction
// of the timeout, and the hung worker completes nothing while hung.
func TestScenarioHangWorkerEstimatorShift(t *testing.T) {
	const callTimeout = time.Second
	run := func(t *testing.T) []string {
		h := newHarness(t, Config{Seed: seed, CallTimeout: callTimeout})
		ctx := context.Background()

		victim := h.pick(core.KindWorker, 0)
		vs := h.Sys.WorkerStub(victim)
		if vs == nil {
			t.Fatalf("no stub for %s", victim)
		}
		h.Execute(ctx, Schedule{Seed: seed, Events: []Event{
			{Kind: HangWorker, Slot: 0}, // Dur 0: hangs until lifted below
		}})

		var wg sync.WaitGroup
		issue := func(i int, tag string, lat *time.Duration, errp *error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rctx, cancel := context.WithTimeout(ctx, 8*time.Second)
				defer cancel()
				t0 := time.Now()
				_, err := h.Sys.Request(rctx, fmt.Sprintf("http://chaos.example/%s%d.bin", tag, i), "u")
				if lat != nil {
					*lat = time.Since(t0)
				}
				if errp != nil {
					*errp = err
				}
			}()
		}

		// Seed the evidence: some of these land on the hung worker and
		// sit there, so its reported queue stops draining.
		const seeds = 12
		seedErrs := make([]error, seeds)
		for i := 0; i < seeds; i++ {
			issue(i, "hseed", nil, &seedErrs[i])
			time.Sleep(time.Millisecond)
		}
		waitFor(t, "hung worker trapping work", func() bool { return vs.QueueLen() > 0 })
		// The evidence has to reach the estimator, not merely exist: every
		// front end has taken beacons in which the victim's averaged queue
		// has climbed to 0.9 of what is trapped (seven reports of the
		// manager's 0.3-weight moving average, however long the scheduler
		// takes to deliver them).
		waitFor(t, "beacons carrying the trapped queue to every front end", func() bool {
			for _, fe := range h.Sys.FrontEnds() {
				ws := fe.ManagerStub().Workers(EchoClass)
				i := slices.IndexFunc(ws, func(w stub.WorkerInfo) bool { return w.ID == victim })
				if i < 0 || ws[i].QLen < 0.9*float64(vs.QueueLen()) {
					return false
				}
			}
			return true
		})

		// Measurement burst: the shift must happen via the estimator,
		// not via CallTimeout failover. The burst is long enough to read
		// the estimator's steady share: the hung worker's falls as its
		// queue grows (7-13 trapped of 64 over 100 runs, against 5-11 of
		// the first 32, which sits at the n/3 bound).
		const n = 64
		trapped0 := vs.QueueLen()
		done0 := vs.TasksDone()
		lats := make([]time.Duration, n)
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			issue(i, "hburst", &lats[i], &errs[i])
			time.Sleep(2 * time.Millisecond)
		}
		trappedDelta := vs.QueueLen() - trapped0
		wg.Wait()

		fast := 0
		for i, err := range errs {
			if err != nil {
				t.Fatalf("burst request %d failed during worker hang: %v", i, err)
			}
			if lats[i] < callTimeout/2 {
				fast++
			}
		}
		h.Note("hang-worker-shift", fmt.Sprintf("fast=%d/%d trapped=%d", fast, n, trappedDelta))
		if fast < n*2/3 {
			t.Fatalf("only %d of %d burst requests finished before CallTimeout could fire; estimator did not shift load", fast, n)
		}
		if trappedDelta > n/3 {
			t.Fatalf("hung worker trapped %d of %d burst tasks", trappedDelta, n)
		}
		if d := vs.TasksDone() - done0; d > 1 {
			t.Fatalf("hung worker completed %d tasks while hung", d)
		}
		for i, err := range seedErrs {
			if err != nil {
				t.Fatalf("seed request %d failed during worker hang: %v", i, err)
			}
		}

		// Lift the hang: the trapped backlog drains and the worker
		// rejoins the pool.
		vs.InjectHang(false)
		waitFor(t, "trapped queue to drain after resume", func() bool { return vs.QueueLen() == 0 })
		return h.FaultTimeline()
	}

	first := run(t)
	second := run(t)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("fault timelines diverged across identical runs:\n%v\n%v", first, second)
	}
}

// TestScenarioSaturationSoak is the acceptance scenario for the
// overload tentpole: sustained offered load well past worker capacity
// plus a LossBurst. The front end must shed/degrade rather than queue
// — goodput within 20% of the pre-overload run, no accepted request
// riding to its deadline, explicit sheds under saturation — and the
// system must return to full strength afterward. Skipped with -short.
func TestScenarioSaturationSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation soak skipped in -short mode")
	}
	// 2 workers x 5 ms/task = ~400 dispatches/s of worker capacity.
	const taskCost = 5 * time.Millisecond
	reg, rules := slowEchoService(taskCost)

	run := func(t *testing.T) []string {
		h := newHarness(t, Config{
			Seed:             11,
			Registry:         reg,
			Rules:            rules,
			CallTimeout:      time.Second,
			RequestDeadline:  3 * time.Second,
			FEQueueHighWater: 12,
			CacheTTL:         400 * time.Millisecond,
		})
		ctx := context.Background()

		baseline := h.BaselineCapacity(ctx, 30)
		if baseline < 0.95 {
			t.Fatalf("pre-fault capacity only %.2f", baseline)
		}

		// Pre-overload throughput: a sustainable offered rate.
		preDur := 1200 * time.Millisecond
		h.StartLoad(250, 16384, preDur)
		// Sleep past the issue window plus drain headroom: StopLoad
		// cancels whatever is still in flight, which would count as
		// failures.
		time.Sleep(preDur + 300*time.Millisecond)
		pre := h.StopLoad()
		if pre.Issued == 0 {
			t.Fatal("pre-overload load generator issued nothing")
		}
		if sr := pre.SuccessRate(); sr < 0.9 {
			t.Fatalf("pre-overload success rate %.2f, want >= 0.9 (%+v)", sr, pre)
		}
		goodputPre := pre.Goodput(preDur)

		// Overload: far past capacity, with a loss burst in the middle.
		overDur := 2 * time.Second
		h.StartLoad(1200, 16384, overDur)
		h.Execute(ctx, Schedule{Seed: 11, Events: []Event{
			{At: 500 * time.Millisecond, Kind: LossBurst, P2P: 0.05, Mcast: 0.2, Dur: 300 * time.Millisecond},
		}})
		time.Sleep(overDur - 500*time.Millisecond + 400*time.Millisecond)
		over := h.StopLoad()
		goodputOver := over.Goodput(overDur)

		if got := over.OK + over.Degraded + over.Shed + over.Failed; got != over.Issued {
			t.Fatalf("outcome accounting: %d outcomes for %d issued (%+v)", got, over.Issued, over)
		}
		// BASE under saturation: goodput holds (within 20% of the
		// pre-overload run), the excess is refused explicitly instead
		// of queued, and nothing rides to its request deadline.
		if goodputOver < 0.8*goodputPre {
			t.Fatalf("goodput collapsed under overload: %.0f/s vs %.0f/s pre-overload (%+v)",
				goodputOver, goodputPre, over)
		}
		if over.Shed == 0 {
			t.Fatalf("no requests shed at 3x capacity (%+v)", over)
		}
		if over.Failed > over.Issued/50 {
			t.Fatalf("%d of %d overload requests failed outright, want <= 2%% (%+v)",
				over.Failed, over.Issued, over)
		}
		if over.Max >= 4*time.Second {
			t.Fatalf("slowest accepted request took %s — queued into its deadline instead of shedding", over.Max)
		}
		h.Note("saturation", fmt.Sprintf("goodput %.0f/s -> %.0f/s shed=%d degraded=%d p99=%s",
			goodputPre, goodputOver, over.Shed, over.Degraded, over.P99))

		// Recovery: overload and the loss burst leave no residue.
		if !h.AwaitSteady(15 * time.Second) {
			t.Fatalf("system did not return to steady state after overload:\n%s", h.Timeline())
		}
		after, ok := h.RecoveredWithin(ctx, 30, 0.2)
		if !ok {
			t.Fatalf("post-overload capacity %.2f vs baseline %.2f (want within 20%%):\n%s",
				after, baseline, h.Timeline())
		}
		waitFor(t, "worker queues drained", func() bool {
			for _, id := range h.Sys.Workers() {
				if ws := h.Sys.WorkerStub(id); ws != nil && ws.QueueLen() > 0 {
					return false
				}
			}
			return true
		})
		return h.FaultTimeline()
	}

	first := run(t)
	second := run(t)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("fault timelines diverged across identical runs:\n%v\n%v", first, second)
	}
}
