package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/distiller"
)

// options selects one run: one workload, one seed, one mode.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int    // 0: end-to-end metrics, tracing off; 1: per-layer metrics
	setUps   int    // how many timed set-ups an end-to-end run makes
	outDir   string // span files, result files and scratch live here
}

// setUpRepeats is how many times an end-to-end run sets the system up
// when driven from the command line. setup_s is the median, so one slow
// boot (a missed beacon round costs a whole beacon interval) does not
// decide the metric.
const setUpRepeats = 3

// run executes one workload in one mode and returns its report.
//
// Mode 0 (end to end): set up opt.setUps times (timed: input
// generation, boot, WaitReady, warm-up), then one measured interval of
// opt.seconds cut into `windows` windows, tracing off.
//
// Mode 1 (per layer): set up once, an idle window for control-plane
// cost, a loaded interval of opt.seconds/2 bracketed by Stats()
// snapshots, then the traced run in the other half.
func run(ctx context.Context, m *manifest, opt options) (*report, error) {
	defs := m.EndToEnd
	if opt.trace == 1 {
		defs = m.PerLayer
	}
	r := newReport(defs)
	r.Workload, r.Seed, r.Seconds, r.Trace = opt.workload, opt.seed, opt.seconds, opt.trace
	r.Env = currentEnv()
	r.Env.CalibBefore = calibNS()

	repeats := opt.setUps
	if opt.trace == 1 || repeats < 1 {
		repeats = 1
	}
	var (
		w      *workload
		ck     *checker
		c      *cluster
		setups []float64
	)
	for i := 0; i < repeats; i++ {
		if c != nil {
			c.stop()
			// Collect the stopped cluster before booting the next, so
			// peak RSS is one cluster's, not three stacked.
			runtime.GC()
		}
		start := time.Now()
		var err error
		if w, err = newWorkload(opt.workload, opt.seed, opt.seconds); err != nil {
			return nil, err
		}
		ck = newChecker(w)
		if c, err = setUp(ctx, w, ck, opt.outDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.stop()
	r.Loop = fmt.Sprintf("closed, %d clients", w.clients)
	if w.open {
		r.Loop = fmt.Sprintf("open, Poisson %g req/s", w.ratePerS)
	}

	var err error
	if opt.trace == 0 {
		err = runEndToEnd(ctx, r, c, w, opt, setups)
	} else {
		err = runPerLayer(ctx, r, c, w, ck, opt)
	}
	if err != nil {
		return nil, err
	}
	r.Env.CalibAfter = calibNS()
	r.Env.Noisy = math.Abs(r.Env.CalibAfter-r.Env.CalibBefore) > 0.10*r.Env.CalibBefore
	if r.Env.Noisy {
		r.warn("noisy: the calibration loop took %.0f ns before the run and %.0f ns after", r.Env.CalibBefore, r.Env.CalibAfter)
	}
	if err := r.complete(); err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0 && len(r.Gates) == 0
	return r, nil
}

// load runs one loaded interval between two snapshots and folds its
// counts and gates into the report.
func load(ctx context.Context, r *report, c *cluster, w *workload, opt options, dur time.Duration) (*loadResult, delta, queueStats, error) {
	s0, err := c.snapshot(ctx)
	if err != nil {
		return nil, delta{}, queueStats{}, err
	}
	stop := make(chan struct{})
	queues := c.pollQueues(stop)
	res, err := runLoadChild(ctx, loadSpec{
		Addr: c.edgeAddr(), Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Dur: dur,
	})
	close(stop)
	q := <-queues
	if err != nil {
		return nil, delta{}, queueStats{}, err
	}
	s1, err := c.snapshot(ctx)
	if err != nil {
		return nil, delta{}, queueStats{}, err
	}
	d := delta{s0: s0, s1: s1, n: float64(res.Attempted - res.Failed)}
	r.Attempted, r.Failed, r.OK = res.Attempted, res.Failed, res.Attempted-res.Failed
	r.Reasons, r.Sources = res.Reasons, res.Sources
	d.gates(r, w, res)
	return res, d, q, nil
}

func runEndToEnd(ctx context.Context, r *report, c *cluster, w *workload, opt options, setups []float64) error {
	res, _, _, err := load(ctx, r, c, w, opt, time.Duration(opt.seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	reqPerS, p50, mbPerS, _, _ := res.windowed()
	r.emitValues("req_per_s", reqPerS)
	r.emitValues("latency_p50_us", p50)
	r.emitValues("latency_p99_us", res.p99Windowed())
	r.emitValues("mb_per_s", mbPerS)
	r.emitValues("mem_mb", res.SysMemMB)
	r.emitValues("setup_s", setups)
	return nil
}

func runPerLayer(ctx context.Context, r *report, c *cluster, w *workload, ck *checker, opt options) error {
	half := time.Duration(opt.seconds * float64(time.Second) / 2)
	c.idleCost(r, half/4)

	res, d, q, err := load(ctx, r, c, w, opt, half)
	if err != nil {
		return err
	}
	d.emitCounters(r, q)
	_, _, _, sysCPU, genCPU := res.windowed()
	r.emitValues("runtime.cpu_us_per_req", sysCPU)
	r.emitValues("loadgen.cpu_us_per_req", genCPU)
	r.emit("loadgen.late_p99_us", res.lateP99us())
	r.emit("loadgen.fail_share", ratio(float64(res.Failed), float64(res.Attempted)))

	log := &spanLog{t0: time.Now()}
	p := &peeler{c: c, w: w, ck: ck, log: log, next: res.Used, rules: distiller.TranSendRules()}
	t, err := p.peel(ctx, half, filepath.Join(opt.outDir, "trace_"+w.name+".json"))
	if err != nil {
		return err
	}
	// Leaf loops scale with the run: 15 ms batches at 15 s.
	lv, err := measureLeaves(ctx, c, w, p.rules, time.Duration(opt.seconds*float64(time.Millisecond)))
	if err != nil {
		return err
	}
	emitTimed(r, log, t, lv)
	r.emit("loadgen.calib_ns", r.Env.CalibBefore)
	r.emit("runtime.peak_rss_mb", peakRSSMB())
	return nil
}
