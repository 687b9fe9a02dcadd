package main

// Bench snapshot: one JSON file per run capturing the paper-comparable
// metrics the figure benchmarks report (bench_test.go's ReportMetric
// values), so the perf trajectory across PRs is a diffable artifact
// instead of scrollback. `make bench-snapshot` writes BENCH_<date>.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/distiller"
	"repro/internal/edge"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/snsim"
	"repro/internal/tacc"
	"repro/internal/trace"
)

// BenchSnapshot is the serialized form.
type BenchSnapshot struct {
	Date    string             `json:"date"`
	Seed    int64              `json:"seed"`
	Go      string             `json:"go"`
	NumCPU  int                `json:"num_cpu"`
	Metrics map[string]float64 `json:"metrics"`
}

// writeSnapshot measures every figure metric once and writes the JSON
// file. Wall-clock-sensitive metrics (distiller ms/KB, recovery
// latency) vary with the host; the structural metrics (hit rates,
// capacities, spawn counts) are seed-deterministic.
func writeSnapshot(path string, seed int64) error {
	m := map[string]float64{}

	// fig5: mean GIF size from the content model (paper: 3428 B).
	rng := rand.New(rand.NewSource(seed))
	gif := trace.GIFSizes()
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(gif.Sample(rng))
	}
	m["fig5_gif_mean_bytes"] = sum / n

	// fig6: arrivals per virtual hour at the default rate.
	arr := trace.DefaultArrivals(seed)
	m["fig6_arrivals_per_hour"] = float64(len(arr.Generate(rand.New(rand.NewSource(seed)), 12*time.Hour, 13*time.Hour)))

	// fig7: distiller cost per KB on a 10 KB SGIF (hardware-bound).
	data := media.GenerateContent(rand.New(rand.NewSource(seed)), media.MIMESGIF, 10*1024)
	w := distiller.SGIFDistiller{}
	task := &tacc.Task{Input: tacc.Blob{MIME: media.MIMESGIF, Data: data}}
	start := time.Now()
	const distills = 50
	for i := 0; i < distills; i++ {
		if _, err := w.Process(context.Background(), task); err != nil {
			return err
		}
	}
	m["fig7_distill_ms_per_kb"] = float64(time.Since(start).Microseconds()) / 1000 / distills / (float64(len(data)) / 1024)

	// fig8: spawns over the self-tuning scenario.
	m["fig8_spawns_per_run"] = float64(len(snsim.RunFigure8(seed).Spawns))

	// table2: derived per-distiller capacity (paper: ~23 req/s).
	m["table2_req_s_per_distiller"] = snsim.RunTable2(seed).PerDistillerReqS

	// cache: hit rate at the 1 GB / 800-user point.
	m["cache_hit_rate"] = snsim.RunCacheCurve(snsim.CacheCurveParams{
		Seed: seed, Users: 800, ReqPerUser: 100, Universe: 200000, CacheBytes: 1 << 30,
	}).HitRate

	// oscillation: spread ratio raw/fixed (the §4.5 ablation).
	raw := snsim.RunOscillation(seed, false)
	fixed := snsim.RunOscillation(seed, true)
	if fixed.Spread > 0 {
		m["oscillation_spread_ratio"] = raw.Spread / fixed.Spread
	}

	// sansat: beacon loss on the 10 Mb/s shared SAN.
	m["sansat_beacon_loss"] = snsim.RunSANSaturation(seed, 10, false).BeaconLossRate

	// fault recovery: one live worker-crash -> respawn cycle through
	// the chaos harness, in milliseconds.
	if ms, err := measureRecovery(seed); err == nil {
		m["fault_recovery_ms"] = ms
	} else {
		fmt.Fprintln(os.Stderr, "snapshot: recovery measurement failed:", err)
	}

	// supervisor restart: kill-to-serving latency of one cross-process
	// supervised front-end restart over a loopback bridge (ns tracked,
	// not gated — dominated by heartbeat TTLs and real sockets).
	if ns, err := measureSupervisorRestart(seed); err == nil {
		m["supervisor_restart_ns"] = ns
	} else {
		fmt.Fprintln(os.Stderr, "snapshot: supervisor restart measurement failed:", err)
	}

	// manager failover: crash-to-new-regime latency of the lease
	// election — primary killed, clock stopped when a standby is the
	// acting primary at a higher epoch with the full worker inventory
	// re-anchored (ns tracked, not gated — beacon-silence timeouts
	// dominate).
	if ns, err := measureManagerFailover(seed); err == nil {
		m["manager_failover_ns"] = ns
	} else {
		fmt.Fprintln(os.Stderr, "snapshot: manager failover measurement failed:", err)
	}

	// Request latency profile under steady load: the chaos load
	// generator's p50/p99/p999, the client-side view of the whole
	// FE→cache→worker path (ns tracked, not gated — wall-clock).
	if err := measureLatencyProfile(seed, m); err != nil {
		fmt.Fprintln(os.Stderr, "snapshot: latency profile failed:", err)
	}

	// Hot-path micro costs, from the table `go test -bench Micro .`
	// also runs (via testing.Benchmark, so the snapshot needs no `go
	// test` run): ns/op is hardware-bound (tracked, not gated);
	// allocs/op — and B/op on the blob relay, where it is what "at most
	// one body copy per hop" means in numbers — is deterministic and
	// regression-gated.
	for _, mb := range repro.MicroBenches {
		// A row reports failure by returning an error (b.Fatal would
		// nil-deref outside `go test`); once one round has failed the
		// remaining rounds are skipped.
		var failed error
		r := testing.Benchmark(func(b *testing.B) {
			if failed == nil {
				failed = mb.F(b)
			}
		})
		if failed != nil {
			return fmt.Errorf("micro-benchmark %s: %w", mb.Name, failed)
		}
		m[mb.Name+"_ns"] = float64(r.NsPerOp())
		// Kept fractional so amortized pool misses stay visible.
		m[mb.Name+"_allocs"] = float64(r.MemAllocs) / float64(r.N)
		if mb.Mem {
			m[mb.Name+"_bytes"] = float64(r.MemBytes) / float64(r.N)
		}
	}

	// Trace machinery: ns per span recorded into the ring on a sampled
	// trace — the per-hop price a request pays when sampling fires.
	// (An unsampled Record is a single branch; the gated send metrics
	// above run with tracing disabled and must not move.) Tracked for
	// the trajectory, never gated — never add this to benchdiff's gate
	// list.
	tr := obs.NewTracer(1, 0)
	tr.SetSampleRate(1)
	sp := obs.Span{Trace: tr.NewTrace(), Proc: "snap", Comp: "fe0", Hop: obs.RootHop, Start: time.Now().UnixNano(), Dur: 1000}
	m["trace_overhead_ns"] = float64(testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Record(sp)
		}
	}).NsPerOp())

	// Edge front door: what one hop through the L7 proxy adds on top of
	// hitting the FE adapter directly (ns tracked, not gated — loopback
	// socket costs are host-bound).
	measureEdgeProxy(m)

	snap := BenchSnapshot{
		Date:    time.Now().UTC().Format("2006-01-02"),
		Seed:    seed,
		Go:      runtime.Version(),
		NumCPU:  runtime.NumCPU(),
		Metrics: m,
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n%s\n", path, out)
	return nil
}

// measureEdgeProxy benchmarks one GET through the edge (pool pick,
// header stamping, backend round trip, relay) against the same GET
// straight at the backend, and records the difference as the proxy's
// per-request overhead.
func measureEdgeProxy(m map[string]float64) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer backend.Close()

	n := san.NewNetwork(1)
	defer n.Close()
	eg, err := edge.New(edge.Config{
		Name: "edge", Node: "snapnode", Net: n, Listen: "127.0.0.1:0",
		// One synthetic Observe stands in for heartbeats; an unbounded
		// TTL keeps the backend resident however long the bench runs.
		Pool: edge.PoolConfig{TTL: time.Hour},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapshot: edge:", err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = eg.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for !eg.Running() {
		if time.Now().After(deadline) {
			fmt.Fprintln(os.Stderr, "snapshot: edge never started")
			return
		}
		time.Sleep(time.Millisecond)
	}
	eg.ObserveBackend("snapnode/fe0", "fe0", backend.Listener.Addr().String(), false)

	client := &http.Client{}
	get := func(b *testing.B, url string) {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	direct := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			get(b, backend.URL)
		}
	})
	through := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			get(b, "http://"+eg.HTTPAddr()+"/fetch?url=x")
		}
	})
	m["edge_proxy_ns"] = float64(through.NsPerOp())
	overhead := through.NsPerOp() - direct.NsPerOp()
	if overhead < 0 {
		overhead = 0
	}
	m["edge_proxy_overhead_ns"] = float64(overhead)
}

// measureLatencyProfile runs the chaos load generator against a
// healthy default system for two seconds at a comfortable rate and
// records the client-observed latency percentiles. These place the
// overload scenarios' histograms on the same axis as the figure
// metrics: the trajectory shows when a data-plane change moves the
// tail, without gating on host speed.
func measureLatencyProfile(seed int64, m map[string]float64) error {
	h, err := chaos.New(chaos.Config{Seed: seed})
	if err != nil {
		return err
	}
	defer h.Stop()
	const dur = 2 * time.Second
	h.StartLoad(100, 4096, dur)
	time.Sleep(dur + 300*time.Millisecond) // drain so the percentiles cover every issued request
	st := h.StopLoad()
	if st.Issued == 0 {
		return fmt.Errorf("load generator issued nothing")
	}
	m["latency_p50_ns"] = float64(st.P50.Nanoseconds())
	m["latency_p99_ns"] = float64(st.P99.Nanoseconds())
	m["latency_p999_ns"] = float64(st.P999.Nanoseconds())
	return nil
}

// measureRecovery boots a compact system, kills a worker, and times
// the manager's timeout-inference + respawn loop.
func measureRecovery(seed int64) (float64, error) {
	h, err := chaos.New(chaos.Config{Seed: seed})
	if err != nil {
		return 0, err
	}
	defer h.Stop()
	spawns := h.Sys.Manager().Stats().Spawns
	start := time.Now()
	h.Execute(context.Background(), chaos.Schedule{Seed: seed, Events: []chaos.Event{{Kind: chaos.KillWorker, Slot: 0}}})
	deadline := time.Now().Add(10 * time.Second)
	for h.Sys.Manager().Stats().Spawns == spawns {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("no respawn within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return float64(time.Since(start).Microseconds()) / 1000, nil
}

// measureManagerFailover boots a two-replica system through the chaos
// harness, crashes the acting primary, and times the lease election:
// crash to "a standby is the acting primary at a higher epoch and the
// whole worker inventory has re-anchored on it first-hand".
func measureManagerFailover(seed int64) (float64, error) {
	h, err := chaos.New(chaos.Config{Seed: seed, Managers: 2})
	if err != nil {
		return 0, err
	}
	defer h.Stop()
	old := h.Sys.Manager()
	oldEpoch := old.Epoch()
	// The harness awaited steady state, so the dying primary's worker
	// table is the full configured inventory.
	want := old.Stats().Workers
	start := time.Now()
	h.Execute(context.Background(), chaos.Schedule{Seed: seed, Events: []chaos.Event{{Kind: chaos.KillManager}}})
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := h.Sys.Manager()
		if m != nil && m != old && m.IsPrimary() && m.Epoch() > oldEpoch && m.Stats().Workers >= want {
			return float64(time.Since(start).Nanoseconds()), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("no standby takeover within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// measureSupervisorRestart times one cross-process supervised restart:
// two bridged systems over loopback TCP (manager + workers + caches in
// B, front end in A), A's front end killed, the clock stopped when the
// manager in B has delegated the restart to A's supervisor and the
// replacement is serving. Wall-clock (heartbeat TTL dominated), so the
// metric is tracked in the trajectory, never gated.
func measureSupervisorRestart(seed int64) (float64, error) {
	reg := tacc.NewRegistry()
	reg.Register("snap-echo", func() tacc.Worker {
		return tacc.WorkerFunc{Name: "snap-echo", Fn: func(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
			return task.Input, nil
		}}
	})
	rules := func(url, mime string, profile map[string]string) tacc.Pipeline {
		return tacc.Pipeline{{Class: "snap-echo"}}
	}
	workers := map[string]int{"snap-echo": 1}
	const tick = 10 * time.Millisecond

	dirB, err := os.MkdirTemp("", "snap-sup-b-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dirB)
	sysB, err := core.Start(core.Config{
		Seed:           seed,
		Roles:          core.Roles{Manager: true, Workers: true, Caches: true},
		NodePrefix:     "b-",
		Transport:      core.TransportConfig{Listen: "tcp:127.0.0.1:0"},
		DedicatedNodes: 4,
		Workers:        workers,
		Registry:       reg,
		Rules:          rules,
		ProfileDir:     dirB,
		BeaconInterval: tick,
		ReportInterval: tick,
		CallTimeout:    time.Second,
	})
	if err != nil {
		return 0, err
	}
	defer sysB.Stop()

	dirA, err := os.MkdirTemp("", "snap-sup-a-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dirA)
	sysA, err := core.Start(core.Config{
		Seed:           seed + 1,
		Roles:          core.Roles{FrontEnds: true, Monitor: true},
		NodePrefix:     "a-",
		Transport:      core.TransportConfig{Listen: "tcp:127.0.0.1:0", Join: []string{sysB.Bridge.Advertise()}},
		DedicatedNodes: 4,
		FrontEnds:      1,
		RemoteCaches:   core.CacheAddrs("b-", 0, 4),
		Workers:        workers,
		Registry:       reg,
		Rules:          rules,
		ProfileDir:     dirA,
		BeaconInterval: tick,
		ReportInterval: tick,
		CallTimeout:    time.Second,
	})
	if err != nil {
		return 0, err
	}
	defer sysA.Stop()

	if !sysB.WaitReady(15*time.Second) || !sysA.WaitReady(15*time.Second) {
		return 0, fmt.Errorf("bridged pair not ready")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := sysB.Manager().SupervisorFor("a-node0"); ok {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("supervisor hello never crossed")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if err := sysA.Kill("fe0"); err != nil {
		return 0, err
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		st := sysB.Manager().Stats()
		fes := sysA.FrontEnds()
		if st.Delegated >= 1 && len(fes) > 0 && fes[0].Running() {
			return float64(time.Since(start).Nanoseconds()), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("no delegated restart within 15s")
		}
		time.Sleep(time.Millisecond)
	}
}
