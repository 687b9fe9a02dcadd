package repro

// One benchmark per reproduced table/figure (DESIGN.md §3), plus the
// ablations. Each bench exercises the same code path the experiment
// harness (cmd/experiments) uses, at bench-friendly sizes; custom
// metrics report the paper-comparable quantities (slopes, capacities,
// hit rates) alongside ns/op.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/distiller"
	"repro/internal/manager"
	"repro/internal/media"
	"repro/internal/san"
	"repro/internal/search"
	"repro/internal/snsim"
	"repro/internal/stub"
	"repro/internal/tacc"
	"repro/internal/trace"
)

// BenchmarkFig5SizeSampling measures the Figure 5 content model and
// reports the sampled means for comparison with the paper's captions.
func BenchmarkFig5SizeSampling(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	model := trace.NewContentModel()
	var gifSum, gifN float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mime, size := model.Sample(rng)
		if mime == media.MIMESGIF {
			gifSum += float64(size)
			gifN++
		}
	}
	if gifN > 0 {
		b.ReportMetric(gifSum/gifN, "gif-mean-bytes")
	}
}

// BenchmarkFig6Arrivals generates one hour of the bursty arrival
// process per iteration.
func BenchmarkFig6Arrivals(b *testing.B) {
	model := trace.DefaultArrivals(1)
	rng := rand.New(rand.NewSource(1))
	var events int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += len(model.Generate(rng, 12*time.Hour, 13*time.Hour))
	}
	b.ReportMetric(float64(events)/float64(b.N), "arrivals/hour")
}

// BenchmarkFig7DistillerLatency measures the real SGIF distiller on
// ~10 KB inputs and reports the per-KB cost (the paper's Figure 7
// slope, hardware-scaled).
func BenchmarkFig7DistillerLatency(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := media.GenerateContent(rng, media.MIMESGIF, 10*1024)
	w := distiller.SGIFDistiller{}
	task := &tacc.Task{Input: tacc.Blob{MIME: media.MIMESGIF, Data: data}}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Process(context.Background(), task); err != nil {
			b.Fatal(err)
		}
	}
	perKB := float64(b.Elapsed().Microseconds()) / 1000 / float64(b.N) / (float64(len(data)) / 1024)
	b.ReportMetric(perKB, "ms/KB")
}

// BenchmarkFig8SelfTuning runs the full 400-virtual-second Figure 8
// scenario per iteration.
func BenchmarkFig8SelfTuning(b *testing.B) {
	var spawns int
	for i := 0; i < b.N; i++ {
		res := snsim.RunFigure8(int64(i + 1))
		spawns += len(res.Spawns)
	}
	b.ReportMetric(float64(spawns)/float64(b.N), "spawns/run")
}

// BenchmarkTable2Scalability runs the full Table 2 sweep per
// iteration and reports the derived per-distiller capacity.
func BenchmarkTable2Scalability(b *testing.B) {
	var cap float64
	for i := 0; i < b.N; i++ {
		res := snsim.RunTable2(int64(i + 1))
		cap = res.PerDistillerReqS
	}
	b.ReportMetric(cap, "req/s-per-distiller")
}

// BenchmarkCacheServiceModel reproduces the §4.4 service-time numbers.
func BenchmarkCacheServiceModel(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		res := snsim.RunCacheService(int64(i + 1))
		mean = res.MeanHitMs
	}
	b.ReportMetric(mean, "hit-ms")
}

// BenchmarkCacheHitRateCurve simulates one LRU point (scaled down)
// and reports the hit rate.
func BenchmarkCacheHitRateCurve(b *testing.B) {
	var hit float64
	for i := 0; i < b.N; i++ {
		res := snsim.RunCacheCurve(snsim.CacheCurveParams{
			Seed:       int64(i + 1),
			Users:      800,
			ReqPerUser: 100,
			Universe:   200000,
			CacheBytes: 1 << 30,
		})
		hit = res.HitRate
	}
	b.ReportMetric(hit, "hit-rate")
}

// nullWorker backs the control-plane benches.
type nullWorker struct{}

func (nullWorker) Class() string { return "null" }
func (nullWorker) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	return task.Input, nil
}

// BenchmarkManagerAnnouncements measures the manager's load-report
// ingestion rate — the §4.6 capacity experiment's inner loop. The
// paper needs 1800/s; report the sustained rate.
func BenchmarkManagerAnnouncements(b *testing.B) {
	net := san.NewNetwork(1)
	m := manager.New(manager.Config{
		Node: "mgr", Net: net,
		BeaconInterval: time.Hour, // isolate report handling
		WorkerTTL:      time.Hour,
		Policy:         manager.Policy{SpawnThreshold: 1e18, Damping: time.Hour, ReapThreshold: -1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx)
	wep := net.Endpoint(san.Addr{Node: "w", Proc: "w0"}, 1<<16)
	wep.Send(m.Addr(), stub.MsgRegister, stub.RegisterMsg{Info: stub.WorkerInfo{
		ID: "w0", Class: "null", Addr: wep.Addr(), Node: "w"}}, 64)
	deadline := time.Now().Add(2 * time.Second)
	for m.Stats().Workers == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	report := stub.LoadReport{ID: "w0", Class: "null", QLen: 3}
	b.ResetTimer()
	sent := 0
	for i := 0; i < b.N; i++ {
		// Pace against the manager's consumption so the bounded
		// inbox does not silently drop reports.
		for sent-int(m.Stats().ReportsHandled) > 2048 {
			time.Sleep(50 * time.Microsecond)
		}
		if wep.Send(m.Addr(), stub.MsgLoadReport, report, 64) == nil {
			sent++
		}
	}
	drain := time.Now().Add(10 * time.Second)
	for int(m.Stats().ReportsHandled) < sent && time.Now().Before(drain) {
		time.Sleep(time.Millisecond)
	}
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "announcements/s")
}

// BenchmarkOscillationAblation runs the §4.5 ablation pair and
// reports the spread ratio (raw / fixed — higher means the estimator
// helps more).
func BenchmarkOscillationAblation(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		raw := snsim.RunOscillation(int64(i+1), false)
		fixed := snsim.RunOscillation(int64(i+1), true)
		if fixed.Spread > 0 {
			ratio = raw.Spread / fixed.Spread
		}
	}
	b.ReportMetric(ratio, "spread-ratio")
}

// BenchmarkSANSaturation runs the §4.6 saturated-SAN scenario and
// reports the beacon loss rate.
func BenchmarkSANSaturation(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		res := snsim.RunSANSaturation(int64(i+1), 10, false)
		loss = res.BeaconLossRate
	}
	b.ReportMetric(loss, "beacon-loss")
}

// BenchmarkFaultRecovery boots a live system once and measures a full
// worker-crash -> timeout-detection -> respawn cycle per iteration
// (§3.1.3's process-peer loop).
func BenchmarkFaultRecovery(b *testing.B) {
	registry := tacc.NewRegistry()
	registry.Register("null", func() tacc.Worker { return nullWorker{} })
	sys, err := core.Start(core.Config{
		Seed:           1,
		DedicatedNodes: 4,
		FrontEnds:      1,
		CacheParts:     1,
		Workers:        map[string]int{"null": 1},
		Registry:       registry,
		BeaconInterval: 10 * time.Millisecond,
		ReportInterval: 10 * time.Millisecond,
		Policy:         manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Stop()
	if !sys.WaitReady(10 * time.Second) {
		b.Fatal("system did not come up")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pick a worker that is actually alive (the front end's
		// cached table can briefly list the previous victim).
		var victim string
		deadline := time.Now().Add(10 * time.Second)
		for victim == "" && time.Now().Before(deadline) {
			for _, id := range sys.Workers() {
				victim = id
				break
			}
			if victim == "" {
				time.Sleep(time.Millisecond)
			}
		}
		if victim == "" {
			b.Fatal("no worker to kill")
		}
		spawnsBefore := sys.Manager().Stats().Spawns
		if err := sys.Kill(victim); err != nil {
			b.Fatal(err)
		}
		deadline = time.Now().Add(10 * time.Second)
		for sys.Manager().Stats().Spawns == spawnsBefore && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

// BenchmarkChaosKillRestartCycle boots one system through the chaos
// harness and measures a full scripted kill -> timeout-inference ->
// respawn -> steady-state cycle per iteration (the §4.3 recovery
// latency as a tracked number).
func BenchmarkChaosKillRestartCycle(b *testing.B) {
	h, err := chaos.New(chaos.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Stop()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spawnsBefore := h.Sys.Manager().Stats().Spawns
		sched := chaos.Schedule{Seed: 1, Events: []chaos.Event{{Kind: chaos.KillWorker, Slot: i}}}
		h.Execute(ctx, sched)
		deadline := time.Now().Add(10 * time.Second)
		for h.Sys.Manager().Stats().Spawns == spawnsBefore {
			if time.Now().After(deadline) {
				b.Fatal("no respawn within 10s")
			}
			time.Sleep(time.Millisecond)
		}
		if !h.AwaitSteady(10 * time.Second) {
			b.Fatal("system did not recover")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "recovery-ms")
}

// BenchmarkMicro runs the shared micro-benchmark table (microbench.go)
// — the same bodies the bench snapshot records.
func BenchmarkMicro(b *testing.B) {
	for _, mb := range MicroBenches {
		b.Run(mb.Name, func(b *testing.B) {
			if err := mb.F(b); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- Wire-path benchmarks -------------------------------------------------
//
// Real control-plane bodies over the table's parallel SAN send shape
// (Micro/san_send_wire is the nil-body floor), and the encode-once
// multicast fanout.

// BenchmarkSANSendParallelWireSpawnReq puts the smallest real
// control-plane body on the wire path (encode + per-delivery decode).
func BenchmarkSANSendParallelWireSpawnReq(b *testing.B) {
	benchSANSendParallel(b, stub.MsgSpawnReq, stub.SpawnReq{Class: "echo"})
}

// BenchmarkSANSendParallelWireLoadReport measures the realistic worst
// case of the periodic control plane: a full load report per send.
func BenchmarkSANSendParallelWireLoadReport(b *testing.B) {
	benchSANSendParallel(b, stub.MsgLoadReport, wireLoadReport())
}

// BenchmarkSANMulticastBeaconWire is the encode-once fanout: a
// 16-member group and a beacon-shaped body — the manager's actual
// fanout.
func BenchmarkSANMulticastBeaconWire(b *testing.B) {
	net := wireNet(1)
	const members = 16
	workers := []stub.WorkerInfo{wireLoadReport().(stub.LoadReport).Info}
	beacon := stub.Beacon{Manager: san.Addr{Node: "mgr", Proc: "manager"}, Seq: 1, Workers: workers}
	for i := 0; i < members; i++ {
		ep := net.Endpoint(san.Addr{Node: "m", Proc: fmt.Sprintf("p%d", i)}, 4096)
		ep.Join("grp")
		go func() {
			for range ep.Inbox() {
			}
		}()
	}
	src := net.Endpoint(san.Addr{Node: "senders", Proc: "src"}, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Multicast("grp", stub.MsgBeacon, beacon, 128)
	}
	if st := net.Stats(); st.WireEncodes != uint64(b.N) {
		b.Fatalf("encode-once violated: %d encodes for %d multicasts", st.WireEncodes, b.N)
	}
}

// BenchmarkHotBotQuery measures fan-out query latency over a deployed
// partitioned index (§3.2).
func BenchmarkHotBotQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	docs := search.GenerateCorpus(rng, 10000, 2000)
	net := san.NewNetwork(1)
	cl := cluster.New(net)
	for i := 0; i < 8; i++ {
		cl.AddNode(fmt.Sprintf("n%d", i), false)
	}
	engine, err := search.Deploy(search.Config{
		Net: net, Cluster: cl, Partitions: 8, Seed: 1, CacheSize: 1,
	}, docs)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.StopAll()
	queries := []string{"ba de", "ka ne", "be ro", "du bi"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct-ish queries defeat the result cache (capacity 1).
		q := queries[i%len(queries)]
		res := engine.Query(context.Background(), q, 10)
		if res.ShardsAlive != 8 {
			b.Fatalf("shards alive = %d", res.ShardsAlive)
		}
	}
}

// BenchmarkEconomics evaluates the §5.2 cost model.
func BenchmarkEconomics(b *testing.B) {
	var cost float64
	for i := 0; i < b.N; i++ {
		cost = snsim.RunEconomics(23).CostPerUserMonth
	}
	b.ReportMetric(cost, "$/user/month")
}

// BenchmarkEndToEndRequest measures a whole-request path on the live
// system (cache-warm distilled hits).
func BenchmarkEndToEndRequest(b *testing.B) {
	registry := tacc.NewRegistry()
	distiller.RegisterAll(registry)
	sys, err := core.Start(core.Config{
		Seed:           1,
		DedicatedNodes: 6,
		FrontEnds:      1,
		CacheParts:     2,
		Workers:        map[string]int{distiller.ClassSJPG: 2},
		Registry:       registry,
		Rules:          distiller.TranSendRules(),
		Policy:         manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Stop()
	if !sys.WaitReady(10 * time.Second) {
		b.Fatal("system did not come up")
	}
	ctx := context.Background()
	url := trace.ObjectURL(42, media.MIMESJPG)
	if _, err := sys.Request(ctx, url, "u"); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Request(ctx, url, "u"); err != nil {
			b.Fatal(err)
		}
	}
}
