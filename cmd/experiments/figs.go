package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/distiller"
	"repro/internal/media"
	"repro/internal/sim"
	"repro/internal/snsim"
	"repro/internal/tacc"
	"repro/internal/trace"
)

// runFig5 reproduces Figure 5: probability mass of content lengths per
// MIME type on a log-x axis, plus the caption's averages (HTML 5131,
// GIF 3428, JPEG 12070).
func runFig5(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	models := []*trace.SizeModel{trace.HTMLSizes(), trace.GIFSizes(), trace.JPEGSizes()}
	names := []string{"HTML", "GIF", "JPG"}
	const samples = 200000

	hists := make([]*sim.Histogram, len(models))
	means := make([]sim.Welford, len(models))
	for i, m := range models {
		hists[i] = sim.NewLogHistogram(64, 1<<21, 44)
		for j := 0; j < samples; j++ {
			v := float64(m.Sample(rng))
			hists[i].Add(v)
			means[i].Add(v)
		}
	}
	fmt.Printf("%-10s", "size(B)")
	for _, n := range names {
		fmt.Printf(" %-24s", n)
	}
	fmt.Println()
	for bin := 0; bin < 44; bin += 2 {
		fmt.Printf("%-10.0f", hists[0].BinCenter(bin))
		for i := range hists {
			p := hists[i].Probability(bin) + hists[i].Probability(bin+1)
			bar := int(p * 400)
			if bar > 24 {
				bar = 24
			}
			fmt.Printf(" %-24s", strings.Repeat("#", bar))
		}
		fmt.Println()
	}
	fmt.Printf("\nAverage content lengths (paper: HTML 5131 B, GIF 3428 B, JPEG 12070 B):\n")
	for i, n := range names {
		fmt.Printf("  %-5s %6.0f B\n", n, means[i].Mean())
	}
	below, above := 0, 0
	gif := trace.GIFSizes()
	for i := 0; i < 50000; i++ {
		if gif.Sample(rng) < 1024 {
			below++
		} else {
			above++
		}
	}
	fmt.Printf("GIF bimodality: %.0f%% below the 1 KB distillation threshold, %.0f%% above\n",
		100*float64(below)/50000, 100*float64(above)/50000)
}

// runFig6 reproduces Figure 6: request arrivals bucketized at three
// time scales showing burstiness at every scale.
func runFig6(seed int64) {
	model := trace.DefaultArrivals(seed)
	rng := rand.New(rand.NewSource(seed))
	times := model.Generate(rng, 0, 24*time.Hour)

	type panel struct {
		label  string
		start  time.Duration
		span   time.Duration
		bucket time.Duration
	}
	panels := []panel{
		{"(a) 24 hours, 2-min buckets", 0, 24 * time.Hour, 2 * time.Minute},
		{"(b) 3 h 20 m, 30-s buckets", 14 * time.Hour, 200 * time.Minute, 30 * time.Second},
		{"(c) 3 m 20 s, 1-s buckets", 16 * time.Hour, 200 * time.Second, time.Second},
	}
	fmt.Printf("total arrivals: %d over 24 h (paper trace: ~5.8 req/s average)\n\n", len(times))
	for _, p := range panels {
		counts := trace.Bucketize(times, p.start, p.start+p.span, p.bucket)
		avg, peak := trace.BucketStats(counts, p.bucket)
		vals := make([]float64, len(counts))
		for i, c := range counts {
			vals[i] = float64(c)
		}
		fmt.Printf("%s: avg %.1f req/s, peak %.1f req/s (peak/avg %.1fx)\n",
			p.label, avg, peak, peak/avg)
		fmt.Printf("  |%s|\n\n", sparkline(vals, 64))
	}
	fmt.Println("paper figure 6: (a) 5.8 avg / 12.6 max, (b) 5.6 avg / 10.3 peak, (c) 8.1 avg / 20 peak")
}

// runFig7 reproduces Figure 7 by measuring the real SGIF distiller:
// latency as a function of input size, expected ~linear (the paper
// measured ~8 ms/KB on 1997 hardware; the slope scales with CPU speed
// but the shape is the claim).
func runFig7(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	w := distiller.SGIFDistiller
	gif := trace.GIFSizes()

	type obs struct{ kb, ms float64 }
	var all []obs
	const trials = 1500
	for i := 0; i < trials; i++ {
		target := gif.Sample(rng)
		if target < 1200 {
			continue // below the distillation threshold
		}
		data := media.GenerateContent(rng, media.MIMESGIF, target)
		task := &tacc.Task{Input: tacc.Blob{MIME: media.MIMESGIF, Data: data}}
		start := time.Now()
		if _, err := w.Process(nil, task); err != nil {
			continue
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		all = append(all, obs{kb: float64(len(data)) / 1024, ms: ms})
	}

	// Bin by size and fit a least-squares slope.
	fmt.Printf("%-12s %-10s %-8s\n", "input (KB)", "mean (ms)", "n")
	bins := map[int][]float64{}
	for _, o := range all {
		bins[int(o.kb/4)] = append(bins[int(o.kb/4)], o.ms)
	}
	var sumX, sumY, sumXY, sumXX float64
	for _, o := range all {
		sumX += o.kb
		sumY += o.ms
		sumXY += o.kb * o.ms
		sumXX += o.kb * o.kb
	}
	n := float64(len(all))
	slope := (n*sumXY - sumX*sumY) / (n*sumXX - sumX*sumX)
	binKeys := make([]int, 0, len(bins))
	for k := range bins {
		binKeys = append(binKeys, k)
	}
	sort.Ints(binKeys)
	for _, k := range binKeys {
		var w sim.Welford
		for _, v := range bins[k] {
			w.Add(v)
		}
		fmt.Printf("%-12s %-10.2f %-8d\n", fmt.Sprintf("%d-%d", k*4, k*4+4), w.Mean(), w.N)
	}
	fmt.Printf("\nfitted slope: %.3f ms/KB over %d distillations\n", slope, len(all))
	fmt.Println("paper: ~8 ms/KB on a 1997 SPARC (absolute value is hardware-bound;")
	fmt.Println("the reproduced claim is the linear relationship with size)")
}

// runFig8 reproduces Figure 8: distiller queue lengths over time as
// load ramps, with the manual kill of distillers 1 and 2 at t=250 s.
func runFig8(seed int64) {
	res := snsim.RunFigure8(seed)
	fmt.Printf("policy: H=%.0f, D=%s; offered load ramps 0 -> 40 task/s over %s\n\n",
		res.Policy.SpawnThreshold, res.Policy.Damping, res.Horizon)

	fmt.Printf("%-8s %-8s %-12s %s\n", "t(s)", "load", "distillers", "queue lengths")
	for i, s := range res.Samples {
		if i%20 != 0 && !near(s.T, res.KillAt) {
			continue
		}
		var qs []string
		for _, id := range sortedKeys(s.QueueLens) {
			qs = append(qs, fmt.Sprintf("d%d:%d", id, s.QueueLens[id]))
		}
		marker := ""
		if near(s.T, res.KillAt) {
			marker = "   <-- distillers 0,1 killed"
		}
		fmt.Printf("%-8.0f %-8.1f %-12d %s%s\n",
			s.T.Seconds(), s.Offered, s.NDistillers, strings.Join(qs, " "), marker)
	}
	fmt.Println("\nspawn events:")
	for _, sp := range res.Spawns {
		kind := "dedicated"
		if sp.Overflow {
			kind = "overflow"
		}
		fmt.Printf("  t=%-6.0fs distiller %d (%s, %s)\n", sp.T.Seconds(), sp.ID, kind, sp.Reason)
	}
	// Max-queue sparkline over the whole run.
	var maxq []float64
	for _, s := range res.Samples {
		mx := 0
		for _, q := range s.QueueLens {
			if q > mx {
				mx = q
			}
		}
		maxq = append(maxq, float64(mx))
	}
	fmt.Printf("\nmax queue over time: |%s|\n", sparkline(maxq, 64))
	fmt.Println("paper figure 8: spawns as queues cross H; kill at t~250s; new distiller")
	fmt.Println("started immediately; balanced within ~5s of each spawn")
}

func near(t, target time.Duration) bool {
	d := t - target
	if d < 0 {
		d = -d
	}
	return d < 500*time.Millisecond
}

// runTable2 reproduces the Table 2 sweep.
func runTable2(seed int64) {
	res := snsim.RunTable2(seed)
	fmt.Print(res.Render())
	fmt.Println("\npaper table 2: 0-24/1FE/1D, 25-47/1FE/2D, 48-72/1FE/3D, 73-87/1FE/4D (FE")
	fmt.Println("saturates), 88-91/2FE/4D, 92-112/2FE/5D, 113-135/2FE/6D, 136-159/3FE/7D;")
	fmt.Println("~23 req/s per distiller, ~70 req/s per FE link — linear growth throughout")
}

// runCache reproduces the §4.4 cache partition measurements.
func runCache(seed int64) {
	res := snsim.RunCacheService(seed)
	fmt.Printf("per-partition hit service:   mean %.1f ms (paper: 27 ms)\n", res.MeanHitMs)
	fmt.Printf("95th percentile hit:         %.1f ms (paper: 95%% under 100 ms)\n", res.P95HitMs)
	fmt.Printf("implied partition capacity:  %.1f req/s (paper: ~37 req/s)\n", res.MaxRatePerS)
	fmt.Printf("miss penalty range:          %.2f s .. %.1f s, median %.2f s (paper: 0.1-100 s)\n",
		res.MissMinS, res.MissMaxS, res.MissMedianS)
	fmt.Println("conclusion (paper): the miss penalty dominates end-to-end latency, so")
	fmt.Println("minimizing miss rate matters more than optimizing the hit path")
}

// runCacheCurve reproduces the §4.4 LRU simulations.
func runCacheCurve(seed int64) {
	fmt.Println("hit rate vs cache size (population 8000, paper: plateau ~56% at 6 GB):")
	fmt.Printf("%-10s %-10s %-14s\n", "cache(GB)", "hit rate", "unique bytes")
	for _, gb := range []float64{0.5, 1, 2, 4, 6, 8, 12} {
		r := snsim.RunCacheCurve(snsim.CacheCurveParams{
			Seed:       seed,
			Users:      8000,
			CacheBytes: int64(gb * float64(1<<30)),
		})
		fmt.Printf("%-10.1f %-10.3f %.1f GB\n", gb, r.HitRate, float64(r.UniqueBytes)/float64(1<<30))
	}
	fmt.Println("\nhit rate vs population (cache 6 GB; paper: rises with population until")
	fmt.Println("the working-set sum exceeds the cache):")
	fmt.Printf("%-12s %-10s %-14s\n", "users", "hit rate", "unique bytes")
	for _, users := range []int{1000, 2000, 4000, 8000, 16000, 32000} {
		r := snsim.RunCacheCurve(snsim.CacheCurveParams{
			Seed:       seed,
			Users:      users,
			CacheBytes: 6 << 30,
		})
		fmt.Printf("%-12d %-10.3f %.1f GB\n", users, r.HitRate, float64(r.UniqueBytes)/float64(1<<30))
	}
}

// runOscillation reproduces the §4.5 ablation.
func runOscillation(seed int64) {
	raw := snsim.RunOscillation(seed, false)
	fixed := snsim.RunOscillation(seed, true)
	fmt.Printf("%-28s %-14s %-14s\n", "estimator", "queue spread", "leader switches/min")
	fmt.Printf("%-28s %-14.2f %-14.1f\n", "raw stale reports (pre-fix)", raw.Spread, raw.SwitchRate)
	fmt.Printf("%-28s %-14.2f %-14.1f\n", "queue-delta estimation", fixed.Spread, fixed.SwitchRate)
	fmt.Printf("\nreduction: %.1fx in spread\n", raw.Spread/fixed.Spread)
	fmt.Println("paper §4.5: stale reports caused rapid oscillations; keeping a running")
	fmt.Println("estimate of queue-length change between reports eliminated them")
}

// runSANSat reproduces the §4.6 saturation study.
func runSANSat(seed int64) {
	fmt.Printf("%-22s %-12s %-10s %-10s %-10s\n",
		"SAN", "beacon loss", "p95 (s)", "spawns", "req/s")
	for _, c := range []struct {
		label string
		mbps  float64
		iso   bool
	}{
		{"10 Mb/s shared", 10, false},
		{"100 Mb/s shared", 100, false},
		{"10 Mb/s + utility net", 10, true},
	} {
		r := snsim.RunSANSaturation(seed, c.mbps, c.iso)
		fmt.Printf("%-22s %-12.2f %-10.2f %-10d %-10.1f\n",
			c.label, r.BeaconLossRate, r.P95LatencyS, r.Spawns, r.CompletedPerS)
	}
	fmt.Println("\npaper §4.6: on a 10 Mb/s SAN most multicast control traffic dropped,")
	fmt.Println("crippling load balancing; a low-speed utility network isolating control")
	fmt.Println("traffic (or a faster SAN) avoids it")
}

// runEcon reproduces §5.2's arithmetic.
func runEcon(seed int64) {
	res := snsim.RunEconomics(23)
	fmt.Printf("server cost:            $%.0f\n", res.ServerCostUSD)
	fmt.Printf("modems supported:       %d (paper: ~750 per server)\n", res.ModemsSupported)
	fmt.Printf("subscribers (%d:1):     %d (paper: ~15000)\n", res.SubscriberRatio, res.Subscribers)
	fmt.Printf("cost per user per month: $%.2f (paper: ~$0.25)\n", res.CostPerUserMonth)
	fmt.Printf("cache savings per month: $%.0f (1-2 T1 lines at >=50%% hit rate)\n", res.CacheSavingsMonth)
	fmt.Printf("payback period:          %.1f months (paper: ~2)\n", res.PaybackMonths)
}

// runThreshold reproduces the design rationale for the 1 KB
// distillation threshold (§4.1): distill real SGIF objects across the
// size spectrum and measure the size change — below ~1 KB,
// distillation rarely shrinks anything (headers and palette dominate),
// so TranSend passes such objects through unmodified.
func runThreshold(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	w := distiller.SGIFDistiller
	buckets := []struct {
		label    string
		lo, hi   int
		n        int
		shrunk   int
		inBytes  int
		outBytes int
	}{
		{label: "<=512B", lo: 100, hi: 512},
		{label: "512B-1KB", lo: 512, hi: 1024},
		{label: "1-2KB", lo: 1024, hi: 2048},
		{label: "2-4KB", lo: 2048, hi: 4096},
		{label: "4-16KB", lo: 4096, hi: 16384},
		{label: "16-64KB", lo: 16384, hi: 65536},
	}
	for bi := range buckets {
		b := &buckets[bi]
		for i := 0; i < 60; i++ {
			target := b.lo + rng.Intn(b.hi-b.lo)
			data := media.GenerateContent(rng, media.MIMESGIF, target)
			task := &tacc.Task{
				Input:  tacc.Blob{MIME: media.MIMESGIF, Data: data},
				Params: map[string]string{"minsize": "0"}, // force distillation
			}
			out, err := w.Process(nil, task)
			if err != nil {
				continue
			}
			b.n++
			b.inBytes += len(data)
			b.outBytes += out.Size()
			if out.Size() < len(data) {
				b.shrunk++
			}
		}
	}
	fmt.Printf("%-10s %-8s %-14s %-12s\n", "size", "n", "shrunk by >0B", "avg ratio")
	for _, b := range buckets {
		if b.n == 0 {
			continue
		}
		fmt.Printf("%-10s %-8d %-14s %.2fx\n",
			b.label, b.n,
			fmt.Sprintf("%.0f%%", 100*float64(b.shrunk)/float64(b.n)),
			float64(b.inBytes)/float64(b.outBytes))
	}
	fmt.Println("\npaper §4.1: \"data under 1 KB is transferred to the client unmodified,")
	fmt.Println("since distillation of such small content rarely results in a size")
	fmt.Println("reduction\". Deviation: real GIFs carry a fixed header+palette floor")
	fmt.Println("(~800 B) that our synthetic codec lacks, so small objects here still")
	fmt.Println("compress. The threshold remains the right policy on latency grounds:")
	fmt.Println("a sub-1 KB object saves at most ~800 B (~0.2 s at 28.8 kbps) — less")
	fmt.Println("than the queueing delay of a distiller round trip under load — and")
	fmt.Println("fig5 shows the GIF distribution's icon plateau sits wholly below it.")
}
