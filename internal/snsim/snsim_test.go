package snsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/manager"
)

func TestFigure8Shape(t *testing.T) {
	res := RunFigure8(1)

	// Load ramp forces multiple spawns before the kill.
	spawnsBeforeKill := res.SpawnsAfter(0, res.KillAt)
	if spawnsBeforeKill < 2 {
		t.Fatalf("only %d spawns during the ramp, want >= 2", spawnsBeforeKill)
	}
	// Killing two distillers triggers recovery spawns within ~2
	// damping windows.
	recovery := res.SpawnsAfter(res.KillAt, res.KillAt+2*res.Policy.Damping+5*time.Second)
	if recovery < 1 {
		t.Fatalf("no recovery spawn after the kill")
	}
	// The surviving distiller's queue spikes right after the kill...
	spike := res.MaxQueueNear(res.KillAt, res.KillAt+10*time.Second)
	if spike < int(res.Policy.SpawnThreshold) {
		t.Fatalf("no queue spike after kill: max=%d", spike)
	}
	// ...and the system stabilizes by the end: bounded queues.
	endMax := res.MaxQueueNear(res.Horizon-20*time.Second, res.Horizon)
	if endMax > 4*int(res.Policy.SpawnThreshold) {
		t.Fatalf("queues did not stabilize: end max=%d", endMax)
	}
	// The paper's run starts five distillers in all; a spawn storm
	// passes every check above, so bound the count (6 at this seed).
	if n := len(res.Spawns); n < 4 || n > 8 {
		t.Fatalf("%d spawns over the run, want about the paper's 5", n)
	}
	// Determinism.
	res2 := RunFigure8(1)
	if len(res2.Spawns) != len(res.Spawns) {
		t.Fatalf("same seed, different runs: %d vs %d spawns", len(res.Spawns), len(res2.Spawns))
	}
}

func TestFigure8LoadIsBalanced(t *testing.T) {
	res := RunFigure8(2)
	// Near the end of the run, queues across distillers should be
	// within a reasonable band of each other (the paper: balanced
	// "within five seconds" of each spawn).
	if !res.BalancedAt(res.Horizon-5*time.Second, 25) {
		t.Fatal("queues unbalanced at end of run")
	}
}

func TestTable2LinearScaling(t *testing.T) {
	res := RunTable2(1)
	if len(res.Rows) < 4 {
		t.Fatalf("too few rows: %+v", res.Rows)
	}
	// Distiller capacity near the paper's ~23 req/s.
	if res.PerDistillerReqS < 17 || res.PerDistillerReqS > 30 {
		t.Fatalf("per-distiller capacity = %.1f req/s, want ~23", res.PerDistillerReqS)
	}
	// FE link saturates in the paper's 60-100 req/s band.
	if res.PerFrontEndReqS < 56 || res.PerFrontEndReqS > 100 {
		t.Fatalf("per-FE capacity = %.0f req/s, want ~70-90", res.PerFrontEndReqS)
	}
	// Monotone growth: resources never shrink as load rises, and
	// distillers grow roughly linearly with load.
	prevD, prevFE := 0, 0
	for _, row := range res.Rows {
		if row.Distillers < prevD || row.FrontEnds < prevFE {
			t.Fatalf("resources shrank: %+v", res.Rows)
		}
		prevD, prevFE = row.Distillers, row.FrontEnds
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Distillers < 5 || last.FrontEnds < 2 {
		t.Fatalf("sweep ended too small: %+v", last)
	}
	// The experiment reaches well past 100 req/s like the paper's
	// 159 req/s endpoint.
	if res.MaxLoadReached < 120 {
		t.Fatalf("max load reached = %d", res.MaxLoadReached)
	}
}

func TestOscillationAblation(t *testing.T) {
	raw := RunOscillation(1, false)
	fixed := RunOscillation(1, true)
	// The §4.5 estimator must materially reduce queue sloshing.
	if fixed.Spread >= raw.Spread*0.7 {
		t.Fatalf("estimator did not damp oscillation: raw spread %.2f, fixed %.2f",
			raw.Spread, fixed.Spread)
	}
}

func TestSANSaturationCripplesControl(t *testing.T) {
	slow := RunSANSaturation(1, 10, false)
	fast := RunSANSaturation(1, 100, false)
	isolated := RunSANSaturation(1, 10, true)

	if slow.BeaconLossRate < 0.4 {
		t.Fatalf("10 Mb/s SAN should drop most control traffic, loss=%.2f", slow.BeaconLossRate)
	}
	if fast.BeaconLossRate > 0.01 {
		t.Fatalf("100 Mb/s SAN dropped beacons: %.2f", fast.BeaconLossRate)
	}
	if isolated.BeaconLossRate > 0.01 {
		t.Fatalf("utility network did not protect control traffic: %.2f", isolated.BeaconLossRate)
	}
	// Control loss must hurt: slower scale-up shows as worse tail
	// latency, and blind spawning over-provisions (the manager
	// cannot see that its new workers are absorbing load).
	if slow.P95LatencyS < isolated.P95LatencyS*1.1 {
		t.Fatalf("control loss did not degrade tail latency: %.2f vs %.2f",
			slow.P95LatencyS, isolated.P95LatencyS)
	}
	if slow.Spawns <= isolated.Spawns {
		t.Fatalf("control loss should cause spawn overshoot: %d vs %d",
			slow.Spawns, isolated.Spawns)
	}
	// The utility network restores healthy-SAN behaviour.
	if isolated.P95LatencyS > fast.P95LatencyS*1.02 {
		t.Fatalf("isolation did not restore health: %.2f vs %.2f",
			isolated.P95LatencyS, fast.P95LatencyS)
	}
}

func TestCacheServiceNumbers(t *testing.T) {
	res := RunCacheService(1)
	if res.MeanHitMs < 24 || res.MeanHitMs > 30 {
		t.Fatalf("mean hit = %.1f ms, want ~27", res.MeanHitMs)
	}
	if res.P95HitMs > 100 {
		t.Fatalf("p95 hit = %.1f ms, want < 100 (paper: 95%% under 100ms)", res.P95HitMs)
	}
	if res.MaxRatePerS < 33 || res.MaxRatePerS > 42 {
		t.Fatalf("per-partition capacity = %.1f req/s, want ~37", res.MaxRatePerS)
	}
	if res.MissMinS < 0.09 || res.MissMaxS > 101 {
		t.Fatalf("miss penalty range [%.2f, %.2f], want ~[0.1, 100]", res.MissMinS, res.MissMaxS)
	}
}

func TestCacheCurveShape(t *testing.T) {
	// Scaled-down but same shape: hit rate monotone in cache size,
	// then plateaus.
	base := CacheCurveParams{
		Seed:       1,
		Users:      800,
		ReqPerUser: 100,
		Universe:   200000,
	}
	var prev float64
	var rates []float64
	for _, gb := range []float64{0.05, 0.2, 0.8, 3.2} {
		p := base
		p.CacheBytes = int64(gb * float64(1<<30))
		r := RunCacheCurve(p)
		rates = append(rates, r.HitRate)
		if r.HitRate+0.02 < prev {
			t.Fatalf("hit rate fell with larger cache: %v", rates)
		}
		prev = r.HitRate
	}
	// Plateau: the last doubling gains little.
	if rates[3]-rates[2] > 0.1 {
		t.Fatalf("no plateau: %v", rates)
	}
	// The plateau's level, not only its shape: a tenth of the traced
	// population plateaus near 0.40, under the paper's 0.56 for 8000
	// users (cross-user locality grows with population).
	if rates[3] < 0.32 || rates[3] > 0.56 {
		t.Fatalf("plateau hit rate %.3f, want 0.32-0.56: %v", rates[3], rates)
	}
}

func TestCacheCurvePopulationDecline(t *testing.T) {
	// The paper: hit rate rises with population "until the sum of
	// the users' working sets exceeds the cache size, causing the
	// cache hit rate to fall". With a small cache, a large
	// population's private working sets thrash it.
	if testing.Short() {
		t.Skip("long LRU simulation")
	}
	// Private-set reuse only exists when users make enough requests
	// to revisit their sets (~250 req/user, like the trace), and the
	// decline only bites once the sum of private sets outgrows the
	// cache: 250*25*6KB ≈ 37 MB and 1000*25*6KB ≈ 150 MB fit in
	// 256 MB, 3000*25*6KB ≈ 450 MB does not. (Scaled down from the
	// paper-sized populations so the full suite stays fast; the shape
	// is what matters.)
	point := func(users int) CacheCurveResult {
		return RunCacheCurve(CacheCurveParams{
			Seed: 1, Users: users, ReqPerUser: 250, Universe: 200000,
			PrivateSet: 25, CacheBytes: 256 << 20,
		})
	}
	small := point(250)
	mid := point(1000)
	big := point(3000)
	if mid.HitRate <= small.HitRate {
		t.Fatalf("rise missing: %d users %.3f vs %d users %.3f",
			small.Params.Users, small.HitRate, mid.Params.Users, mid.HitRate)
	}
	if big.HitRate >= mid.HitRate {
		t.Fatalf("decline missing: %d users %.3f vs %d users %.3f",
			mid.Params.Users, mid.HitRate, big.Params.Users, big.HitRate)
	}
}

func TestCacheCurvePopulationEffect(t *testing.T) {
	// With a big cache, more users -> more cross-user locality ->
	// higher hit rate.
	big := int64(8) << 30
	small := RunCacheCurve(CacheCurveParams{Seed: 1, Users: 200, ReqPerUser: 100, Universe: 200000, CacheBytes: big})
	large := RunCacheCurve(CacheCurveParams{Seed: 1, Users: 3200, ReqPerUser: 100, Universe: 200000, CacheBytes: big})
	if large.HitRate <= small.HitRate {
		t.Fatalf("population effect missing: %d users %.2f vs %d users %.2f",
			small.Params.Users, small.HitRate, large.Params.Users, large.HitRate)
	}
}

func TestModelDeterminism(t *testing.T) {
	run := func() uint64 {
		m := New(Params{Seed: 7, Rate: func(time.Duration) float64 { return 30 }, Distillers: 2,
			Policy: manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1}})
		m.Run(30 * time.Second)
		return m.Stats().Completed
	}
	if a, b := run(), run(); a != b || a == 0 {
		t.Fatalf("model not deterministic: %d vs %d", a, b)
	}
}

func TestModelThroughputSanity(t *testing.T) {
	// Offered 20 req/s with ample capacity: completions track the
	// offered load.
	m := New(Params{
		Seed:       3,
		Rate:       func(time.Duration) float64 { return 20 },
		Distillers: 2,
		Policy:     manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
	})
	m.Run(60 * time.Second)
	st := m.Stats()
	got := float64(st.Completed) / 60
	if got < 17 || got > 23 {
		t.Fatalf("throughput = %.1f req/s, offered 20", got)
	}
	if st.Dropped > 0 {
		t.Fatalf("drops under light load: %d", st.Dropped)
	}
	// Latency is dominated by the ~43 ms distillation plus ~27 ms
	// cache hit plus 13 ms FE: mean well under a second.
	if st.Latency.Mean() > 0.5 {
		t.Fatalf("mean latency %.3f s too high", st.Latency.Mean())
	}
}

func TestOverflowRecruitAndReap(t *testing.T) {
	// Small dedicated pool; a burst forces overflow recruitment and
	// the post-burst lull reaps it.
	var burst = func(t time.Duration) float64 {
		if t > 10*time.Second && t < 70*time.Second {
			return 90
		}
		return 4
	}
	m := New(Params{
		Seed:           4,
		Rate:           burst,
		SizeKB:         func(*rand.Rand) float64 { return 10 },
		Distillers:     1,
		DedicatedNodes: 2, // dedicated slots exhaust quickly
		Policy:         manager.Policy{SpawnThreshold: 8, Damping: 3 * time.Second, ReapThreshold: 0.5},
		UseDelta:       true,
		SpawnDelay:     500 * time.Millisecond,
		BalkLimit:      100000,
	})
	m.Run(3 * time.Minute)
	sawOverflow := false
	for _, s := range m.Spawns() {
		if s.Overflow {
			sawOverflow = true
		}
	}
	if !sawOverflow {
		t.Fatalf("burst never recruited the overflow pool: %+v", m.Spawns())
	}
	// After the burst subsides, overflow workers get reaped.
	finalOverflow := 0
	for _, d := range m.dists {
		if d.alive && d.overflow {
			finalOverflow++
		}
	}
	if finalOverflow > 0 {
		t.Fatalf("%d overflow workers still alive after the burst", finalOverflow)
	}
}

func TestEconomics(t *testing.T) {
	res := RunEconomics(23)
	if res.Subscribers < 10000 {
		t.Fatalf("subscribers = %d, want >= 10000 (paper: ~15000)", res.Subscribers)
	}
	if res.CostPerUserMonth > 1.0 {
		t.Fatalf("cost/user/month = $%.2f, want well under $1 (paper: ~$0.25)", res.CostPerUserMonth)
	}
	if res.PaybackMonths < 1 || res.PaybackMonths > 3 {
		t.Fatalf("payback = %.1f months, want ~2", res.PaybackMonths)
	}
}

func TestKillDistillerBounds(t *testing.T) {
	m := New(Params{Seed: 5, Distillers: 1,
		Policy: manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1}})
	m.KillDistiller(-1) // no panic
	m.KillDistiller(99)
	m.KillDistiller(0)
	m.KillDistiller(0) // double-kill tolerated
	if m.Distillers() != 0 {
		t.Fatal("kill did not take effect")
	}
}

func TestFigure8ResultHelpers(t *testing.T) {
	res := Figure8Result{
		Samples: []Sample{
			{T: 10 * time.Second, QueueLens: map[int]int{0: 5, 1: 7}},
			{T: 20 * time.Second, QueueLens: map[int]int{0: 30, 1: 2}},
		},
		Spawns: []SpawnEvent{{T: 5 * time.Second}, {T: 15 * time.Second}},
	}
	if got := res.SpawnsAfter(0, 10*time.Second); got != 1 {
		t.Fatalf("SpawnsAfter = %d", got)
	}
	if got := res.SpawnsAfter(0, time.Minute); got != 2 {
		t.Fatalf("SpawnsAfter all = %d", got)
	}
	if got := res.MaxQueueNear(0, time.Minute); got != 30 {
		t.Fatalf("MaxQueueNear = %d", got)
	}
	if got := res.MaxQueueNear(0, 12*time.Second); got != 7 {
		t.Fatalf("MaxQueueNear early = %d", got)
	}
	if !res.BalancedAt(10*time.Second, 2) {
		t.Fatal("BalancedAt should accept spread 2 <= tol 2")
	}
	if res.BalancedAt(20*time.Second, 2) {
		t.Fatal("BalancedAt should reject spread 28")
	}
	if (Figure8Result{}).BalancedAt(0, 5) {
		t.Fatal("empty result cannot be balanced")
	}
}

func TestTable2Render(t *testing.T) {
	res := Table2Result{
		Rows: []Table2Row{
			{LoadFrom: 4, LoadTo: 20, FrontEnds: 1, Distillers: 1, Saturated: "distillers"},
		},
		PerDistillerReqS: 23.5,
		PerFrontEndReqS:  72,
	}
	out := res.Render()
	for _, want := range []string{"4-20", "distillers", "23.5", "72"} {
		if !contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
