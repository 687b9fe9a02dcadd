package lottery

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPickEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := Pick(rng, nil); got != -1 {
		t.Fatalf("Pick(empty) = %d", got)
	}
}

func TestPickSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if got := Pick(rng, []float64{5}); got != 0 {
			t.Fatalf("Pick single = %d", got)
		}
	}
}

func TestPickProportionalFairness(t *testing.T) {
	// A worker with 3x the tickets should win about 3x as often.
	rng := rand.New(rand.NewSource(42))
	tickets := []float64{3, 1}
	wins := [2]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		wins[Pick(rng, tickets)]++
	}
	ratio := float64(wins[0]) / float64(wins[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("win ratio = %.2f, want ~3.0", ratio)
	}
}

func TestPickZeroTicketsNotStarved(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tickets := []float64{0, 10}
	won := false
	for i := 0; i < 10000; i++ {
		if Pick(rng, tickets) == 0 {
			won = true
			break
		}
	}
	if !won {
		t.Fatal("zero-ticket worker starved; should hold one courtesy ticket")
	}
}

func TestPickAlwaysValidIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 1
			}
		}
		got := Pick(rng, raw)
		return got >= 0 && got < len(raw)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTicketsFromQueue(t *testing.T) {
	if TicketsFromQueue(0) != 1 {
		t.Fatal("idle worker should have 1 ticket")
	}
	if TicketsFromQueue(9) != 0.1 {
		t.Fatalf("q=9 tickets = %v", TicketsFromQueue(9))
	}
	if TicketsFromQueue(-5) != 1 {
		t.Fatal("negative queue should clamp to idle")
	}
	// Monotone decreasing.
	prev := math.Inf(1)
	for q := 0.0; q < 100; q++ {
		tk := TicketsFromQueue(q)
		if tk >= prev {
			t.Fatalf("tickets not strictly decreasing at q=%v", q)
		}
		prev = tk
	}
}

func TestEstimatorRawMode(t *testing.T) {
	e := &Estimator{}
	t0 := time.Unix(0, 0)
	e.Report(10, t0)
	if got := e.Estimate(t0.Add(time.Minute), false); got != 10 {
		t.Fatalf("raw estimate = %v, want 10 (stale report)", got)
	}
}

func TestEstimatorExtrapolatesRate(t *testing.T) {
	e := &Estimator{}
	t0 := time.Unix(0, 0)
	e.Report(0, t0)
	e.Report(10, t0.Add(time.Second)) // rate = +10/s
	got := e.Estimate(t0.Add(2*time.Second), true)
	if math.Abs(got-20) > 1e-9 {
		t.Fatalf("estimate = %v, want 20", got)
	}
}

func TestEstimatorCountsLocalDispatches(t *testing.T) {
	e := &Estimator{}
	t0 := time.Unix(0, 0)
	e.Report(5, t0)
	e.Dispatched()
	e.Dispatched()
	got := e.Estimate(t0, true)
	if got != 7 {
		t.Fatalf("estimate = %v, want 7 (5 reported + 2 local)", got)
	}
	// A fresh report resets the local dispatch count.
	e.Report(6, t0.Add(time.Second))
	if got := e.Estimate(t0.Add(time.Second), true); math.Abs(got-6) > 1.01 {
		t.Fatalf("estimate after report = %v, want ~6", got)
	}
}

func TestEstimatorClampsNegative(t *testing.T) {
	e := &Estimator{}
	t0 := time.Unix(0, 0)
	e.Report(10, t0)
	e.Report(0, t0.Add(time.Second)) // rate = -10/s
	if got := e.Estimate(t0.Add(time.Minute), true); got != 0 {
		t.Fatalf("estimate = %v, want clamp to 0", got)
	}
}

func TestEstimatorNoReports(t *testing.T) {
	e := &Estimator{}
	if got := e.Estimate(time.Now(), true); got != 0 {
		t.Fatalf("estimate with no reports = %v", got)
	}
}

func TestSchedulerPrefersShortQueues(t *testing.T) {
	// Raw mode isolates the static preference; delta mode would
	// (correctly) equalize via dispatch feedback, tested below.
	s := NewScheduler(1, false)
	now := time.Unix(0, 0)
	s.Report("busy", 50, now)
	s.Report("idle", 0, now)
	wins := map[string]int{}
	for i := 0; i < 10000; i++ {
		wins[s.Pick([]string{"busy", "idle"}, now)]++
	}
	if wins["idle"] < wins["busy"]*5 {
		t.Fatalf("idle worker not preferred: %v", wins)
	}
}

func TestSchedulerDispatchFeedback(t *testing.T) {
	// With delta estimation, repeatedly picking the same worker
	// raises its estimated queue and shifts traffic away — the
	// oscillation fix. Without it, estimates stay frozen.
	now := time.Unix(0, 0)
	s := NewScheduler(1, true)
	s.Report("w1", 0, now)
	s.Report("w2", 0, now)
	for i := 0; i < 100; i++ {
		s.Pick([]string{"w1", "w2"}, now)
	}
	e1 := s.Estimate("w1", now)
	e2 := s.Estimate("w2", now)
	if e1+e2 < 99 {
		t.Fatalf("local dispatches not reflected: %v + %v", e1, e2)
	}
	if math.Abs(e1-e2) > 40 {
		t.Fatalf("dispatch feedback unbalanced: %v vs %v", e1, e2)
	}

	raw := NewScheduler(1, false)
	raw.Report("w1", 0, now)
	raw.Report("w2", 0, now)
	for i := 0; i < 100; i++ {
		raw.Pick([]string{"w1", "w2"}, now)
	}
	if raw.Estimate("w1", now) != 0 {
		t.Fatal("raw mode should ignore local dispatches")
	}
}

func TestSchedulerForget(t *testing.T) {
	s := NewScheduler(1, true)
	now := time.Unix(0, 0)
	s.Report("w1", 10, now)
	s.Forget("w1")
	if got := s.Estimate("w1", now); got != 0 {
		t.Fatalf("estimate after Forget = %v", got)
	}
}

func TestSchedulerPickEmpty(t *testing.T) {
	s := NewScheduler(1, true)
	if got := s.Pick(nil, time.Now()); got != "" {
		t.Fatalf("Pick(no candidates) = %q", got)
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func() []string {
		s := NewScheduler(99, true)
		now := time.Unix(0, 0)
		s.Report("a", 1, now)
		s.Report("b", 2, now)
		s.Report("c", 3, now)
		var picks []string
		for i := 0; i < 50; i++ {
			picks = append(picks, s.Pick([]string{"a", "b", "c"}, now))
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at pick %d", i)
		}
	}
}
