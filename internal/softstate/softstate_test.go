package softstate

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// fakeClock is a manually advanced clock for TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func TestTableExpiry(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	tb := NewTable[string](time.Second, fc.Now)
	tb.Put("w1", "distiller")
	if v, ok := tb.Get("w1"); !ok || v != "distiller" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	fc.Advance(999 * time.Millisecond)
	if _, ok := tb.Get("w1"); !ok {
		t.Fatal("entry expired early")
	}
	if tb.Put("w1", "distiller") {
		t.Fatal("a refresh of a live entry reported it new")
	}
	fc.Advance(1001 * time.Millisecond)
	if _, ok := tb.Get("w1"); ok {
		t.Fatal("entry survived past TTL")
	}
	if !tb.Put("w1", "distiller") {
		t.Fatal("an entry back after expiring was not reported new")
	}
}

// TestScheduleGaps: an announcement at once, then 5 ms, doubling to the
// interval and holding there — for an interval on the doubling ladder
// and one off it.
func TestScheduleGaps(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		interval time.Duration
		want     []time.Duration
	}{
		{500 * ms, []time.Duration{0, 5 * ms, 10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 320 * ms, 500 * ms, 500 * ms, 500 * ms}},
		{20 * ms, []time.Duration{0, 5 * ms, 10 * ms, 20 * ms, 20 * ms}},
		{3 * ms, []time.Duration{0, 3 * ms, 3 * ms}},
	} {
		for n, want := range tc.want {
			if got := Gap(n, tc.interval); got != want {
				t.Errorf("Gap(%d, %v) = %v, want %v", n, tc.interval, got, want)
			}
		}
		if got := Gap(1<<30, tc.interval); got != tc.interval {
			t.Errorf("Gap(1<<30, %v) = %v, want the interval", tc.interval, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSchedule(0) built a schedule: every announcer has an interval")
		}
	}()
	NewSchedule(0)
}

func TestTableRefresh(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	tb := NewTable[int](time.Second, fc.Now)
	tb.Put("k", 1)
	for i := 0; i < 5; i++ {
		fc.Advance(900 * time.Millisecond)
		if tb.Put("k", 1) {
			t.Fatalf("refresh %d found the entry expired", i)
		}
	}
	if _, ok := tb.Get("k"); !ok {
		t.Fatal("refreshed entry expired")
	}
	fc.Advance(1100 * time.Millisecond)
	if _, ok := tb.Get("k"); ok {
		t.Fatal("entry outlived its TTL")
	}
}

func TestTableExpiredReporting(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	tb := NewTable[int](time.Second, fc.Now)
	tb.Put("a", 1)
	tb.Put("b", 2)
	fc.Advance(500 * time.Millisecond)
	tb.Put("c", 3)
	fc.Advance(600 * time.Millisecond)
	gone := tb.Expired()
	if len(gone) != 2 {
		t.Fatalf("Expired = %v, want a and b", gone)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tb.Len())
	}
	if snap := tb.Snapshot(); len(snap) != 1 || snap["c"] != 3 {
		t.Fatalf("Snapshot = %v", snap)
	}
}

func TestTableDelete(t *testing.T) {
	tb := NewTable[int](time.Hour, nil)
	tb.Put("k", 1)
	tb.Delete("k")
	if _, ok := tb.Get("k"); ok {
		t.Fatal("deleted entry still present")
	}
}

func TestTableConcurrency(t *testing.T) {
	tb := NewTable[int](time.Hour, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := string(rune('a' + g))
			for i := 0; i < 1000; i++ {
				tb.Put(key, i)
				tb.Get(key)
			}
		}()
	}
	wg.Wait()
	if tb.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tb.Len())
	}
}

func TestWatchdogFiresOnSilence(t *testing.T) {
	var fired atomic.Int32
	w := &Watchdog{
		Timeout:   20 * time.Millisecond,
		OnSilence: func(n int) { fired.Add(1) },
	}
	w.Start()
	defer w.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for fired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fired.Load() == 0 {
		t.Fatal("watchdog never fired")
	}
}

func TestWatchdogFedStaysQuiet(t *testing.T) {
	var fired atomic.Int32
	w := &Watchdog{
		Timeout:   50 * time.Millisecond,
		OnSilence: func(n int) { fired.Add(1) },
	}
	w.Start()
	defer w.Stop()
	for i := 0; i < 10; i++ {
		time.Sleep(10 * time.Millisecond)
		w.Feed()
	}
	if fired.Load() != 0 {
		t.Fatalf("watchdog fired %d times while fed", fired.Load())
	}
}

func TestWatchdogCountsConsecutiveSilences(t *testing.T) {
	counts := make(chan int, 16)
	w := &Watchdog{
		Timeout:   10 * time.Millisecond,
		OnSilence: func(n int) { counts <- n },
	}
	w.Start()
	defer w.Stop()
	first := <-counts
	second := <-counts
	if first != 1 || second != 2 {
		t.Fatalf("silence counts = %d, %d; want 1, 2", first, second)
	}
}

func TestWatchdogStop(t *testing.T) {
	var fired atomic.Int32
	w := &Watchdog{Timeout: 10 * time.Millisecond, OnSilence: func(int) { fired.Add(1) }}
	w.Start()
	w.Stop()
	time.Sleep(50 * time.Millisecond)
	if fired.Load() != 0 {
		t.Fatal("stopped watchdog fired")
	}
	// Feed after stop is a no-op, not a crash.
	w.Feed()
}

func TestMovingAverageFirstSample(t *testing.T) {
	m := &MovingAverage{Alpha: 0.5}
	if got := m.Add(10); got != 10 {
		t.Fatalf("first sample average = %v, want 10", got)
	}
	if got := m.Add(0); got != 5 {
		t.Fatalf("second average = %v, want 5", got)
	}
	if m.Samples() != 2 {
		t.Fatalf("Samples = %d", m.Samples())
	}
}

func TestMovingAverageBounds(t *testing.T) {
	// Property: the average always stays within [min, max] of inputs.
	check := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		m := &MovingAverage{Alpha: 0.3}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			// Constrain inputs to a sane range.
			if x != x || x > 1e12 || x < -1e12 {
				x = 0
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			v := m.Add(x)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMovingAverageDefaultAlpha(t *testing.T) {
	m := &MovingAverage{} // Alpha 0 -> default
	m.Add(10)
	v := m.Add(20)
	if v <= 10 || v >= 20 {
		t.Fatalf("average with default alpha = %v", v)
	}
	if m.Value() != v {
		t.Fatal("Value mismatch")
	}
}

// TestReadsDoNotConsumeExpiry is the regression test for the stolen
// front-end restart: a status poller calling Len/Snapshot/Get around
// the moment an entry expires must not eat the
// expiry event — Expired() is the single consumer, and the policy
// loop acting on it must still see the key.
func TestReadsDoNotConsumeExpiry(t *testing.T) {
	fc := &fakeClock{now: time.Unix(0, 0)}
	tb := NewTable[string](time.Second, fc.Now)
	tb.Put("fe0", "heartbeat")
	fc.Advance(2 * time.Second)

	// Observer reads: the entry is invisible...
	if tb.Len() != 0 {
		t.Fatalf("Len = %d, want 0 after expiry", tb.Len())
	}
	if snap := tb.Snapshot(); len(snap) != 0 {
		t.Fatalf("Snapshot = %v, want empty", snap)
	}
	if _, ok := tb.Get("fe0"); ok {
		t.Fatal("Get returned an expired entry")
	}
	// ...but the expiry event is still deliverable exactly once.
	if gone := tb.Expired(); len(gone) != 1 || gone[0] != "fe0" {
		t.Fatalf("Expired = %v, want [fe0] (reads must not consume expiry)", gone)
	}
	if gone := tb.Expired(); len(gone) != 0 {
		t.Fatalf("second Expired = %v, want empty", gone)
	}
}
