// Package softstate provides the BASE building blocks the paper's SNS
// layer is made of (§1.4, §2.2.4, §3.1.3): TTL tables whose entries
// are kept alive by periodic beacons and silently expire otherwise,
// and process-peer watchdogs that infer failure from silence and
// restart their peer rather than mirror its state.
//
// Nothing here is durable and nothing needs crash recovery: a restarted
// component simply rebuilds its tables from the next few beacons,
// which is precisely the simplification BASE buys over the original
// process-pair/hard-state manager prototype described in §3.1.3.
//
// Every soft-state period and silence timeout is a whole number of Beats
// of one interval, the network's beacon interval (san.WithBeacon); the
// table below is the only place a multiple is written. Every announcer
// that keeps such a table alive — the manager's beacon, a supervisor's
// hello, every other component's member announcement — is paced by one
// Schedule: at once, then 5 ms later, the gap doubling up to the
// interval. The interval bounds staleness, not how long a newcomer
// waits to be heard.
package softstate

import (
	"sync"
	"time"
)

// Beats counts beacon intervals.
type Beats int

// Of is b intervals of beacon.
func (b Beats) Of(beacon time.Duration) time.Duration { return time.Duration(b) * beacon }

// The cadence of an SNS (§3.1.3): components announce once a beat, and
// a peer infers a death from this many beats of silence.
const (
	// Announce paces every announcer: the manager's beacon, supervisor
	// hellos, the announcements of front ends, workers and caches, and
	// the span reporter's digests.
	Announce Beats = 1
	// WorkerTTL is the manager's bound on a worker's silence ("timeouts
	// are used as a backup mechanism to infer failures").
	WorkerTTL Beats = 5
	// MemberTTL is the manager's bound on a front end's or a
	// supervisor's silence.
	MemberTTL Beats = 6
	// CacheTTL is the manager's bound on a cache partition's silence,
	// unless the deployment sets its own (core.Config.CacheSuperviseTTL).
	CacheTTL Beats = 5
	// Takeover is how long a standby manager waits without a primary's
	// beacon before it claims the primacy (plus one beat per rank), and
	// how long a worker may go unbeaconed before its restart moves it.
	Takeover Beats = 3
	// StubWorkerTTL is how long a front end keeps its worker table
	// without a beacon: generous, so the table carries it through a
	// manager crash (§3.1.8 "stale load balancing data").
	StubWorkerTTL Beats = 20
	// ManagerSilence is the front end's process-peer watchdog on the
	// manager.
	ManagerSilence Beats = 5
	// MonitorSilence marks a component silent at the monitor.
	MonitorSilence Beats = 4
	// EdgePoolTTL is how long the edge keeps a front end that stopped
	// announcing, never less than EdgePoolFloor: a killed front end's
	// (ejected) slot must outlive its respawn, a wall-clock window
	// (detection sweep plus spawn) however fast the beat, so the
	// half-open probe gets to readmit it.
	EdgePoolTTL Beats = 20
	// EdgeProbe is how long an ejected front end rests before the edge
	// risks one probe request on it.
	EdgeProbe Beats = 2
)

// EdgePoolFloor is EdgePoolTTL's wall-clock minimum.
const EdgePoolFloor = 2 * time.Second

// Clock abstracts time for tests. The zero value of components uses
// real time.
type Clock func() time.Time

func (c Clock) now() time.Time {
	if c == nil {
		return time.Now()
	}
	return c()
}

// Entry is a soft-state record with its refresh metadata.
type Entry[V any] struct {
	Value     V
	Refreshed time.Time
}

// Table is a TTL-expiring map: entries must be refreshed via Put
// before TTL elapses or they vanish. It is safe for concurrent use.
//
// Reads (Get, Len, Snapshot) are non-destructive: they filter expired
// entries out of their results but never remove them, so Expired()
// remains the single consumer of expiry events. A monitoring loop
// polling Len or Snapshot concurrently with a policy loop acting on
// Expired() can never steal an expiry notification from it — the race
// that once left a crashed front end unrestarted because a status
// poller pruned its just-expired heartbeat entry first.
type Table[V any] struct {
	ttl   time.Duration
	clock Clock

	mu sync.Mutex
	m  map[string]Entry[V]
}

// NewTable creates a table whose entries expire ttl after their last
// refresh. A nil clock uses real time.
func NewTable[V any](ttl time.Duration, clock Clock) *Table[V] {
	if ttl <= 0 {
		panic("softstate: ttl must be positive")
	}
	return &Table[V]{ttl: ttl, clock: clock, m: make(map[string]Entry[V])}
}

// TTL returns how long an entry lives without a refresh.
func (t *Table[V]) TTL() time.Duration { return t.ttl }

// Put inserts or refreshes an entry. It reports whether the key was
// new to the table: absent, or present but expired.
func (t *Table[V]) Put(key string, v V) (fresh bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[key]
	fresh = !ok || t.expired(e)
	t.m[key] = Entry[V]{Value: v, Refreshed: t.clock.now()}
	return fresh
}

// Get returns a live entry's value. An expired entry reads as absent
// but is left in place for Expired() to collect.
func (t *Table[V]) Get(key string) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[key]
	if !ok || t.expired(e) {
		var zero V
		return zero, false
	}
	return e.Value, true
}

// Delete removes an entry immediately (explicit de-registration).
func (t *Table[V]) Delete(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, key)
}

// Len returns the number of live entries.
func (t *Table[V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.m {
		if !t.expired(e) {
			n++
		}
	}
	return n
}

// Snapshot returns all live entries.
func (t *Table[V]) Snapshot() map[string]V {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]V, len(t.m))
	for k, e := range t.m {
		if !t.expired(e) {
			out[k] = e.Value
		}
	}
	return out
}

// Expired returns the keys that just expired and removes them. Useful
// for components that need to act on expiry (e.g. the manager
// reporting a lost worker).
func (t *Table[V]) Expired() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var gone []string
	for k, e := range t.m {
		if t.expired(e) {
			gone = append(gone, k)
			delete(t.m, k)
		}
	}
	return gone
}

// ExpiredEntries removes and returns the entries that just expired,
// values included — for consumers whose expiry action needs more than
// the key (e.g. the manager resolving which process's supervisor owns
// a dead component from the heartbeat's Node field). Like Expired, it
// is a destructive read and must stay the table's single expiry
// consumer.
func (t *Table[V]) ExpiredEntries() map[string]V {
	t.mu.Lock()
	defer t.mu.Unlock()
	var gone map[string]V
	for k, e := range t.m {
		if t.expired(e) {
			if gone == nil {
				gone = make(map[string]V)
			}
			gone[k] = e.Value
			delete(t.m, k)
		}
	}
	return gone
}

func (t *Table[V]) expired(e Entry[V]) bool {
	return t.clock.now().Sub(e.Refreshed) > t.ttl
}

// Schedule paces one announcer: receive from C, announce, call Next.
// Steady-state traffic is one announcement per interval, as a ticker's.
type Schedule struct {
	C        <-chan time.Time
	timer    *time.Timer
	interval time.Duration
	n        int       // announcements made
	due      time.Time // when the latest was due
}

// NewSchedule returns a schedule whose first announcement is due now.
func NewSchedule(interval time.Duration) *Schedule {
	if interval <= 0 {
		panic("softstate: interval must be positive")
	}
	t := time.NewTimer(0)
	return &Schedule{C: t.C, timer: t, interval: interval, due: time.Now()}
}

// Next arms the schedule for the announcement after the one just made:
// one gap after the last was due, so time spent announcing does not slow
// the steady rate — or at once, by a schedule that fell behind.
func (s *Schedule) Next() {
	s.n++
	if s.due = s.due.Add(Gap(s.n, s.interval)); s.due.Before(time.Now()) {
		s.due = time.Now()
	}
	s.timer.Reset(time.Until(s.due))
}

// Stop releases the schedule's timer.
func (s *Schedule) Stop() { s.timer.Stop() }

// Gap is the wait before announcement n (counting from 0) of a schedule
// with the given interval: 0, 5 ms, 10 ms, 20 ms … doubling, capped at
// the interval.
func Gap(n int, interval time.Duration) time.Duration {
	g := time.Duration(0)
	for i := 0; i < n && g < interval; i++ {
		g = max(2*g, 5*time.Millisecond)
	}
	return min(g, interval)
}

// Watchdog implements process-peer fault tolerance (§2.2.4): it
// expects Feed to be called at least every Timeout (normally on every
// beacon from the watched peer); on silence it invokes OnSilence —
// typically "restart the peer" — then keeps watching. Unlike process
// pairs, the watchdog carries none of the peer's state.
type Watchdog struct {
	Timeout   time.Duration
	OnSilence func(silences int)

	mu       sync.Mutex
	timer    *time.Timer
	silences int
	stopped  bool
}

// Start arms the watchdog. It must be called before Feed.
func (w *Watchdog) Start() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timer != nil {
		return
	}
	w.stopped = false
	w.timer = time.AfterFunc(w.Timeout, w.fire)
}

// Feed resets the silence timer; call it whenever the peer shows life.
func (w *Watchdog) Feed() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timer == nil || w.stopped {
		return
	}
	w.silences = 0
	w.timer.Reset(w.Timeout)
}

// Stop disarms the watchdog.
func (w *Watchdog) Stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
}

func (w *Watchdog) fire() {
	w.mu.Lock()
	if w.stopped || w.timer == nil {
		w.mu.Unlock()
		return
	}
	w.silences++
	n := w.silences
	cb := w.OnSilence
	// Re-arm before invoking so a hung callback cannot disable
	// monitoring.
	w.timer.Reset(w.Timeout)
	w.mu.Unlock()
	if cb != nil {
		cb(n)
	}
}

// MovingAverage is the weighted (exponential) moving average the
// manager applies to worker load reports (§3.1.2): "computes weighted
// moving averages ... and piggybacks the resulting information on its
// beacons".
type MovingAverage struct {
	Alpha float64 // weight of the newest sample, in (0, 1]

	mu      sync.Mutex
	value   float64
	samples int
}

// Add incorporates a sample and returns the new average.
func (m *MovingAverage) Add(x float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	a := m.Alpha
	if a <= 0 || a > 1 {
		a = 0.3
	}
	if m.samples == 0 {
		m.value = x
	} else {
		m.value = a*x + (1-a)*m.value
	}
	m.samples++
	return m.value
}

// Value returns the current average (0 before any samples).
func (m *MovingAverage) Value() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.value
}

// Samples returns how many samples have been added.
func (m *MovingAverage) Samples() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.samples
}
