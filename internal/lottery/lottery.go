// Package lottery implements the front ends' worker-selection policy:
// lottery scheduling (Waldspurger & Weihl, cited in §3.1.2) over
// tickets derived from cached, slightly stale load reports, plus the
// queue-delta estimator from §4.5 that eliminated the load
// oscillations caused by that staleness.
package lottery

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Pick draws a winner index proportional to tickets. Entries with
// non-positive tickets are treated as holding one ticket so no live
// worker is ever starved. It returns -1 for an empty slice.
func Pick(rng *rand.Rand, tickets []float64) int {
	if len(tickets) == 0 {
		return -1
	}
	total := 0.0
	for _, t := range tickets {
		if t <= 0 {
			t = 1
		}
		total += t
	}
	draw := rng.Float64() * total
	acc := 0.0
	for i, t := range tickets {
		if t <= 0 {
			t = 1
		}
		acc += t
		if draw < acc {
			return i
		}
	}
	return len(tickets) - 1
}

// TicketsFromQueue converts an estimated queue length into tickets:
// shorter queues get more tickets. The +1 keeps tickets finite for
// idle workers; negative estimates clamp to zero load.
func TicketsFromQueue(estimatedQueue float64) float64 {
	if estimatedQueue < 0 {
		estimatedQueue = 0
	}
	return 1 / (1 + estimatedQueue)
}

// Estimator tracks one worker's queue length between load reports.
//
// The naive approach — use the last reported queue length until the
// next report — caused rapid oscillation (§4.5): every front end
// dumped its traffic on whichever worker last reported the shortest
// queue. The repair keeps (a) a rate-of-change estimate from the last
// two reports and (b) a count of tasks this front end dispatched since
// the last report, and extrapolates.
type Estimator struct {
	mu sync.Mutex

	lastQueue  float64
	lastReport time.Time
	rate       float64 // queue-length change per second
	dispatched float64 // local sends since last report
	reports    int
}

// Report records a fresh load report at time now.
func (e *Estimator) Report(queue float64, now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.reports > 0 {
		dt := now.Sub(e.lastReport).Seconds()
		if dt > 0 {
			e.rate = (queue - e.lastQueue) / dt
		}
	}
	e.lastQueue = queue
	e.lastReport = now
	e.dispatched = 0
	e.reports++
}

// Dispatched notes that this front end sent one task to the worker.
func (e *Estimator) Dispatched() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dispatched++
}

// Estimate extrapolates the worker's queue length at time now.
// With useDelta false it returns the raw last report (the pre-fix
// behaviour, kept for the §4.5 ablation).
func (e *Estimator) Estimate(now time.Time, useDelta bool) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.reports == 0 {
		return 0
	}
	if !useDelta {
		return e.lastQueue
	}
	dt := now.Sub(e.lastReport).Seconds()
	if dt < 0 {
		dt = 0
	}
	est := e.lastQueue + e.rate*dt + e.dispatched
	if est < 0 || math.IsNaN(est) {
		est = 0
	}
	return est
}

// Scheduler selects among a set of workers by lottery over estimated
// queue lengths. It is the manager-stub-side policy object shared by
// the live front end and the discrete-event model.
type Scheduler struct {
	UseDelta bool // queue-delta extrapolation on (the §4.5 fix)

	mu         sync.Mutex
	rng        *rand.Rand
	estimators map[string]*Estimator
}

// NewScheduler creates a scheduler with a deterministic random stream.
func NewScheduler(seed int64, useDelta bool) *Scheduler {
	return &Scheduler{
		UseDelta:   useDelta,
		rng:        rand.New(rand.NewSource(seed)),
		estimators: make(map[string]*Estimator),
	}
}

// Report records a load report for a worker.
func (s *Scheduler) Report(worker string, queue float64, now time.Time) {
	s.estimator(worker).Report(queue, now)
}

// Forget drops a worker (it de-registered or was reported dead).
func (s *Scheduler) Forget(worker string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.estimators, worker)
}

// Estimate returns the current queue estimate for one worker.
func (s *Scheduler) Estimate(worker string, now time.Time) float64 {
	return s.estimator(worker).Estimate(now, s.UseDelta)
}

// Pick selects one of the candidate workers by lottery and records the
// dispatch against its estimator. It returns "" for no candidates.
func (s *Scheduler) Pick(candidates []string, now time.Time) string {
	if len(candidates) == 0 {
		return ""
	}
	tickets := make([]float64, len(candidates))
	for i, w := range candidates {
		tickets[i] = TicketsFromQueue(s.estimator(w).Estimate(now, s.UseDelta))
	}
	s.mu.Lock()
	idx := Pick(s.rng, tickets)
	s.mu.Unlock()
	winner := candidates[idx]
	s.estimator(winner).Dispatched()
	return winner
}

func (s *Scheduler) estimator(worker string) *Estimator {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.estimators[worker]
	if !ok {
		e = &Estimator{}
		s.estimators[worker] = e
	}
	return e
}
