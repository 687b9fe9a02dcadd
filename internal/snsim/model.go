// Package snsim is a discrete-event model of a TranSend deployment,
// used to regenerate the paper's long-horizon experiments (Figure 8's
// 400-second self-tuning run, Table 2's scalability sweep, the §4.4
// cache numbers, the §4.5 oscillation ablation and the §4.6 SAN
// saturation study) deterministically and in milliseconds of wall
// time.
//
// The model shares its *policy* code with the live system — the
// lottery scheduler and queue-delta estimator (internal/lottery), the
// manager's spawn/reap policy (internal/manager.Policy), and the
// moving-average load synthesis (internal/softstate) — so the two
// implementations cannot drift apart on the decisions that matter.
// Only the mechanics (queues, service times, link capacities) are
// simulated.
package snsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/lottery"
	"repro/internal/manager"
	"repro/internal/sim"
	"repro/internal/softstate"
)

// Params configures the model. Defaults reproduce the paper's
// calibration:
//
//   - JPEG distillation ≈43 ms for the 10 KB experiment objects
//     (≈23 req/s per distiller, Table 2),
//   - GIF distillation 8 ms/KB (Figure 7),
//   - cache hits 15 ms fixed + Exp(12 ms) (mean 27 ms, 95% < 100 ms,
//     ≈37 req/s per partition, §4.4),
//   - miss penalty lognormal clamped to [0.1 s, 100 s] (§4.4),
//   - front-end edge capacity ≈75 req/s (Table 2's "FE Ethernet"
//     saturating between 73 and 87 req/s).
type Params struct {
	Seed int64

	// Workload.
	Rate    func(t time.Duration) float64 // offered load, req/s (thinned against maxRate)
	SizeKB  func(rng *rand.Rand) float64  // object size (default fixed 10 KB)
	HitRate float64                       // cache hit probability (default 1: Table 2 methodology)

	// Service times.
	DistillMsPerKB float64 // default 4.3 (SJPG)
	DistillNoise   float64 // lognormal sigma on distillation time (default 0.2)

	// Topology.
	FrontEnds      int     // initial (default 1)
	Distillers     int     // initial (default 1)
	FECapacity     float64 // req/s per front end (default 75)
	DedicatedNodes int     // distiller slots before overflow (default 10)

	// Control plane.
	BeaconInterval time.Duration // beacons and load reports alike (default 500 ms)
	SpawnDelay     time.Duration // new-distiller startup (default 700 ms)
	Policy         manager.Policy
	UseDelta       bool // §4.5 estimator (default set by callers)
	BalkLimit      int  // distiller queue bound before drops (default 2000)

	// SAN model (§4.6): control traffic shares the SAN with data;
	// when utilization exceeds 1, multicast control messages drop
	// proportionally. ControlIsolated models the proposed utility
	// network (control unaffected by data).
	SANCapacityMbps float64 // 0 = infinite
	ControlIsolated bool

	// SampleInterval for time series (default 1 s).
	SampleInterval time.Duration
}

// The parts of the model no experiment varies: the arrival thinning
// bound, the §4.4 cache hit service time (15 ms fixed + Exp(12 ms)) and
// the cache partition count.
const (
	maxRate      = 200.0
	cacheFixedMs = 15.0
	cacheExpMs   = 12.0
	cacheParts   = 4
)

func (p Params) withDefaults() Params {
	if p.Rate == nil {
		p.Rate = func(time.Duration) float64 { return 10 }
	}
	if p.SizeKB == nil {
		p.SizeKB = func(*rand.Rand) float64 { return 10 }
	}
	if p.HitRate == 0 {
		p.HitRate = 1
	}
	if p.DistillMsPerKB == 0 {
		p.DistillMsPerKB = 4.3
	}
	if p.DistillNoise == 0 {
		p.DistillNoise = 0.2
	}
	if p.FrontEnds <= 0 {
		p.FrontEnds = 1
	}
	if p.Distillers <= 0 {
		p.Distillers = 1
	}
	if p.FECapacity <= 0 {
		p.FECapacity = 75
	}
	if p.DedicatedNodes <= 0 {
		p.DedicatedNodes = 10
	}
	if p.BeaconInterval <= 0 {
		p.BeaconInterval = 500 * time.Millisecond
	}
	if p.SpawnDelay <= 0 {
		p.SpawnDelay = 700 * time.Millisecond
	}
	if p.Policy == (manager.Policy{}) {
		p.Policy = manager.DefaultPolicy()
	}
	if p.BalkLimit <= 0 {
		p.BalkLimit = 2000
	}
	if p.SampleInterval <= 0 {
		p.SampleInterval = time.Second
	}
	return p
}

// request is one in-flight request.
type request struct {
	arrived time.Duration
	sizeKB  float64
	fe      int // index of the front end that admitted it
}

// station is a FIFO single-server queue with utilization accounting.
type station struct {
	m        *Model
	name     string
	queue    []*request
	busy     bool
	busyTime time.Duration
	served   uint64
	service  func(r *request) time.Duration
	done     func(r *request)
}

func (s *station) qlen() int {
	n := len(s.queue)
	if s.busy {
		n++
	}
	return n
}

func (s *station) submit(r *request) {
	s.queue = append(s.queue, r)
	if !s.busy {
		s.startNext()
	}
}

func (s *station) startNext() {
	if len(s.queue) == 0 {
		s.busy = false
		return
	}
	r := s.queue[0]
	s.queue = s.queue[1:]
	s.busy = true
	d := s.service(r)
	s.busyTime += d
	s.m.eng.After(d, func() {
		s.served++
		s.done(r)
		s.startNext()
	})
}

// distiller is a distillation worker in the model.
type distiller struct {
	id       int
	st       *station
	overflow bool
	alive    bool
	avg      *softstate.MovingAverage // manager-side WMA of reports
}

// Sample is one point of the recorded time series.
type Sample struct {
	T           time.Duration
	Offered     float64 // instantaneous offered rate
	QueueLens   map[int]int
	NDistillers int
	Completed   uint64
	Dropped     uint64
}

// SpawnEvent records an autoscaling action.
type SpawnEvent struct {
	T        time.Duration
	ID       int
	Overflow bool
	Reason   string
}

// RunStats summarizes a run.
type RunStats struct {
	Completed   uint64
	Dropped     uint64
	Timeouts    uint64
	Latencies   []float64 // seconds
	Latency     sim.Welford
	FEUtil      []float64 // per front end
	CacheUtil   []float64
	BeaconsSent uint64
	BeaconsLost uint64
}

// Model is the discrete-event system.
type Model struct {
	p   Params
	eng *sim.Engine

	arrRng *rand.Rand
	svcRng *rand.Rand
	misRng *rand.Rand
	sanRng *rand.Rand
	missMu float64

	fes    []*station
	caches []*station
	dists  []*distiller
	nextID int
	feRR   int

	scheds    []*lottery.Scheduler // one per front end: each FE has its own manager stub
	lastSpawn time.Duration
	spawning  bool
	// feKnown tracks which distillers the front ends have learned
	// about from a successfully delivered beacon — the manager-stub
	// location cache. A freshly spawned distiller receives no
	// traffic until a beacon carrying it gets through, which is how
	// SAN saturation cripples scaling (§4.6).
	feKnown map[int]bool

	stats     RunStats
	samples   []Sample
	spawns    []SpawnEvent
	dataBytes float64 // bytes moved in the current control window
	ctrlDrop  float64 // current control-drop probability
}

// New builds a model.
func New(p Params) *Model {
	p = p.withDefaults()
	m := &Model{
		p:      p,
		eng:    sim.New(p.Seed),
		missMu: 0, // lognormal mu for the miss penalty (median 1 s)
	}
	m.feKnown = make(map[int]bool)
	m.arrRng = m.eng.NewStream("arrivals")
	m.svcRng = m.eng.NewStream("service")
	m.misRng = m.eng.NewStream("miss")
	m.sanRng = m.eng.NewStream("san")
	m.lastSpawn = -p.Policy.Damping // allow an immediate first spawn

	for i := 0; i < p.FrontEnds; i++ {
		m.addFrontEnd()
	}
	for i := 0; i < cacheParts; i++ {
		m.addCachePart()
	}
	for i := 0; i < p.Distillers; i++ {
		d := m.spawnDistiller(false, "initial")
		m.feKnown[d.id] = true // learned during deployment
	}

	// Control plane.
	m.eng.Every(p.BeaconInterval, p.BeaconInterval, m.managerCollect)
	m.eng.Every(p.BeaconInterval, p.BeaconInterval, m.managerBeacon)
	m.eng.Every(0, p.SampleInterval, m.sample)
	m.scheduleNextArrival()
	return m
}

// vnow maps virtual time onto the wall-clock type the shared policy
// code expects.
func (m *Model) vnow() time.Time { return time.Unix(0, 0).Add(m.eng.Now()) }

// Engine exposes the underlying simulator (for scheduling external
// events like scripted kills).
func (m *Model) Engine() *sim.Engine { return m.eng }

// At schedules an external event.
func (m *Model) At(t time.Duration, fn func()) { m.eng.At(t, fn) }

// Run advances the simulation to time t.
func (m *Model) Run(until time.Duration) { m.eng.RunUntil(until) }

// Samples returns the recorded time series.
func (m *Model) Samples() []Sample { return m.samples }

// Spawns returns autoscaling events.
func (m *Model) Spawns() []SpawnEvent { return m.spawns }

// Stats returns run statistics; utilizations are computed against the
// current virtual time.
func (m *Model) Stats() RunStats {
	st := m.stats
	elapsed := m.eng.Now()
	if elapsed <= 0 {
		return st
	}
	for _, fe := range m.fes {
		st.FEUtil = append(st.FEUtil, float64(fe.busyTime)/float64(elapsed))
	}
	for _, c := range m.caches {
		st.CacheUtil = append(st.CacheUtil, float64(c.busyTime)/float64(elapsed))
	}
	return st
}

// Distillers returns the live distiller count.
func (m *Model) Distillers() int {
	n := 0
	for _, d := range m.dists {
		if d.alive {
			n++
		}
	}
	return n
}

// FrontEnds returns the front-end count.
func (m *Model) FrontEnds() int { return len(m.fes) }

// AddFrontEnd adds a front end mid-run (the Table 2 manual step).
func (m *Model) AddFrontEnd() { m.addFrontEnd() }

func (m *Model) addFrontEnd() {
	m.scheds = append(m.scheds, lottery.NewScheduler(m.p.Seed+int64(len(m.scheds)), m.p.UseDelta))
	fe := &station{
		m:    m,
		name: fmt.Sprintf("fe%d", len(m.fes)),
		service: func(r *request) time.Duration {
			// Deterministic per-request connection cost: the edge
			// handles FECapacity req/s.
			return time.Duration(float64(time.Second) / m.p.FECapacity)
		},
	}
	fe.done = func(r *request) { m.afterFE(r) }
	m.fes = append(m.fes, fe)
}

func (m *Model) addCachePart() {
	c := &station{
		m:    m,
		name: fmt.Sprintf("cache%d", len(m.caches)),
		service: func(r *request) time.Duration {
			ms := cacheFixedMs + sim.Exp(m.svcRng, cacheExpMs)
			return time.Duration(ms * float64(time.Millisecond))
		},
	}
	c.done = func(r *request) { m.afterCache(r) }
	m.caches = append(m.caches, c)
}

// spawnDistiller creates a distiller; overflow marks it as running on
// a recruited overflow node.
func (m *Model) spawnDistiller(overflow bool, reason string) *distiller {
	d := &distiller{
		id:       m.nextID,
		overflow: overflow,
		alive:    true,
		avg:      &softstate.MovingAverage{Alpha: 0.3},
	}
	m.nextID++
	d.st = &station{
		m:    m,
		name: fmt.Sprintf("distiller%d", d.id),
		service: func(r *request) time.Duration {
			ms := m.p.DistillMsPerKB * r.sizeKB
			if m.p.DistillNoise > 0 {
				ms *= sim.LogNormal(m.svcRng, -m.p.DistillNoise*m.p.DistillNoise/2, m.p.DistillNoise)
			}
			return time.Duration(ms * float64(time.Millisecond))
		},
	}
	d.st.done = func(r *request) { m.complete(r) }
	m.dists = append(m.dists, d)
	m.spawns = append(m.spawns, SpawnEvent{T: m.eng.Now(), ID: d.id, Overflow: overflow, Reason: reason})
	m.lastSpawn = m.eng.Now()
	return d
}

// KillDistiller crashes the distiller with the given index in the
// spawn order (Figure 8's manual kills). Queued requests are lost —
// their clients time out and retry is not modelled (the paper counts
// these as timeouts).
func (m *Model) KillDistiller(idx int) {
	if idx < 0 || idx >= len(m.dists) {
		return
	}
	d := m.dists[idx]
	if !d.alive {
		return
	}
	d.alive = false
	delete(m.feKnown, d.id)
	m.stats.Timeouts += uint64(d.st.qlen())
	d.st.queue = nil
	for _, sched := range m.scheds {
		sched.Forget(fmt.Sprintf("d%d", d.id))
	}
}

// scheduleNextArrival draws the next arrival by Poisson thinning.
func (m *Model) scheduleNextArrival() {
	dt := m.arrRng.ExpFloat64() / maxRate
	m.eng.After(time.Duration(dt*float64(time.Second)), func() {
		rate := m.p.Rate(m.eng.Now())
		if rate > maxRate {
			rate = maxRate
		}
		if rate > 0 && m.arrRng.Float64() < rate/maxRate {
			m.arrive()
		}
		m.scheduleNextArrival()
	})
}

func (m *Model) arrive() {
	idx := m.feRR % len(m.fes)
	m.feRR++
	r := &request{arrived: m.eng.Now(), sizeKB: m.p.SizeKB(m.svcRng), fe: idx}
	m.fes[idx].submit(r)
}

// afterFE routes a request from the front end to the cache stage.
func (m *Model) afterFE(r *request) {
	// SAN legs per request: FE<->cache fetch and FE<->distiller
	// round trip (the client-side legs ride the FE's own segment).
	m.dataBytes += r.sizeKB * 1024 * 4
	if m.svcRng.Float64() < m.p.HitRate {
		c := m.caches[int(r.arrived)%len(m.caches)]
		c.submit(r)
		return
	}
	// Miss: pay the origin penalty (no queueing — the bottleneck is
	// the wide area, not a local resource), then distill.
	penalty := sim.Clamp(sim.LogNormal(m.misRng, m.missMu, 1.5), 0.1, 100)
	m.eng.After(sim.Seconds(penalty), func() { m.afterCache(r) })
}

// afterCache routes to a distiller.
func (m *Model) afterCache(r *request) {
	var ids []string
	live := make(map[string]*distiller)
	for _, d := range m.dists {
		if d.alive && m.feKnown[d.id] {
			key := fmt.Sprintf("d%d", d.id)
			ids = append(ids, key)
			live[key] = d
		}
	}
	if len(ids) == 0 {
		m.stats.Dropped++
		return
	}
	sched := m.scheds[r.fe%len(m.scheds)]
	pick := sched.Pick(ids, m.vnow())
	d := live[pick]
	if d.st.qlen() >= m.p.BalkLimit {
		m.stats.Dropped++
		return
	}
	d.st.submit(r)
}

func (m *Model) complete(r *request) {
	lat := (m.eng.Now() - r.arrived).Seconds()
	m.stats.Completed++
	m.stats.Latency.Add(lat)
	m.stats.Latencies = append(m.stats.Latencies, lat)
}

// managerCollect is the report path: each live distiller reports its
// queue length; the manager folds it into a moving average. Reports
// are multicast-free (point to point) but still subject to SAN loss.
func (m *Model) managerCollect() {
	m.updateSANDrop()
	for _, d := range m.dists {
		if !d.alive {
			continue
		}
		if m.ctrlDrop > 0 && m.sanRng.Float64() < m.ctrlDrop {
			continue // report lost to SAN saturation
		}
		d.avg.Add(float64(d.st.qlen()))
	}
}

// managerBeacon is the beacon path: load hints reach the front ends'
// scheduler (possibly dropped under saturation), and the spawn/reap
// policy runs.
func (m *Model) managerBeacon() {
	m.stats.BeaconsSent++
	dropped := m.ctrlDrop > 0 && m.sanRng.Float64() < m.ctrlDrop
	if dropped {
		m.stats.BeaconsLost++
	} else {
		now := m.vnow()
		for _, d := range m.dists {
			if d.alive {
				m.feKnown[d.id] = true
				for _, sched := range m.scheds {
					sched.Report(fmt.Sprintf("d%d", d.id), d.avg.Value(), now)
				}
			}
		}
	}

	// Spawn/reap policy (shared with the live manager).
	classAvg, count, overflowCount := 0.0, 0, 0
	var reapCandidate *distiller
	for _, d := range m.dists {
		if !d.alive {
			continue
		}
		classAvg += d.avg.Value()
		count++
		if d.overflow {
			overflowCount++
			reapCandidate = d
		}
	}
	if count > 0 {
		classAvg /= float64(count)
	}
	now := time.Unix(0, 0).Add(m.lastSpawn)
	vnow := m.vnow()
	if !m.spawning && m.p.Policy.ShouldSpawn(classAvg, vnow, now) {
		m.spawning = true
		m.lastSpawn = m.eng.Now() // damp immediately at decision time
		overflow := count >= m.p.DedicatedNodes
		m.eng.After(m.p.SpawnDelay, func() {
			m.spawning = false
			m.spawnDistiller(overflow, "load threshold")
		})
	}
	if overflowCount > 0 && m.p.Policy.ShouldReap(classAvg, count, vnow, now) {
		reapCandidate.alive = false
		delete(m.feKnown, reapCandidate.id)
		for _, sched := range m.scheds {
			sched.Forget(fmt.Sprintf("d%d", reapCandidate.id))
		}
		// Queued work on a reaped worker drains first in a real
		// shutdown; model that by completing it instantly at the
		// mean service time cost already accounted.
		for _, r := range reapCandidate.st.queue {
			m.complete(r)
		}
		reapCandidate.st.queue = nil
	}
}

// updateSANDrop recomputes the control-loss probability from the data
// traffic of the last control window (§4.6: data saturating the SAN
// starves the unreliable multicast control channel).
func (m *Model) updateSANDrop() {
	if m.p.SANCapacityMbps <= 0 || m.p.ControlIsolated {
		m.ctrlDrop = 0
		m.dataBytes = 0
		return
	}
	window := m.p.BeaconInterval.Seconds()
	offeredMbps := m.dataBytes * 8 / 1e6 / window
	m.dataBytes = 0
	util := offeredMbps / m.p.SANCapacityMbps
	if util <= 1 {
		m.ctrlDrop = 0
		return
	}
	m.ctrlDrop = 1 - 1/util
}

func (m *Model) sample() {
	qs := make(map[int]int)
	for _, d := range m.dists {
		if d.alive {
			qs[d.id] = d.st.qlen()
		}
	}
	m.samples = append(m.samples, Sample{
		T:           m.eng.Now(),
		Offered:     m.p.Rate(m.eng.Now()),
		QueueLens:   qs,
		NDistillers: len(qs),
		Completed:   m.stats.Completed,
		Dropped:     m.stats.Dropped,
	})
}
