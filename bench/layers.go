package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/frontend"
	"repro/internal/manager"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/transport"
	"repro/internal/vcache"
)

// This file takes the per-layer counters: every package's exported
// Stats(), read before and after a loaded interval from outside the
// program. Timed per-layer numbers come from the traced run (peel.go).

// runtimeNames are the runtime/metrics samples behind the runtime.*
// layer, which separates system cost from Go runtime cost.
var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
	"/sched/goroutines:goroutines",
}

// snapshot is every counter the benchmark reads, at one instant. The
// two systems' SAN and bridge counters, and the front ends', are summed:
// the benchmark reports the service, not its halves.
type snapshot struct {
	edge    edge.Stats
	fe      frontend.Stats // summed over front ends
	feReqs  []uint64       // Requests per front end (edge balance)
	retries uint64         // manager-stub dispatch retries, all front ends
	stale   uint64         // stale-epoch beacons dropped, all front ends
	cache   vcache.Stats   // summed over partitions
	san     san.Stats      // both networks
	bridge  transport.Stats
	mgr     manager.Stats
	done    uint64 // tasks completed, all workers
	expired uint64 // tasks dropped unrun past their deadline, all workers
	rt      map[string]metrics.Value
}

func (c *cluster) snapshot(ctx context.Context) (snapshot, error) {
	s := snapshot{edge: c.a.Edge().Stats(), rt: map[string]metrics.Value{}}
	for _, fe := range c.a.FrontEnds() {
		st := fe.Stats()
		s.feReqs = append(s.feReqs, st.Requests)
		s.fe.Requests += st.Requests
		s.fe.CacheDistilled += st.CacheDistilled
		s.fe.OriginFetches += st.OriginFetches
		s.fe.Distilled += st.Distilled
		s.fe.PassedThrough += st.PassedThrough
		s.fe.Fallbacks += st.Fallbacks
		s.fe.Errors += st.Errors
		s.fe.CoalescedOrigin += st.CoalescedOrigin + st.CoalescedDistill
		s.fe.Shed += st.Shed
		s.fe.DegradedServes += st.DegradedServes
		s.fe.Expired += st.Expired
		ms := fe.ManagerStub().Stats()
		s.retries += ms.Retries
		s.stale += ms.StaleDrops
	}
	for _, sys := range []*core.System{c.a, c.b} {
		n, b := sys.Net.Stats(), sys.Bridge.Stats()
		s.san.Sent += n.Sent + n.McastSent
		s.san.Dropped += n.Dropped + n.McastDropped
		s.san.Bytes += n.Bytes
		s.san.WireErrors += n.WireErrors
		s.bridge.FramesOut += b.FramesOut
		s.bridge.Batches += b.Batches
		s.bridge.BytesOut += b.BytesOut
		s.bridge.Chunked += b.Chunked
		s.bridge.Reassembled += b.Reassembled
		s.bridge.Backpressure += b.Backpressure
		s.bridge.FrameErrors += b.FrameErrors
		s.bridge.Floods += b.Floods
		s.bridge.MaxQueued = max(s.bridge.MaxQueued, b.MaxQueued)
	}
	if m := c.b.Manager(); m != nil {
		s.mgr = m.Stats()
	}
	for _, id := range c.b.Workers() {
		if ws := c.b.WorkerStub(id); ws != nil {
			s.done += ws.TasksDone()
			s.expired += ws.ExpiredDrops()
		}
	}
	var err error
	if s.cache, err = c.cacheStats(ctx); err != nil {
		return s, err
	}
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, sm := range samples {
		s.rt[sm.Name] = sm.Value
	}
	return s, nil
}

// delta is a loaded interval seen through two snapshots.
type delta struct {
	s0, s1 snapshot
	n      float64 // correct responses completed in the interval
}

// since is a counter's growth over the interval.
func since(after, before uint64) float64 { return float64(after - before) }

// hitRate is the share of requests answered without an origin fetch —
// the request-level hit rate (a missed request costs the partitions
// two misses, so their own hits/(hits+misses) understates it).
func (d delta) hitRate() float64 {
	return 1 - ratio(since(d.s1.fe.OriginFetches, d.s0.fe.OriginFetches), since(d.s1.fe.Requests, d.s0.fe.Requests))
}

func (d delta) tasksDone() float64 { return since(d.s1.done, d.s0.done) }

func (d delta) chunkedPerReq() float64 {
	return ratio(since(d.s1.bridge.Chunked, d.s0.bridge.Chunked), d.n)
}

func (d delta) evictions() float64 { return since(d.s1.cache.Evictions, d.s0.cache.Evictions) }

func (d delta) restarts() float64 {
	r := func(m manager.Stats) uint64 { return m.FERestarts + m.CacheRestarts + m.Takeovers }
	return since(r(d.s1.mgr), r(d.s0.mgr))
}

// lateLimitUS is the open loop's lateness target (p99 of actual send
// minus due time). Missing it is a warning, not a failed gate: with the
// generator and the system sharing two cores the kernel alone delays a
// waking sender by a millisecond or two once in a hundred sends, and a
// timing condition must not flip `correct`.
const lateLimitUS = 1000

// gates checks the workload's isolation proof and the validity
// conditions every workload shares. A failed gate means the run did
// not measure what the workload exists to measure.
func (d delta) gates(r *report, w *workload, res *loadResult) {
	if w.primary != "" {
		share := ratio(float64(res.Sources[w.primary]), float64(res.Attempted))
		if share < w.primaryShare {
			r.gate("%s: %.4f of answers were %q, need >= %.2f", w.name, share, w.primary, w.primaryShare)
		}
	}
	if w.idleWorkers && d.tasksDone() != 0 {
		r.gate("%s: workers completed %.0f tasks, need 0", w.name, d.tasksDone())
	}
	if w.chunked && d.chunkedPerReq() < 1 {
		r.gate("%s: %.3f chunked bodies per request, need >= 1", w.name, d.chunkedPerReq())
	}
	if w.evicting && d.evictions() == 0 {
		r.gate("%s: cache never evicted", w.name)
	}
	if w.hitRate[1] > 0 {
		if hr := d.hitRate(); hr < w.hitRate[0] || hr > w.hitRate[1] {
			r.gate("%s: request hit rate %.3f outside %.2f-%.2f", w.name, hr, w.hitRate[0], w.hitRate[1])
		}
	}
	if w.open {
		if late := res.lateP99us(); late >= lateLimitUS {
			r.warn("loadgen.late_p99_us %.0f >= %d: the generator slipped its schedule; latency from due time includes the slip", late, lateLimitUS)
		}
	}
	if v := since(d.s1.san.WireErrors, d.s0.san.WireErrors); v != 0 {
		r.gate("san.wire_errors %.0f, need 0", v)
	}
	if v := since(d.s1.san.Dropped, d.s0.san.Dropped); v != 0 {
		r.gate("san.dropped %.0f, need 0", v)
	}
	if v := since(d.s1.bridge.FrameErrors, d.s0.bridge.FrameErrors); v != 0 {
		r.gate("transport.frame_errors %.0f, need 0", v)
	}
	if v := d.restarts(); v != 0 {
		r.gate("manager.restarts %.0f, need 0", v)
	}
}

// emitCounters reports the Stats() deltas of the loaded interval, per
// completed request where the name says /req.
func (d delta) emitCounters(r *report, q queueStats) {
	s0, s1, n := d.s0, d.s1, d.n

	// edge
	r.emit("edge.retries", since(s1.edge.Retries, s0.edge.Retries))
	r.emit("edge.upstream_errors", since(s1.edge.UpstreamErrors, s0.edge.UpstreamErrors))
	r.emit("edge.no_backends", since(s1.edge.NoBackends, s0.edge.NoBackends))
	lo, hi := math.MaxFloat64, 0.0
	for i := range s1.feReqs {
		v := since(s1.feReqs[i], s0.feReqs[i])
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	r.emit("edge.backend_skew", ratio(hi, math.Max(lo, 1)))

	// frontend
	f0, f1 := s0.fe, s1.fe
	reqs := since(f1.Requests, f0.Requests)
	r.emit("frontend.cache_distilled_share", ratio(since(f1.CacheDistilled, f0.CacheDistilled), reqs))
	r.emit("frontend.distilled_share", ratio(since(f1.Distilled, f0.Distilled), reqs))
	r.emit("frontend.passed_through_share", ratio(since(f1.PassedThrough, f0.PassedThrough), reqs))
	r.emit("frontend.fallback_share", ratio(since(f1.Fallbacks, f0.Fallbacks), reqs))
	r.emit("frontend.origin_fetches_per_req", ratio(since(f1.OriginFetches, f0.OriginFetches), reqs))
	r.emit("frontend.coalesced", since(f1.CoalescedOrigin, f0.CoalescedOrigin)) // origin + distill flights
	r.emit("frontend.shed", since(f1.Shed, f0.Shed))
	r.emit("frontend.degraded", since(f1.DegradedServes, f0.DegradedServes))
	r.emit("frontend.expired", since(f1.Expired, f0.Expired))
	r.emit("frontend.errors", since(f1.Errors, f0.Errors))

	// vcache
	hits, misses := since(s1.cache.Hits, s0.cache.Hits), since(s1.cache.Misses, s0.cache.Misses)
	r.emit("vcache.hit_rate", ratio(hits, hits+misses))
	r.emit("vcache.request_hit_rate", d.hitRate())
	r.emit("vcache.evictions", d.evictions())
	r.emit("vcache.used_mb", float64(s1.cache.Used)/1e6)

	// stub
	r.emit("stub.dispatch_retries", since(s1.retries, s0.retries))
	r.emit("stub.stale_drops", since(s1.stale, s0.stale))
	r.emit("stub.worker_queue_mean", q.mean)
	r.emit("stub.worker_queue_max", q.max)
	r.emit("stub.worker_tasks_done", d.tasksDone())
	r.emit("stub.worker_expired_drops", since(s1.expired, s0.expired))

	// san (Sent and Dropped already include multicast)
	r.emit("san.msgs_per_req", ratio(since(s1.san.Sent, s0.san.Sent), n))
	r.emit("san.bytes_per_req", ratio(since(s1.san.Bytes, s0.san.Bytes), n))
	r.emit("san.wire_errors", since(s1.san.WireErrors, s0.san.WireErrors))
	r.emit("san.dropped", since(s1.san.Dropped, s0.san.Dropped))

	// transport
	b0, b1 := s0.bridge, s1.bridge
	frames := since(b1.FramesOut, b0.FramesOut)
	r.emit("transport.frames_per_req", ratio(frames, n))
	r.emit("transport.frames_per_batch", ratio(frames, since(b1.Batches, b0.Batches)))
	r.emit("transport.bytes_per_req", ratio(since(b1.BytesOut, b0.BytesOut), n))
	r.emit("transport.chunked_per_req", d.chunkedPerReq())
	r.emit("transport.reassembled_per_req", ratio(since(b1.Reassembled, b0.Reassembled), n))
	r.emit("transport.backpressure", since(b1.Backpressure, b0.Backpressure))
	r.emit("transport.frame_errors", since(b1.FrameErrors, b0.FrameErrors))
	r.emit("transport.floods", since(b1.Floods, b0.Floods))
	r.emit("transport.max_queued_kb", float64(b1.MaxQueued)/1024)

	// manager
	r.emit("manager.spawns", since(s1.mgr.Spawns, s0.mgr.Spawns))
	r.emit("manager.restarts", d.restarts())

	// runtime
	rtU := func(name string) float64 { return since(s1.rt[name].Uint64(), s0.rt[name].Uint64()) }
	rtF := func(name string) float64 { return s1.rt[name].Float64() - s0.rt[name].Float64() }
	r.emit("runtime.allocs_per_req", ratio(rtU("/gc/heap/allocs:objects"), n))
	r.emit("runtime.alloc_kb_per_req", ratio(rtU("/gc/heap/allocs:bytes")/1024, n))
	r.emit("runtime.gc_cycles", rtU("/gc/cycles/total:gc-cycles"))
	r.emit("runtime.gc_pause_p99_us", histDeltaP99(s0.rt["/gc/pauses:seconds"], s1.rt["/gc/pauses:seconds"])*1e6)
	r.emit("runtime.sched_latency_p99_us", histDeltaP99(s0.rt["/sched/latencies:seconds"], s1.rt["/sched/latencies:seconds"])*1e6)
	r.emit("runtime.gc_cpu_share", ratio(rtF("/cpu/classes/gc/total:cpu-seconds"), rtF("/cpu/classes/total:cpu-seconds")))
	r.emit("runtime.heap_live_mb", float64(s1.rt["/gc/heap/live:bytes"].Uint64())/1e6)
	r.emit("runtime.goroutines", float64(s1.rt["/sched/goroutines:goroutines"].Uint64()))
}

// histDeltaP99 is the 99th percentile of the observations a cumulative
// runtime/metrics histogram gained between two reads (upper bucket
// edge; 0 when it gained none).
func histDeltaP99(v0, v1 metrics.Value) float64 {
	if v0.Kind() != metrics.KindFloat64Histogram || v1.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h0, h1 := v0.Float64Histogram(), v1.Float64Histogram()
	var total uint64
	for i := range h1.Counts {
		total += h1.Counts[i] - h0.Counts[i]
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i := range h1.Counts {
		cum += h1.Counts[i] - h0.Counts[i]
		if float64(cum) >= 0.99*float64(total) {
			edge := h1.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = h1.Buckets[i]
			}
			return edge
		}
	}
	return 0
}

// queueStats is what polling WorkerStub.QueueLen during a loaded
// interval saw, summed over workers per poll.
type queueStats struct{ mean, max float64 }

// pollQueues samples every worker's queue length every 5 ms until stop
// is closed.
func (c *cluster) pollQueues(stop <-chan struct{}) <-chan queueStats {
	out := make(chan queueStats, 1)
	var stubs []*stub.WorkerStub
	for _, id := range c.b.Workers() {
		if ws := c.b.WorkerStub(id); ws != nil {
			stubs = append(stubs, ws)
		}
	}
	go func() {
		var sum, max float64
		var n int
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- queueStats{mean: ratio(sum, float64(n)), max: max}
				return
			case <-tick.C:
				var q float64
				for _, ws := range stubs {
					q += float64(ws.QueueLen())
				}
				sum += q
				max = math.Max(max, q)
				n++
			}
		}
	}()
	return out
}

// idleCost measures the control plane alone: beacons, heartbeats,
// supervisor hellos, load reports and span-digest gossip crossing both
// SANs, and the CPU they burn, over a window with no load at all.
func (c *cluster) idleCost(r *report, window time.Duration) {
	msgs := func() (m, b uint64) {
		a, bb := c.a.Net.Stats(), c.b.Net.Stats()
		return a.Sent + a.McastSent + bb.Sent + bb.McastSent, a.Bytes + bb.Bytes
	}
	m0, b0 := msgs()
	cpu0, t0 := cpuTime(), time.Now()
	time.Sleep(window)
	secs := time.Since(t0).Seconds()
	m1, b1 := msgs()
	r.emit("control.idle_msgs_per_s", float64(m1-m0)/secs)
	r.emit("control.idle_bytes_per_s", float64(b1-b0)/secs)
	r.emit("control.idle_cpu_ms_per_s", float64(cpuTime()-cpu0)/1e6/secs)
}

// echoPair is the bench-owned reference fabric: two wire-mode SANs
// bridged over loopback TCP with the same transport defaults the
// cluster runs, an echo endpoint behind the bridge and one on the near
// side. A Call to either costs what a cache round trip costs minus the
// cache — the baseline the vcache and dispatch self times subtract.
type echoPair struct {
	netA, netB *san.Network
	brA, brB   *transport.Bridge
	client     *san.Endpoint
	near, far  san.Addr
	req        vcache.PutReq
	wg         sync.WaitGroup
}

func newWireNet(seed int64) *san.Network {
	return san.NewNetwork(seed, san.WithCodec(stub.WireCodec{}), san.WithDecodeViews(true))
}

func newEchoPair(ctx context.Context, reqBytes, replyBytes int) (*echoPair, error) {
	p := &echoPair{netA: newWireNet(11), netB: newWireNet(12)}
	var err error
	if p.brA, err = transport.New(transport.Config{Net: p.netA, Listen: "tcp:127.0.0.1:0", ID: "echo-a"}); err != nil {
		p.close()
		return nil, err
	}
	p.brB, err = transport.New(transport.Config{Net: p.netB, Listen: "tcp:127.0.0.1:0", ID: "echo-b", Join: []string{p.brA.Advertise()}})
	if err != nil {
		p.close()
		return nil, err
	}
	if !p.brA.WaitPeers(1, 5*time.Second) || !p.brB.WaitPeers(1, 5*time.Second) {
		p.close()
		return nil, fmt.Errorf("echo bridges never connected")
	}
	reply := vcache.GetResp{Found: true, Data: make([]byte, replyBytes), MIME: "application/octet-stream"}
	serve := func(ep *san.Endpoint) {
		defer p.wg.Done()
		for msg := range ep.Inbox() {
			msg.Release()
			_ = ep.Respond(msg, vcache.MsgGot, reply, replyBytes+32)
		}
	}
	p.near = san.Addr{Node: "echo-a", Proc: "near"}
	p.far = san.Addr{Node: "echo-b", Proc: "far"}
	p.wg.Add(3)
	go serve(p.netA.Endpoint(p.near, 64))
	go serve(p.netB.Endpoint(p.far, 64))
	p.client = p.netA.Endpoint(san.Addr{Node: "echo-a", Proc: "client"}, 64)
	go func() {
		defer p.wg.Done()
		for msg := range p.client.Inbox() {
			p.client.DeliverReply(msg)
		}
	}()
	p.req = vcache.PutReq{Key: "echo", Data: make([]byte, reqBytes), MIME: "application/octet-stream"}
	// The first frames to a not-yet-learned address may be dropped
	// while routes settle; call until one round trip succeeds so the
	// timed calls never see set-up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := p.call(ctx, p.far, 500*time.Millisecond); err == nil {
			break
		} else if time.Now().After(deadline) {
			p.close()
			return nil, fmt.Errorf("echo bridge never routed: %w", err)
		}
	}
	return p, nil
}

// call makes one echo round trip to addr.
func (p *echoPair) call(ctx context.Context, to san.Addr, timeout time.Duration) error {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	resp, err := p.client.Call(cctx, to, vcache.MsgPut, p.req, len(p.req.Data)+32)
	if err != nil {
		return err
	}
	resp.Release()
	return nil
}

func (p *echoPair) close() {
	if p.brA != nil {
		_ = p.brA.Close()
	}
	if p.brB != nil {
		_ = p.brB.Close()
	}
	p.netA.Close()
	p.netB.Close()
	p.wg.Wait()
}
