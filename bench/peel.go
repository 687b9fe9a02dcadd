package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/distiller"
	"repro/internal/edge"
	"repro/internal/frontend"
	"repro/internal/lottery"
	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/tacc"
	"repro/internal/transport"
	"repro/internal/vcache"
)

// The traced run. After the loaded interval a single client replays the
// workload's stream at successive peel depths — GET at the edge, GET at
// a front end's HTTP adapter, FrontEnd.Do, the cache and dispatch calls
// Do makes, echo calls of equal size on a bench-owned fabric, and the
// leaf functions in tight loops. Every call is timed from outside the
// program (spans inside it are a later issue); a layer's self time is
// its span minus its child's.

// span is one timed call. Offsets are nanoseconds from the traced
// run's start; Parent 0 marks a trace's root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"` // how the request was answered (X-TranSend-Source)
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog holds spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
	trace int
}

func (l *spanLog) newTrace() int { l.trace++; return l.trace }

func (l *spanLog) add(trace, parent int, name, class string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name, Class: class,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)),
	})
	return id
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timings of every span with one of the names.
func (l *spanLog) timings(names ...string) timings {
	var out timings
	for _, s := range l.spans {
		for _, n := range names {
			if s.Name == n {
				out = append(out, timing{us: float64(s.End-s.Start) / 1e3, class: s.Class})
			}
		}
	}
	return out
}

// timing is one timed call and the class of answer it belonged to.
type timing struct {
	us    float64
	class string
}

type timings []timing

// of returns the sorted durations of one class ("" = all classes).
func (ts timings) of(class string) []float64 {
	var out []float64
	for _, t := range ts {
		if class == "" || t.class == class {
			out = append(out, t.us)
		}
	}
	sort.Float64s(out)
	return out
}

// Span names. The replica's children are the calls frontend.handle
// makes, issued by the benchmark in the same order.
const (
	spanEdge     = "edge.get"
	spanFEServer = "edge.feserver.get"
	spanDo       = "frontend.do"
	spanReplica  = "frontend.do.replica"
	spanGetView  = "vcache.client.get_view"
	spanGet      = "vcache.client.get"
	spanPut      = "vcache.client.put"
	spanInject   = "vcache.client.inject"
	spanDispatch = "stub.dispatch_pipeline"
	spanBridge   = "transport.bridge_echo"
	spanLocal    = "san.local_echo"
)

// Each peel depth runs until its time box closes, but for at least
// peelMin and at most peelMax calls.
const (
	peelMin = 20
	peelMax = 2000
)

type peeler struct {
	c     *cluster
	w     *workload
	ck    *checker
	log   *spanLog
	next  int // next unused request of the stream
	rules tacc.DispatchRule
}

// call is one peel depth's timed call for a request: when it started
// and ended, and the class of answer it got.
type call func(trace int, r request) (start, end time.Time, class string, err error)

// depth runs one peel depth inside its time box and records each call
// as a root span (the replica records its own).
func (p *peeler) depth(box time.Duration, name string, record bool, do call) (timings, error) {
	var out timings
	t0 := time.Now()
	for i := 0; i < peelMax && (i < peelMin || time.Since(t0) < box); i++ {
		r := p.w.at(p.next)
		p.next++
		trace := p.log.newTrace()
		start, end, class, err := do(trace, r)
		if err != nil {
			return nil, fmt.Errorf("traced %s %s: %w", name, r.url, err)
		}
		if record {
			p.log.add(trace, 0, name, class, start, end)
		}
		out = append(out, timing{us: us(end.Sub(start)), class: class})
	}
	return out, nil
}

// httpGet is a peel depth's HTTP call through one keep-alive client.
func (p *peeler) httpGet(ctx context.Context, cl *client) call {
	return func(_ int, r request) (time.Time, time.Time, string, error) {
		start := time.Now()
		end, _, source, reason := cl.do(ctx, r, p.ck, p.w.expect)
		if reason != "" {
			return start, end, source, fmt.Errorf("%s", reason)
		}
		return start, end, source, nil
	}
}

// replica issues, under one parent span, the cache and dispatch calls
// frontend.handle makes for this request — probe the distilled
// variant, fetch the original (cache, then origin and Put), dispatch
// the pipeline, Inject the result — through the front end's own
// vcache client and manager stub. Keep in step with
// internal/frontend.handle.
func (p *peeler) replica(ctx context.Context, fe *frontend.FrontEnd, org *poolOrigin) call {
	cache, mstub := fe.Cache(), fe.ManagerStub()
	return func(trace int, r request) (time.Time, time.Time, string, error) {
		type child struct {
			name       string
			start, end time.Time
		}
		var children []child
		timed := func(name string, f func()) {
			s := time.Now()
			f()
			children = append(children, child{name, s, time.Now()})
		}
		start := time.Now()
		class, err := func() (string, error) {
			profile := p.c.a.Profile.Get(r.user)
			pipeline := p.rules(r.url, p.w.bodies[r.body].MIME, profile)
			distillKey, origKey := pipeline.CacheKey(r.url, profile), "orig|"+r.url
			if len(pipeline) > 0 {
				var hit bool
				timed(spanGetView, func() {
					_, _, release, ok := cache.GetView(ctx, distillKey)
					if release != nil {
						release()
					}
					hit = ok
				})
				if hit {
					return sourceHit, nil
				}
			}
			var orig tacc.Blob
			var cached bool
			timed(spanGet, func() {
				data, mime, ok := cache.Get(ctx, origKey)
				orig, cached = tacc.Blob{MIME: mime, Data: data}, ok
			})
			if !cached {
				var err error
				if orig, err = org.Fetch(ctx, r.url); err != nil {
					return "", err
				}
				timed(spanPut, func() { cache.Put(ctx, origKey, orig.Data, orig.MIME, 0) })
			}
			if len(pipeline) == 0 || orig.Size() <= distiller.DefaultMinSize {
				return sourceOriginal, nil
			}
			var out tacc.Blob
			var derr error
			timed(spanDispatch, func() {
				out, derr = mstub.DispatchPipeline(ctx, pipeline, &tacc.Task{Key: r.url, Input: orig, Profile: profile})
			})
			if derr != nil {
				return "", derr
			}
			timed(spanInject, func() { cache.Inject(ctx, distillKey, out.Data, out.MIME, 0) })
			return sourceDistill, nil
		}()
		end := time.Now()
		parent := p.log.add(trace, 0, spanReplica, class, start, end)
		for _, ch := range children {
			p.log.add(trace, parent, ch.name, class, ch.start, ch.end)
		}
		return start, end, class, err
	}
}

// traced is what the ledger and the timed per-layer metrics are built
// from: the timings of each peel depth.
type traced struct {
	edgeOff, edge, feserver, do, replica, bridge, local timings
}

// peel runs every depth, writes the span file and returns the samples.
func (p *peeler) peel(ctx context.Context, total time.Duration, spanFile string) (*traced, error) {
	box := total / 7
	fe := p.c.a.FrontEnds()[0]
	feAddr := p.c.a.FrontEndHTTPAddr(fe.ID())
	if feAddr == "" {
		return nil, fmt.Errorf("front end %s has no HTTP adapter", fe.ID())
	}
	edgeCl, feCl := newClient(p.c.edgeAddr()), newClient(feAddr)
	defer edgeCl.close()
	defer feCl.close()
	echo, err := newEchoPair(ctx, p.w.echoReq, p.w.echoReply)
	if err != nil {
		return nil, err
	}
	defer echo.close()

	t := &traced{}
	// Spans off, then on: the difference is the tracing overhead.
	if t.edgeOff, err = p.depth(box, spanEdge, false, p.httpGet(ctx, edgeCl)); err != nil {
		return nil, err
	}
	if t.edge, err = p.depth(box, spanEdge, true, p.httpGet(ctx, edgeCl)); err != nil {
		return nil, err
	}
	if t.feserver, err = p.depth(box, spanFEServer, true, p.httpGet(ctx, feCl)); err != nil {
		return nil, err
	}
	t.do, err = p.depth(box, spanDo, true, func(_ int, r request) (time.Time, time.Time, string, error) {
		start := time.Now()
		resp, err := fe.Do(ctx, frontend.Request{URL: r.url, User: r.user})
		end := time.Now()
		resp.Release()
		return start, end, resp.Source, err
	})
	if err != nil {
		return nil, err
	}
	org := &poolOrigin{bodies: p.w.bodies}
	if t.replica, err = p.depth(box, spanReplica, false, p.replica(ctx, fe, org)); err != nil {
		return nil, err
	}
	echoCall := func(to san.Addr) call {
		return func(int, request) (time.Time, time.Time, string, error) {
			start := time.Now()
			err := echo.call(ctx, to, 5*time.Second)
			return start, time.Now(), "", err
		}
	}
	if t.bridge, err = p.depth(box, spanBridge, true, echoCall(echo.far)); err != nil {
		return nil, err
	}
	if t.local, err = p.depth(box/4, spanLocal, true, echoCall(echo.near)); err != nil {
		return nil, err
	}
	return t, p.log.write(spanFile)
}

// leaves are the functions at the bottom of the peel, timed in tight
// loops on the workload's own message shapes.
type leaves struct {
	partGetNS, partGetAllocs, partPutNS  float64
	encNS, encAllocs, decNS, decAllocs   float64 // request + reply of the dominant message
	frameEncNS, frameEncAllocs           float64
	frameDecNS, frameDecAllocs           float64
	sendNS, sendAllocs                   float64
	lotteryNS, profileNS, spanNS, pickNS float64
	distill                              []float64 // sorted µs per Registry.Run
	distillUSPerKB, distillOutIn         float64
}

func measureLeaves(ctx context.Context, c *cluster, w *workload, rules tacc.DispatchRule, leafBatch time.Duration) (*leaves, error) {
	lv := &leaves{}

	// distiller: the workload's pipelines on its own originals.
	reg := tacc.NewRegistry()
	distiller.RegisterAll(reg)
	var inBytes, outBytes, totalUS float64
	var sampleTask tacc.Task
	var sampleOut tacc.Blob
	for i, b := range w.bodies {
		pipeline := rules("http://o.example/x", b.MIME, nil)
		if len(pipeline) == 0 || b.Size() <= distiller.DefaultMinSize {
			continue
		}
		task := tacc.Task{Key: "leaf", Input: b}
		start := time.Now()
		out, err := reg.Run(ctx, pipeline, &task)
		d := us(time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("distiller leaf on body %d: %w", i, err)
		}
		lv.distill = append(lv.distill, d)
		totalUS += d
		inBytes += float64(b.Size())
		outBytes += float64(out.Size())
		if i <= len(w.bodies)/2 { // a mid-ladder original stands for the task message
			sampleTask, sampleOut = task, out
		}
	}
	sort.Float64s(lv.distill)
	lv.distillUSPerKB = ratio(totalUS, inBytes/1024)
	lv.distillOutIn = ratio(outBytes, inBytes)

	// vcache partition: entries of the workload's reply size.
	part := vcache.NewPartition(64<<20, nil)
	val := make([]byte, w.echoReply)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("leaf|%d", i)
		part.Put(keys[i], val, "application/octet-stream", 0)
	}
	i := 0
	lv.partGetNS, lv.partGetAllocs = microbench(leafBatch, func() { part.Get(keys[i%len(keys)]); i++ })
	lv.partPutNS, _ = microbench(leafBatch, func() { part.Put(keys[i%len(keys)], val, "application/octet-stream", 0); i++ })

	// stub codec: the workload's dominant message pair.
	reqKind, replyKind := vcache.MsgGet, vcache.MsgGot
	var reqBody, replyBody any = vcache.GetReq{Key: "orig|http://o1.example/b1/leaf1.sjpg"},
		vcache.GetResp{Found: true, Data: val, MIME: "application/octet-stream"}
	if w.taskShaped && sampleTask.Input.Size() > 0 {
		reqKind, replyKind = stub.MsgTask, stub.MsgResult
		reqBody, replyBody = stub.TaskMsg{Task: sampleTask}, stub.ResultMsg{Blob: sampleOut}
	}
	var wires [2][]byte
	for k, m := range []struct {
		kind string
		body any
	}{{reqKind, reqBody}, {replyKind, replyBody}} {
		var buf []byte
		var err error
		if wires[k], err = stub.EncodeBody(m.kind, m.body); err != nil {
			return nil, err
		}
		ns, allocs := microbench(leafBatch, func() { buf, _ = stub.EncodeBodyAppend(buf[:0], m.kind, m.body) })
		lv.encNS += ns
		lv.encAllocs += allocs
		ns, allocs = microbench(leafBatch, func() { _, _, _ = stub.DecodeBodyView(m.kind, wires[k]) })
		lv.decNS += ns
		lv.decAllocs += allocs
	}

	// transport frame: the reply's wire bytes, at most one chunk
	// fragment's worth (larger bodies cross as 16 KB fragments).
	frameBody := wires[1]
	if len(frameBody) > 16<<10 {
		frameBody = frameBody[:16<<10]
	}
	from, to := san.Addr{Node: "b-node0", Proc: "cache0"}, san.Addr{Node: "a-node1", Proc: "fe0"}
	var fbuf []byte
	lv.frameEncNS, lv.frameEncAllocs = microbench(leafBatch, func() {
		fbuf = transport.AppendDataTrace(fbuf[:0], from, to, replyKind, 7, transport.FlagReply, 0, frameBody)
	})
	var dec transport.Decoder
	var derr error
	lv.frameDecNS, lv.frameDecAllocs = microbench(leafBatch, func() {
		_, _ = dec.Write(fbuf)
		if _, ok, err := dec.Next(); err != nil || !ok {
			derr = fmt.Errorf("frame leaf: ok=%v err=%v", ok, err)
		}
	})
	if derr != nil {
		return nil, derr
	}

	// san send: one wire-mode delivery of the reply on a local network.
	net := newWireNet(13)
	sink := net.Endpoint(san.Addr{Node: "leaf", Proc: "sink"}, 4096)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for msg := range sink.Inbox() {
			msg.Release()
		}
	}()
	src := net.Endpoint(san.Addr{Node: "leaf", Proc: "src"}, 16)
	lv.sendNS, lv.sendAllocs = microbench(leafBatch, func() { _ = src.Send(sink.Addr(), replyKind, replyBody, len(val)) })
	net.Close()
	<-drained

	// The small fixed-cost calls every request makes.
	sched := lottery.NewScheduler(1, true)
	cands := []string{"w0", "w1", "w2"}
	now := time.Now()
	for i, id := range cands {
		sched.Report(id, float64(i), now)
	}
	lv.lotteryNS, _ = microbench(leafBatch, func() { sched.Pick(cands, now) })
	lv.profileNS, _ = microbench(leafBatch, func() { c.a.Profile.Get(keywordsUser) })
	tr := obs.NewTracer(1, 0)
	tr.SetSampleRate(1)
	id := tr.NewTrace()
	lv.spanNS, _ = microbench(leafBatch, func() { tr.Record(obs.Span{Trace: id, Comp: "fe0", Hop: "fe.cache", Start: 1, Dur: 1}) })
	pool := edge.NewPool(edge.PoolConfig{Seed: 1})
	pool.Observe("a-node0/fe0", "fe0", "127.0.0.1:1", false)
	pool.Observe("a-node1/fe1", "fe1", "127.0.0.1:2", false)
	lv.pickNS, _ = microbench(leafBatch, func() {
		if pk, err := pool.Pick(true, ""); err == nil {
			pk.Done(true)
		}
	})
	return lv, nil
}

// emitTimed derives the timed per-layer metrics and the ledger from the
// traced samples and the leaves.
//
// Every ledger line is either measured (a leaf, or an echo call, timed
// in isolation) or by difference, and the differences telescope, so
// the lines sum to their total exactly. Medians only add up along one
// path, so the ledger is built per answer class (X-TranSend-Source:
// a hit, a miss that distils, a passthrough) from that class's p50s and
// the classes are then blended by their share of the traced stream. On
// a one-class workload that is simply the single-client end-to-end p50.
func emitTimed(r *report, log *spanLog, t *traced, lv *leaves) {
	p50 := func(xs []float64) float64 { return percentile(xs, 0.5) }
	p99 := func(xs []float64) float64 { return percentile(xs, 0.99) }
	B, S := p50(t.bridge.of("")), p50(t.local.of(""))
	pGet, pPut, X := lv.partGetNS/1e3, lv.partPutNS/1e3, p50(lv.distill)
	codec := (lv.encNS + lv.decNS) / 1e3
	frame := 2 * (lv.frameEncNS + lv.frameDecNS) / 1e3
	gets, puts, disp := log.timings(spanGetView, spanGet), log.timings(spanPut, spanInject), log.timings(spanDispatch)

	const measured, byDiff = "measured", "by difference"
	lines := []ledgerLine{
		{"edge.self", 0, byDiff},
		{"edge.feserver_self", 0, byDiff},
		{"frontend.self", 0, byDiff},
		{"vcache.client_self", 0, byDiff},
		{"vcache.partition", 0, measured},
		{"stub.dispatch_self", 0, byDiff},
		{"distiller.process", 0, measured},
		{"transport.bridge_self", 0, byDiff},
		{"transport.frame", 0, measured},
		{"san.self", 0, byDiff},
		{"stub.codec", 0, measured},
	}
	// A class enters the blend only if every depth saw it a few times.
	const minPerClass = 3
	weights := map[string]float64{}
	var weightSum float64
	for _, tm := range t.edge {
		weights[tm.class]++
	}
	for class, n := range weights {
		if n < minPerClass || len(t.feserver.of(class)) < minPerClass ||
			len(t.do.of(class)) < minPerClass || len(t.replica.of(class)) < minPerClass {
			delete(weights, class)
			continue
		}
		weightSum += n
	}
	for class, n := range weights {
		share := n / weightSum
		E, F, D := p50(t.edge.of(class)), p50(t.feserver.of(class)), p50(t.do.of(class))
		traces := float64(len(t.replica.of(class)))
		g, pu, di := gets.of(class), puts.of(class), disp.of(class)
		wGet, wPut, wDisp := float64(len(g))/traces, float64(len(pu))/traces, float64(len(di))/traces
		cGet, cPut, cDisp := p50(g), p50(pu), p50(di)
		trips := wGet + wPut + wDisp
		for i, v := range []float64{
			E - F,
			F - D,
			D - (wGet*cGet + wPut*cPut + wDisp*cDisp),
			wGet*(cGet-B-pGet) + wPut*(cPut-B-pPut),
			wGet*pGet + wPut*pPut,
			wDisp * (cDisp - B - X),
			wDisp * X,
			trips * (B - S - frame),
			trips * frame,
			trips * (S - codec),
			trips * codec,
		} {
			lines[i].US += share * v
		}
		r.LedgerSum += share * E
	}
	r.Ledger = lines
	line := func(name string) float64 {
		for _, l := range lines {
			if l.Name == name {
				return l.US
			}
		}
		return 0
	}
	var diff float64
	for _, l := range lines {
		if l.Kind == byDiff {
			diff += l.US
		}
	}

	allGets, allDisp := gets.of(""), disp.of("")
	r.emit("edge.self_us_p50", line("edge.self"))
	r.emit("edge.self_us_p99", p99(t.edge.of(""))-p99(t.feserver.of("")))
	r.emit("edge.feserver_self_us_p50", line("edge.feserver_self"))
	r.emit("edge.pick_ns", lv.pickNS)
	r.emit("frontend.do_us_p50", p50(t.do.of("")))
	r.emit("frontend.do_us_p99", p99(t.do.of("")))
	r.emit("frontend.self_us_p50", line("frontend.self"))
	r.emit("vcache.client_get_us_p50", p50(allGets))
	r.emit("vcache.client_get_us_p99", p99(allGets))
	r.emit("vcache.client_put_us_p50", p50(puts.of("")))
	r.emit("vcache.client_self_us_p50", line("vcache.client_self"))
	r.emit("vcache.partition_get_ns", lv.partGetNS)
	r.emit("vcache.partition_put_ns", lv.partPutNS)
	r.emit("vcache.partition_get_allocs", lv.partGetAllocs)
	r.emit("stub.encode_ns", lv.encNS)
	r.emit("stub.decode_view_ns", lv.decNS)
	r.emit("stub.encode_allocs", lv.encAllocs)
	r.emit("stub.decode_allocs", lv.decAllocs)
	r.emit("stub.dispatch_us_p50", p50(allDisp))
	r.emit("stub.dispatch_us_p99", p99(allDisp))
	r.emit("stub.dispatch_self_us_p50", line("stub.dispatch_self"))
	r.emit("san.call_rtt_us_p50", S)
	r.emit("san.send_ns", lv.sendNS)
	r.emit("san.send_allocs", lv.sendAllocs)
	r.emit("transport.frame_encode_ns", lv.frameEncNS)
	r.emit("transport.frame_decode_ns", lv.frameDecNS)
	r.emit("transport.frame_encode_allocs", lv.frameEncAllocs)
	r.emit("transport.frame_decode_allocs", lv.frameDecAllocs)
	r.emit("transport.bridge_rtt_us_p50", B)
	r.emit("transport.bridge_rtt_us_p99", p99(t.bridge.of("")))
	r.emit("transport.bridge_self_us_p50", B-S)
	r.emit("distiller.process_us_p50", X)
	r.emit("distiller.process_us_p99", p99(lv.distill))
	r.emit("distiller.us_per_kb", lv.distillUSPerKB)
	r.emit("distiller.out_in_ratio", lv.distillOutIn)
	r.emit("manager.lottery_pick_ns", lv.lotteryNS)
	r.emit("profiledb.readcache_get_ns", lv.profileNS)
	r.emit("obs.span_record_ns", lv.spanNS)
	off := p50(t.edgeOff.of(""))
	r.emit("loadgen.trace_overhead_share", ratio(p50(t.edge.of(""))-off, off))
	r.emit("ledger.by_difference_share", ratio(diff, r.LedgerSum))
}
