package repro

// The one table of hot-path micro-benchmarks. `go test -bench Micro .`
// prints each row's ns/op, B/op and allocs/op; TestMicroCeilings runs
// the same bodies in tier-1 and fails when a row's allocs/op (or B/op)
// climbs past the ceiling written next to it.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distiller"
	"repro/internal/media"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
	"repro/internal/tacc"
	"repro/internal/transport"
	"repro/internal/vcache"
)

// MicroBench is one named micro-benchmark and the ceilings it must
// stay under: allocs/op always, B/op where MaxBytes is set (the blob
// relay, where B/op is the copy count made measurable). F reports
// failure by returning an error so the ceilings test can tell a broken
// row from a slow one.
type MicroBench struct {
	Name      string
	MaxAllocs float64
	MaxBytes  float64
	F         func(*testing.B) error
}

// ceiling is the alloc gate: 20 % over the measured baseline plus half
// an alloc of absolute slack. Amortized pool misses put values like
// 2e-7 allocs/op on the alloc-free rows, where relative drift means
// nothing; any real regression of those rows — an alloc-free path
// regressing to >= 1 alloc/op — clears half an alloc with room to spare.
func ceiling(baseline float64) float64 { return baseline*1.2 + 0.5 }

// MicroBenches lists the request hot path's building blocks, bottom
// up: codec, frame, SAN send, bridged send, cache partition, the
// FE→cache→FE blob relay at the paper's three content sizes, and one
// distillation per content type. Baselines
// are allocs/op measured on the 2-CPU reference host.
var MicroBenches = []MicroBench{
	// Steady-state encode into a recycled buffer: alloc-free.
	{Name: "wire_encode_append", MaxAllocs: ceiling(0), F: benchWireEncodeAppend},
	// The view decode every delivery runs, on a body with no []byte to
	// alias: a worker's announcement's five owned strings, plus the boxed
	// Member.
	{Name: "wire_decode", MaxAllocs: ceiling(6), F: benchWireDecode},
	// Alloc-free append and zero-copy streaming decode: >= 1 alloc/op
	// means the append path or the decoder's buffer reuse broke.
	{Name: "frame_encode", MaxAllocs: ceiling(0), F: benchFrameEncode},
	{Name: "frame_decode", MaxAllocs: ceiling(0), F: benchFrameDecode},
	{Name: "san_send_wire", MaxAllocs: ceiling(0), F: benchSANSendParallel},
	// Per-frame cost of the socket data plane. What remains is the far
	// side's decode (one fewer than wire_decode's 6); more means frame
	// scratch pooling or the vectored path regressed.
	{Name: "bridge_send", MaxAllocs: ceiling(5), F: benchBridgeSend},
	{Name: "partition_get", MaxAllocs: ceiling(0), F: benchPartitionGet},
	// A cache write as its caller pays it: one encode, one vectored
	// frame, no wait. The 6 are the far side's decode and the partition's
	// copy-on-retain, which run in this process too.
	{Name: "cache_put_send", MaxAllocs: ceiling(6), F: benchCachePutSend},
	// The miss path's one read: a paired probe whose variant misses and
	// whose 16 KiB original answers. blob_relay's round trip plus the
	// second key's string at the partition's decode. The probe is a
	// Call's request and the answer is over 8 KiB, so neither waits for
	// the flush timer (≈ 24 µs/op on the reference host; 1.04 ms when
	// the probe waited a tick).
	{Name: "cache_probe_pair", MaxAllocs: ceiling(16), F: func(b *testing.B) error { return benchCacheProbe(b, 16<<10, false) }},
	// A hit's read, hit_small's shape: the same probe answered by a 2 KiB
	// distilled variant. The answer is a small reply, so it still waits
	// one tick (≈ 1.0 ms/op on the reference host; 2.06 ms when the
	// probe waited one too). Same 16 allocations as the pair.
	{Name: "cache_probe_small", MaxAllocs: ceiling(16), F: func(b *testing.B) error { return benchCacheProbe(b, 2<<10, true) }},
	// One distillation's dispatch without the distiller: a small task out
	// and its result back across the bridged pair. Both are prompt, so
	// neither waits for the flush timer (≈ 31 µs/op on the reference
	// host; 2.2 ms when each waited a tick). The 8 are the two decodes
	// and the Call's reply channel.
	{Name: "dispatch_rtt", MaxAllocs: ceiling(8), F: benchDispatchRTT},
	// The FE→cache→FE relay. "At most one body copy per hop" in
	// numbers: B/op stays far below the body size. The B/op ceiling is
	// an eighth of the body, not a margin over the ≈ 1 KB baseline: at
	// the gate's run length one missed buffer-pool get is body/N bytes
	// per op, while the defect this guards — a body copy per request —
	// is the whole body (4 KB has none: an eighth of it is below the
	// baseline). The 512 KB reply crosses as 32 chunk fragments in one
	// append, with one lease reference and one done hook; its one
	// allocation over the others is the receiver's reassembly build (a
	// hook per fragment reads 48). Medians of 20 runs on the reference
	// host (make bench-micro): 4k ≈ 1.2 ms/op, the small reply's flush
	// tick; 64k ≈ 75 µs; 512k 0.33–0.43 ms (≈ 1.6 ms when each fragment
	// is a write of its own and the tail waits for the tick).
	{Name: "blob_relay_4k", MaxAllocs: ceiling(15), F: func(b *testing.B) error { return benchBlobRelay(b, 4<<10) }},
	{Name: "blob_relay_64k", MaxAllocs: ceiling(15), MaxBytes: 64 << 10 / 8, F: func(b *testing.B) error { return benchBlobRelay(b, 64<<10) }},
	{Name: "blob_relay_512k", MaxAllocs: ceiling(16), MaxBytes: 512 << 10 / 8, F: func(b *testing.B) error { return benchBlobRelay(b, 512<<10) }},
	// One distillation of a 20 KB original at the default profile, as a
	// worker pays it; B/op is the raster count made measurable. SJPG
	// decodes straight to the half-size raster (8.5 K pixels): 13.3 KB an
	// op, and the ceiling is what keeps the full-size one (34 K) from
	// coming back. SGIF has to expand every run before it can scale
	// (70 KB: the raster, its half, the encoder's worst-case buffer). The
	// munger writes one output buffer (28 KB; most of the 51 allocations
	// are the src strings it hands RewriteSrc and gets back).
	{Name: "distill_sjpg_20k", MaxAllocs: ceiling(8), MaxBytes: 16 << 10, F: func(b *testing.B) error { return benchDistill(b, media.MIMESJPG) }},
	{Name: "distill_sgif_20k", MaxAllocs: ceiling(10), MaxBytes: 80 << 10, F: func(b *testing.B) error { return benchDistill(b, media.MIMESGIF) }},
	{Name: "munge_html_20k", MaxAllocs: ceiling(51), MaxBytes: 36 << 10, F: func(b *testing.B) error { return benchDistill(b, media.MIMEHTML) }},
}

// benchDistill runs one type's distiller over a 20 KB original made the
// way bench/workload.go makes miss_distill's: a square picture of the
// side that encodes to about that size (0.6 bytes a pixel) at quality
// 75 / 64 colours, or a generated page.
func benchDistill(b *testing.B, mime string) error {
	const size = 20 << 10
	rng := rand.New(rand.NewSource(1))
	side := int(math.Sqrt(size / 0.6))
	var w tacc.Worker
	var data []byte
	switch mime {
	case media.MIMESJPG:
		w, data = distiller.SJPGDistiller, media.EncodeSJPG(media.Generate(rng, side, side), 75)
	case media.MIMESGIF:
		w, data = distiller.SGIFDistiller, media.EncodeSGIF(media.Generate(rng, side, side), 64)
	default:
		w, data = distiller.HTMLMunger{}, media.GenerateHTML(rng, size, nil)
	}
	task := &tacc.Task{Input: tacc.Blob{MIME: mime, Data: data}}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := w.Process(context.Background(), task)
		if err != nil {
			return err
		}
		if out.Size() == 0 || (mime != media.MIMEHTML && out.Size() >= len(data)/2) {
			return fmt.Errorf("distilled %d bytes to %d", len(data), out.Size())
		}
	}
	return nil
}

// wireMember is the representative periodic message: the announcement
// every worker sends once a beat, pre-boxed so the measurement
// is the codec, not callsite interface conversion.
func wireMember() any {
	return supervisor.Member{
		Addr: san.Addr{Node: "b-node3", Proc: "b-distill-sjpg.2"}, Kind: supervisor.KindWorker,
		Class: "distill-sjpg", State: supervisor.StateUp, Load: 3,
	}
}

func wireNet(seed int64) *san.Network {
	return san.NewNetwork(seed)
}

// benchWireEncodeAppend is the steady-state encode the SAN runs:
// appending into a recycled buffer. Must stay at 0 allocs/op.
func benchWireEncodeAppend(b *testing.B) error {
	body := wireMember()
	buf, err := stub.EncodeBodyAppend(nil, supervisor.MsgAnnounce, body)
	if err != nil {
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = stub.EncodeBodyAppend(buf[:0], supervisor.MsgAnnounce, body); err != nil {
			return err
		}
	}
	return nil
}

// benchWireDecode is the per-delivery decode every SAN delivery runs:
// each recipient materializes its own value from the shared bytes.
func benchWireDecode(b *testing.B) error {
	data, err := stub.EncodeBody(supervisor.MsgAnnounce, wireMember())
	if err != nil {
		return err
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := stub.DecodeBodyView(supervisor.MsgAnnounce, data); err != nil {
			return err
		}
	}
	return nil
}

// memberFrame returns the data frame both frame benches work on —
// an encoded worker announcement between two prefix-qualified addresses — and
// the arguments that rebuild it.
func memberFrame() (frame []byte, from, to san.Addr, body []byte, err error) {
	body, err = stub.EncodeBody(supervisor.MsgAnnounce, wireMember())
	from = san.Addr{Node: "a-node0", Proc: "fe0"}
	to = san.Addr{Node: "b-node1", Proc: "w0"}
	return transport.AppendData(nil, from, to, supervisor.MsgAnnounce, 1, false, body), from, to, body, err
}

// benchFrameEncode appends a data frame into a warm buffer — the
// bridge's send path. Must stay at 0 allocs/op.
func benchFrameEncode(b *testing.B) error {
	buf, from, to, body, err := memberFrame()
	if err != nil {
		return err
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = transport.AppendData(buf[:0], from, to, supervisor.MsgAnnounce, 1, false, body)
	}
	return nil
}

// benchFrameDecode runs the streaming decoder over the same frame — the
// bridge's receive path before SAN injection.
func benchFrameDecode(b *testing.B) error {
	frame, _, _, _, err := memberFrame()
	if err != nil {
		return err
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	var dec transport.Decoder
	for i := 0; i < b.N; i++ {
		if _, err := dec.Write(frame); err != nil {
			return err
		}
		if _, ok, err := dec.Next(); err != nil || !ok {
			return fmt.Errorf("decode: ok=%v err=%v", ok, err)
		}
	}
	return nil
}

// benchSANSendParallel sends a nil body over the wire codec from many
// concurrent sender/receiver pairs, 1% loss keeping the rng hot —
// san.BenchmarkSANSendParallel's traffic shape with the codec on the
// path (encode per send, decode per delivery).
func benchSANSendParallel(b *testing.B) error {
	net := wireNet(1)
	net.SetLoss(0.01, 0)
	var next atomic.Int64
	var failed atomic.Pointer[error]
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := fmt.Sprint(next.Add(1))
		src := net.Endpoint(san.Addr{Node: "senders", Proc: id}, 8)
		dst := net.Endpoint(san.Addr{Node: "sinks", Proc: id}, 4096)
		go func() {
			for range dst.Inbox() {
			}
		}()
		for pb.Next() {
			if err := src.Send(dst.Addr(), "d", nil, 0); err != nil {
				first := err // copied here so the hot path's err stays off the heap
				failed.CompareAndSwap(nil, &first)
				return
			}
		}
	})
	if errp := failed.Load(); errp != nil {
		return *errp
	}
	return nil
}

// bridgedPair joins two wire networks over loopback TCP: the first
// owns the "a-" nodes, the second the "b-" nodes.
func bridgedPair(b *testing.B) (netA, netB *san.Network, ba *transport.Bridge, err error) {
	netA, netB = wireNet(1), wireNet(2)
	b.Cleanup(netA.Close)
	b.Cleanup(netB.Close)
	ba, err = transport.New(transport.Config{Net: netA, Listen: "tcp:127.0.0.1:0", ID: "a-"})
	if err != nil {
		return nil, nil, nil, err
	}
	b.Cleanup(func() { ba.Close() })
	bb, err := transport.New(transport.Config{Net: netB, Listen: "tcp:127.0.0.1:0", ID: "b-", Join: []string{ba.Advertise()}})
	if err != nil {
		return nil, nil, nil, err
	}
	b.Cleanup(func() { bb.Close() })
	if !ba.WaitPeers(1, 5*time.Second) || !bb.WaitPeers(1, 5*time.Second) {
		return nil, nil, nil, errors.New("bridges never connected")
	}
	return netA, netB, ba, nil
}

// benchBridgeSend measures one-way load-report sends across two bridged
// networks through the batching writer; frames/batch is the syscall
// amortization batching buys. The loop floods faster than loopback TCP
// drains, so the bridge legitimately refuses some sends with
// backpressure: those are datagram drops, reported as drops/op, not
// failures.
func benchBridgeSend(b *testing.B) error {
	netA, netB, ba, err := bridgedPair(b)
	if err != nil {
		return err
	}
	src := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "src"}, 8)
	dst := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "dst"}, 1<<16) // absorbs a whole b.N burst undrained
	go func() {
		for range dst.Inbox() {
		}
	}()
	// One round trip first, so the connection carries traffic both
	// ways before the timer starts.
	report := wireMember()
	if err := dst.Send(src.Addr(), supervisor.MsgAnnounce, report, 0); err != nil {
		return err
	}
	<-src.Inbox()
	refused, before := uint64(0), ba.Stats().Backpressure
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send(dst.Addr(), supervisor.MsgAnnounce, report, 0); err != nil {
			refused++ // the SAN reports any fabric refusal as ErrUnknownAddr
		}
	}
	b.StopTimer()
	st := ba.Stats()
	if bp := st.Backpressure - before; refused != bp {
		return fmt.Errorf("%d sends refused but only %d by backpressure", refused, bp)
	}
	b.ReportMetric(float64(refused)/float64(b.N), "drops/op")
	if st.Batches > 0 {
		b.ReportMetric(float64(st.FramesOut)/float64(st.Batches), "frames/batch")
	}
	return nil
}

// benchPartitionGet is the sharded cache partition's get on warm keys
// (the Harvest stand-in of §4.4).
func benchPartitionGet(b *testing.B) error {
	p := vcache.NewPartition(64<<20, nil)
	data := make([]byte, 8192)
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("warm%d", i)
		p.Put(keys[i], data, "b", 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Get(keys[i%len(keys)]); !ok {
			return errors.New("miss on warm key")
		}
	}
	return nil
}

// cacheAcrossBridge is the FE→cache harness: a cache partition behind
// one bridge, a virtual-cache client behind the other.
func cacheAcrossBridge(b *testing.B) (client *vcache.Client, netA, netB *san.Network, ba *transport.Bridge, err error) {
	netA, netB, ba, err = bridgedPair(b)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	svc := vcache.NewService("cache0", netB, "b-cnode", vcache.NewPartition(256<<20, nil))
	ctx, cancel := context.WithCancel(context.Background())
	b.Cleanup(cancel)
	go func() { _ = svc.Run(ctx) }()

	ep := netA.Endpoint(san.Addr{Node: "a-fe", Proc: "client"}, 256)
	client = vcache.NewClient(ep)
	client.AddNode("cache0", svc.Addr())
	return client, netA, netB, ba, nil
}

// relayGet fetches key as a view and checks its size. Right behind a
// Put of the same key it is also the warm-up: Put sends no receipt, the
// Get rides the same connection behind it, so its hit is the
// observation that the store landed (and it teaches A the route).
func relayGet(client *vcache.Client, key string, size int) error {
	data, _, release, ok := client.GetView(context.Background(), key)
	if !ok || len(data) != size {
		return fmt.Errorf("relay get: ok=%v len=%d want %d", ok, len(data), size)
	}
	if release != nil {
		release()
	}
	return nil
}

// benchCachePutSend measures the front end's side of a cache write: a
// 16 KiB Put (a typical original) across the bridged pair, which since
// the receipt went is a Send. A body this size is written by its own
// appender, so a lone sender is paced by the socket and drops/op reads
// 0; backpressure is still the only refusal the row accepts.
func benchCachePutSend(b *testing.B) error {
	client, netA, netB, ba, err := cacheAcrossBridge(b)
	if err != nil {
		return err
	}
	const size = 16 << 10
	ctx := context.Background()
	payload := make([]byte, size)
	client.Put(ctx, "blob", payload, "image/gif", 0)
	if err := relayGet(client, "blob", size); err != nil {
		return err
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.Put(ctx, "blob", payload, "image/gif", 0)
	}
	b.StopTimer()
	_, refused := client.WriteStats()
	if bp := ba.Stats().Backpressure; refused != bp {
		return fmt.Errorf("%d writes refused but only %d by backpressure", refused, bp)
	}
	b.ReportMetric(float64(refused)/float64(b.N), "drops/op")
	if we := netA.Stats().WireErrors + netB.Stats().WireErrors; we != 0 {
		return fmt.Errorf("wire errors during puts: %d", we)
	}
	return nil
}

// benchCacheProbe measures one request's paired probe across the
// bridged pair. With variant false the partition misses the variant key,
// finds a size-byte original under the fallback key and answers with it
// (the miss path); with variant true it answers with a size-byte
// distilled variant (a hit). Either way the answer comes back once, as
// a view.
func benchCacheProbe(b *testing.B, size int, variant bool) error {
	client, netA, netB, _, err := cacheAcrossBridge(b)
	if err != nil {
		return err
	}
	const url = "http://origin1.example/obj42.sjpg"
	key, orig := url+"|distill-sjpg#", "orig|"+url
	ctx := context.Background()
	if variant {
		client.Inject(ctx, key, make([]byte, size), "image/sjpg", 0)
	} else {
		client.Put(ctx, orig, make([]byte, size), "image/sjpg", 0)
	}
	probe := func() error {
		got, release := client.Probe(ctx, key, orig, false)
		if !got.Found || got.Else == variant || len(got.Data) != size {
			return fmt.Errorf("paired probe: found=%v else=%v len=%d", got.Found, got.Else, len(got.Data))
		}
		if release != nil {
			release()
		}
		return nil
	}
	if err := probe(); err != nil { // rides behind the write; teaches A the route
		return err
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := probe(); err != nil {
			return err
		}
	}
	b.StopTimer()
	if we := netA.Stats().WireErrors + netB.Stats().WireErrors; we != 0 {
		return fmt.Errorf("wire errors during paired probes: %d", we)
	}
	return nil
}

// benchDispatchRTT measures the front end's Call of a 512-byte task to a
// worker endpoint across the bridged pair, which answers each task with
// its input as the result, from its own receive loop.
func benchDispatchRTT(b *testing.B) error {
	netA, netB, _, err := bridgedPair(b)
	if err != nil {
		return err
	}
	fe := netA.Endpoint(san.Addr{Node: "a-fe", Proc: "fe0"}, san.InboxSize)
	wk := netB.Endpoint(san.Addr{Node: "b-n0", Proc: "w0"}, san.InboxSize)
	go func() {
		for msg := range wk.Inbox() {
			if tm, ok := msg.Body.(stub.TaskMsg); ok {
				_ = wk.Respond(msg, stub.MsgResult, stub.ResultMsg{Blob: tm.Task.Input}, 0)
			}
			msg.Release()
		}
	}()
	task := stub.TaskMsg{Task: tacc.Task{Key: "k", Input: tacc.Blob{MIME: media.MIMESJPG, Data: make([]byte, 512)}}}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dispatch := func() error {
		resp, err := fe.Call(ctx, wk.Addr(), stub.MsgTask, task, 0)
		if err != nil {
			return err
		}
		defer resp.Release()
		if res, ok := resp.Body.(stub.ResultMsg); !ok || len(res.Blob.Data) != len(task.Task.Input.Data) {
			return fmt.Errorf("dispatch answered %#v", resp.Body)
		}
		return nil
	}
	if err := dispatch(); err != nil {
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dispatch(); err != nil {
			return err
		}
	}
	return nil
}

// benchBlobRelay measures one cached-object fetch end to end over a
// real two-bridge SAN (client → wire → cache partition → wire →
// client). 4 KB and 64 KB ride a single vectored frame; 512 KB crosses
// as chunk fragments and reassembles. GetView keeps the client side
// zero-copy, so allocs/op and B/op are the data plane's whole
// per-request footprint.
func benchBlobRelay(b *testing.B, size int) error {
	client, netA, netB, _, err := cacheAcrossBridge(b)
	if err != nil {
		return err
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	client.Put(context.Background(), "blob", payload, "image/gif", 0)
	if err := relayGet(client, "blob", size); err != nil {
		return err
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := relayGet(client, "blob", size); err != nil {
			return err
		}
	}
	b.StopTimer()
	if we := netA.Stats().WireErrors + netB.Stats().WireErrors; we != 0 {
		return fmt.Errorf("wire errors during relay: %d", we)
	}
	return nil
}
