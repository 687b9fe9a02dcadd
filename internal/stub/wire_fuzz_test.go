package stub

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/supervisor"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// wireSamples are representative protocol messages — the values the
// existing stub/manager tests pass over the in-process SAN — used
// both as the round-trip unit corpus and as fuzz seeds.
func wireSamples() map[string]any {
	w0 := WorkerInfo{
		ID: "w0", Class: "echo",
		Addr: san.Addr{Node: "n1", Proc: "w0"}, Node: "n1",
		QLen: 2.5,
	}
	ovf := WorkerInfo{
		ID: "sjpg.3", Class: "distill-sjpg",
		Addr: san.Addr{Node: "ovf0", Proc: "sjpg.3"}, Node: "ovf0",
		QLen: 17.25, Overflow: true,
	}
	return map[string]any{
		MsgBeacon: Beacon{
			Manager: san.Addr{Node: "mgr", Proc: "manager"},
			Seq:     42,
			Workers: []WorkerInfo{w0, ovf},
		},
		MsgTask: TaskMsg{Task: tacc.Task{
			Key:   "http://origin1.example/obj42.sjpg",
			Input: tacc.Blob{MIME: "image/sjpg", Data: []byte("payload"), Meta: map[string]string{"orig": "1024"}},
			Inputs: []tacc.Blob{
				{MIME: "text/html", Data: []byte("<p>hi</p>")},
				{MIME: "image/sgif", Data: []byte{0, 1, 2}},
			},
			Profile: map[string]string{"quality": "low", "width": "320"},
			Params:  map[string]string{"minsize": "0"},
		},
			// Deadline rides the wire so remote workers can drop
			// expired work (unix nanos); Trace is the distributed
			// tracing id (sampled bit set).
			Deadline: 1700000000123456789,
			Trace:    0x1d2c3b4a59687f01 | 1,
		},
		MsgResult: ResultMsg{
			Blob: tacc.Blob{MIME: "image/sjpg", Data: []byte("distilled")},
			Err:  "",
		},
		MsgSpawnReq: SpawnReq{Class: "echo"},
		MsgMonReport: StatusReport{
			Component: "w0", Kind: "worker", Node: "n1",
			Metrics: map[string]float64{"qlen": 3, "cost_ms": 1.5, "done": 7},
		},
		MsgSpanDigest: SpanDigest{Spans: []obs.Span{
			{
				Trace: 0x1d2c3b4a59687f01 | 1, Proc: "b-", Comp: "w0",
				Hop: "worker.service", Note: "distill-sjpg",
				Start: 1700000000123456789, Dur: 1250000,
			},
			{
				Trace: 0x1d2c3b4a59687f01 | 1, Proc: "b-", Comp: "w0",
				Hop: "worker.queue", Start: 1700000000123000000, Dur: 456789,
			},
			{
				Trace: 42, Proc: "a-", Comp: "fe0",
				Hop: "fe.admit", Note: "shed", Start: 1700000001000000000, Dur: 0,
			},
		}},
		vcache.MsgGet: vcache.GetReq{
			Key: "http://origin1.example/obj42.sjpg|distill-sjpg#", Stale: true,
			Else: "orig|http://origin1.example/obj42.sjpg",
		},
		vcache.MsgGot: vcache.GetResp{Found: true, Data: []byte("cached bytes"), MIME: "image/sjpg", Stale: true, Else: true},
		vcache.MsgPut: vcache.PutReq{
			Key: "http://origin1.example/obj42.sjpg", Data: []byte("original"),
			MIME: "image/sjpg", TTL: 90 * time.Second,
		},
		vcache.MsgInject: vcache.PutReq{
			Key: "http://origin1.example/obj42.sjpg#distilled", Data: []byte{9, 8, 7},
			MIME: "image/sjpg", TTL: 0,
		},
		vcache.MsgStatsR: vcache.Stats{
			Hits: 101, Misses: 17, Puts: 40, Injects: 12,
			Evictions: 3, Expired: 1, Used: 1 << 20, Objects: 49,
		},
		supervisor.MsgHello: helloWithRoster(3),
		// A worker's announcement: the liveness message sent most often.
		supervisor.MsgAnnounce: supervisor.Member{
			Addr: san.Addr{Node: "b-node3", Proc: "b-distill-sjpg.2"}, Kind: supervisor.KindWorker,
			Class: "distill-sjpg", State: supervisor.StateUp, Load: 3,
		},
		supervisor.MsgCmd: supervisor.Command{
			ID: 9, Origin: "a-node1/manager", Op: supervisor.OpRestart, Target: "cache0", Epoch: 3,
		},
		supervisor.MsgAck: supervisor.Ack{ID: 9, OK: false, Err: "cache0 is not hosted here"},
	}
}

// decode is DecodeBodyView without the aliasing report.
func decode(kind string, data []byte) (any, error) {
	body, _, err := DecodeBodyView(kind, data)
	return body, err
}

// helloWithRoster is a supervisor hello advertising the first rows of a
// component table (0 = a process whose table is still empty).
func helloWithRoster(rows int) supervisor.HelloMsg {
	hb := supervisor.HelloMsg{
		Name: "sup", Addr: san.Addr{Node: "b-node0", Proc: "sup"},
		Node: "b-node0", Prefix: "b-",
	}
	for i := 0; i < rows; i++ {
		row := supervisor.Row{Name: fmt.Sprintf("fe%d", i), Kind: supervisor.KindFrontEnd, Node: fmt.Sprintf("b-node%d", i%8)}
		if i == 0 {
			row = supervisor.Row{Name: "sup", Node: "b-node0"} // a singleton carries no kind
		}
		hb.Roster = append(hb.Roster, row)
	}
	return hb
}

// TestHelloRosterRoundTrip: a hello carries a roster of any length up
// to the codec's bound exactly; one row past it is refused whole by the
// encoder and, hand-framed, by the decoder — never cut short. The
// roster count is part of the layout: a hello that ends before it (as
// one did before rosters existed) is refused as truncated.
func TestHelloRosterRoundTrip(t *testing.T) {
	for _, rows := range []int{0, 1, 12, wireMaxRoster} {
		want := helloWithRoster(rows)
		data, err := EncodeBody(supervisor.MsgHello, want)
		if err != nil {
			t.Fatalf("%d rows: encode: %v", rows, err)
		}
		got, err := decode(supervisor.MsgHello, data)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d rows: round trip err=%v\n got %#v\nwant %#v", rows, err, got, want)
		}
	}
	over := helloWithRoster(wireMaxRoster + 1)
	if _, err := EncodeBody(supervisor.MsgHello, over); !errors.Is(err, ErrWireFormat) {
		t.Fatalf("encoder accepted %d rows: %v", len(over.Roster), err)
	}
	w := &wireWriter{}
	w.str(over.Name)
	w.addr(over.Addr)
	w.str(over.Node)
	w.str(over.Prefix)
	old := append([]byte(nil), w.buf...)
	w.uvarint(uint64(len(over.Roster)))
	for _, row := range over.Roster {
		w.str(row.Name)
		w.str(row.Kind)
		w.str(row.Node)
	}
	if _, err := decode(supervisor.MsgHello, w.buf); !errors.Is(err, ErrWireFormat) {
		t.Fatalf("decoder accepted %d rows: %v", len(over.Roster), err)
	}
	if got, err := decode(supervisor.MsgHello, old); !errors.Is(err, ErrWireFormat) {
		t.Fatalf("roster-less hello decoded to %#v, %v; want ErrWireFormat", got, err)
	}
}

// TestWireRoundTrip: encode -> decode restores every sample, and every
// shape of announcement, exactly.
func TestWireRoundTrip(t *testing.T) {
	type sample struct {
		kind string
		body any
	}
	var all []sample
	for kind, body := range wireSamples() {
		all = append(all, sample{kind, body})
	}
	for _, m := range memberShapes() {
		all = append(all, sample{supervisor.MsgAnnounce, m})
	}
	for _, s := range all {
		kind, body := s.kind, s.body
		data, err := EncodeBody(kind, body)
		if err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		got, err := decode(kind, data)
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		if !reflect.DeepEqual(got, body) {
			t.Fatalf("%s: round trip mismatch:\n got %#v\nwant %#v", kind, got, body)
		}
	}
}

// TestWireSamplesCoverEveryKind keeps the corpus honest: every kind
// the codec registers has a seed sample.
func TestWireSamplesCoverEveryKind(t *testing.T) {
	samples := wireSamples()
	for _, kind := range WireKinds() {
		if _, ok := samples[kind]; !ok {
			t.Errorf("no wire sample for kind %q", kind)
		}
	}
	if len(samples) != len(WireKinds()) {
		t.Errorf("%d samples for %d kinds", len(samples), len(WireKinds()))
	}
}

// TestEncodeBodyAppend: the append-style entry point preserves the
// destination prefix, produces bytes identical to EncodeBody, and
// reuses the destination's capacity instead of allocating.
func TestEncodeBodyAppend(t *testing.T) {
	for kind, body := range wireSamples() {
		want, err := EncodeBody(kind, body)
		if err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		prefix := []byte("frame-header:")
		buf := make([]byte, len(prefix), len(prefix)+len(want)+64)
		copy(buf, prefix)
		got, err := EncodeBodyAppend(buf, kind, body)
		if err != nil {
			t.Fatalf("%s: append encode: %v", kind, err)
		}
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("%s: append clobbered the destination prefix", kind)
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s: append encoding differs from EncodeBody", kind)
		}
		if &got[0] != &buf[0] {
			t.Fatalf("%s: append reallocated despite sufficient capacity", kind)
		}
	}
}

// TestWireDeterministic: equal values encode to equal bytes (maps are
// emitted in sorted order).
func TestWireDeterministic(t *testing.T) {
	for kind, body := range wireSamples() {
		a, _ := EncodeBody(kind, body)
		b, _ := EncodeBody(kind, body)
		if string(a) != string(b) {
			t.Fatalf("%s: nondeterministic encoding", kind)
		}
	}
}

// TestWireRejectsWrongType and truncation: the codec errors cleanly.
func TestWireRejects(t *testing.T) {
	if _, err := EncodeBody(MsgBeacon, SpawnReq{}); err == nil {
		t.Fatal("encode accepted a mismatched body type")
	}
	data, err := EncodeBody(MsgBeacon, wireSamples()[MsgBeacon])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := decode(MsgBeacon, data[:cut]); err == nil {
			t.Fatalf("decode accepted truncation at %d/%d bytes", cut, len(data))
		}
	}
	if _, err := decode(MsgBeacon, append(append([]byte{}, data...), 0)); err == nil {
		t.Fatal("decode accepted trailing garbage")
	}
	if _, err := decode(vcache.MsgStats, []byte{1}); err == nil {
		t.Fatal("decode accepted a body for a body-less kind")
	}
}

// memberShapes are the announcements beyond the worker in wireSamples:
// a front end up and draining, a cache, an overflow worker draining.
func memberShapes() []supervisor.Member {
	return []supervisor.Member{
		{Addr: san.Addr{Node: "a-node0", Proc: "fe0"}, Kind: supervisor.KindFrontEnd, State: supervisor.StateUp, HTTPAddr: "127.0.0.1:39201"},
		{Addr: san.Addr{Node: "a-node1", Proc: "fe1"}, Kind: supervisor.KindFrontEnd, State: supervisor.StateDraining, HTTPAddr: "127.0.0.1:39202"},
		{Addr: san.Addr{Node: "b-node0", Proc: "cache0"}, Kind: supervisor.KindCache, State: supervisor.StateUp},
		{Addr: san.Addr{Node: "b-ovf0", Proc: "b-distill-sjpg.7"}, Kind: supervisor.KindWorker, Class: "distill-sjpg", State: supervisor.StateDraining, Load: 17, Overflow: true},
	}
}

// probeWireBodies is every shape of the cache read pair beyond the two
// in wireSamples: the single-key probe, a primary-key answer, a miss.
func probeWireBodies() map[string][]any {
	return map[string][]any{
		vcache.MsgGet: {
			vcache.GetReq{Key: "orig|http://origin1.example/blob.bin"},
			vcache.GetReq{Key: "u|d#", Else: "orig|u"},
		},
		vcache.MsgGot: {
			vcache.GetResp{},
			vcache.GetResp{Found: true, Data: []byte("variant"), MIME: "image/sjpg"},
			vcache.GetResp{Found: true, Data: []byte("original"), MIME: "image/sjpg", Else: true},
		},
	}
}

// TestProbeWireFields: the fallback key and the which-key-answered flag
// cross the codec, and they are part of the layout, not an optional tail
// — a frame that ends where the old layout did is malformed (every
// process of a cluster runs one build).
func TestProbeWireFields(t *testing.T) {
	for kind, list := range probeWireBodies() {
		for _, want := range list {
			data, err := EncodeBody(kind, want)
			if err != nil {
				t.Fatalf("%s %+v: encode: %v", kind, want, err)
			}
			if got, err := decode(kind, data); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decode %+v, %v; want %+v", kind, got, err, want)
			}
			if _, err := decode(kind, data[:len(data)-1]); !errors.Is(err, ErrWireFormat) {
				t.Fatalf("%s %+v: frame cut before its last field decoded: %v", kind, want, err)
			}
		}
	}
}

// FuzzWireRoundTrip fuzzes DecodeBodyView across every message kind
// (including the cache protocol): arbitrary
// bytes must never panic or over-allocate, and any input that decodes
// successfully must re-encode and re-decode to the same value (the
// codec is canonical on its own output). The re-encode runs through
// EncodeBodyAppend into a dirty recycled buffer, so the fuzzer also
// hammers the append path the SAN's lease buffers use. A decode that
// reports aliased=false must share no memory with its input.
func FuzzWireRoundTrip(f *testing.F) {
	kinds := WireKinds()
	for i, kind := range kinds {
		data, err := EncodeBody(kind, wireSamples()[kind])
		if err != nil {
			f.Fatalf("%s: seed encode: %v", kind, err)
		}
		f.Add(i, data)
	}
	f.Add(0, []byte{})
	f.Add(1, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	for _, rows := range []int{0, 1, 40} { // the sample above carries 3
		data, err := EncodeBody(supervisor.MsgHello, helloWithRoster(rows))
		if err != nil {
			f.Fatalf("hello seed, %d rows: %v", rows, err)
		}
		f.Add(slices.Index(kinds, supervisor.MsgHello), data)
	}

	for kind, bodies := range probeWireBodies() { // the samples above carry the paired, stale, fallback-answered shapes
		for _, body := range bodies {
			data, err := EncodeBody(kind, body)
			if err != nil {
				f.Fatalf("%s seed %+v: %v", kind, body, err)
			}
			f.Add(slices.Index(kinds, kind), data)
		}
	}
	for _, m := range memberShapes() {
		data, err := EncodeBody(supervisor.MsgAnnounce, m)
		if err != nil {
			f.Fatalf("member seed %+v: %v", m, err)
		}
		f.Add(slices.Index(kinds, supervisor.MsgAnnounce), data)
	}
	f.Fuzz(func(t *testing.T, kindIdx int, data []byte) {
		if kindIdx < 0 {
			kindIdx = -kindIdx
		}
		kind := kinds[kindIdx%len(kinds)]
		// same compares two decoded bodies: deeply, or — for the one value
		// that is not DeepEqual to itself, a NaN float, which the wire
		// carries bit for bit — by their canonical encodings.
		same := func(a, b any) bool {
			if reflect.DeepEqual(a, b) {
				return true
			}
			ea, errA := EncodeBody(kind, a)
			eb, errB := EncodeBody(kind, b)
			return errA == nil && errB == nil && bytes.Equal(ea, eb)
		}
		body, err := decode(kind, data)
		if err != nil {
			return // malformed input rejected cleanly: fine
		}
		// Re-encode into a recycled buffer holding stale garbage, as
		// the SAN's lease pool hands out.
		scratch := bytes.Repeat([]byte{0xa5}, 16)
		re, err := EncodeBodyAppend(scratch[:0], kind, body)
		if err != nil {
			t.Fatalf("%s: value %#v decoded but failed to re-encode: %v", kind, body, err)
		}
		if direct, err2 := EncodeBody(kind, body); err2 != nil || !bytes.Equal(re, direct) {
			t.Fatalf("%s: append encoding diverges from EncodeBody (err=%v)", kind, err2)
		}
		vbuf := append([]byte{}, re...)
		body2, aliased, err := DecodeBodyView(kind, vbuf)
		if err != nil {
			t.Fatalf("%s: re-encoded bytes failed to decode: %v", kind, err)
		}
		if !same(body, body2) {
			t.Fatalf("%s: canonical round trip mismatch:\n got %#v\nwant %#v", kind, body2, body)
		}
		if !aliased {
			// aliased=false promises the result shares no memory with
			// the input; dirtying the buffer must not touch it.
			for i := range vbuf {
				vbuf[i] ^= 0xFF
			}
			if !same(body2, body) {
				t.Fatalf("%s: aliased=false but the body changed when its buffer was dirtied", kind)
			}
		}
	})
}

// TestDecodeBodyViewAliasing pins the aliasing contract on a kind with
// a bulk payload: the view's Data field aliases the wire buffer (a
// mutation shows through), and CloneBytes taken before the mutation is
// the copy-on-retain escape hatch that stays stable.
func TestDecodeBodyViewAliasing(t *testing.T) {
	want := wireSamples()[MsgResult].(ResultMsg)
	wire, err := EncodeBody(MsgResult, want)
	if err != nil {
		t.Fatal(err)
	}
	body, aliased, err := DecodeBodyView(MsgResult, wire)
	if err != nil {
		t.Fatal(err)
	}
	if !aliased {
		t.Fatal("MsgResult carries blob bytes but view decode reported aliased=false")
	}
	got := body.(ResultMsg)
	if !bytes.Equal(got.Blob.Data, want.Blob.Data) {
		t.Fatalf("view data mismatch: %q", got.Blob.Data)
	}

	// A consumer that must outlive the buffer clones before the
	// producer recycles it.
	kept := san.CloneBytes(got.Blob.Data)

	// Simulate buffer recycling: scribble over the wire bytes. The
	// live view changes with them (it aliases); the clone does not.
	for i := range wire {
		wire[i] = 0xEE
	}
	if bytes.Equal(got.Blob.Data, want.Blob.Data) {
		t.Fatal("view did not alias the wire buffer (copied despite view mode)")
	}
	if !bytes.Equal(kept, want.Blob.Data) {
		t.Fatalf("copy-on-retain clone changed with the buffer: %q", kept)
	}
}
