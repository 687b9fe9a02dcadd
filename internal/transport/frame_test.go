package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"testing"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
)

// sampleBody returns real wire-codec bytes — frames on a live bridge
// always carry codec output, so tests and benches should too.
func sampleBody(t testing.TB) []byte {
	t.Helper()
	body, err := stub.EncodeBody(supervisor.MsgAnnounce, supervisor.Member{
		Addr: san.Addr{Node: "b-node1", Proc: "w0"}, Kind: supervisor.KindWorker,
		Class: "echo", State: supervisor.StateUp, Load: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func sampleFrames(t testing.TB) [][]byte {
	t.Helper()
	body := sampleBody(t)
	return [][]byte{
		AppendHello(nil, Hello{
			ID:        "a-",
			Advertise: "tcp:127.0.0.1:7401",
			Peers:     []string{"tcp:127.0.0.1:7402", "unix:/tmp/sns.sock"},
		}),
		AppendDown(nil, san.Addr{Node: "a-node2", Proc: "cache0"}, san.Addr{Node: "b-node1", Proc: "fe0"}, 42),
		AppendDown(nil, san.Addr{Node: "a-node2", Proc: "cache0"}, san.Addr{}, 0),
		AppendData(nil,
			san.Addr{Node: "a-node0", Proc: "fe0"},
			san.Addr{Node: "b-node1", Proc: "w0"},
			supervisor.MsgAnnounce, 0, false, body),
		AppendData(nil,
			san.Addr{Node: "b-node1", Proc: "w0"},
			san.Addr{Node: "a-node0", Proc: "fe0"},
			stub.MsgResult, 99, true, []byte("reply-bytes")),
		AppendDataTrace(nil,
			san.Addr{Node: "a-node0", Proc: "fe0"},
			san.Addr{Node: "b-node1", Proc: "w0"},
			stub.MsgTask, 7, 0, 0xbeef01|1, []byte("traced-task")),
		AppendMcast(nil,
			san.Addr{Node: "b-node0", Proc: "manager"},
			stub.GroupControl, stub.MsgBeacon, body),
	}
}

// TestDataFrameBytes pins two data frames byte for byte, an untraced
// request and a traced reply: a change here is a wire change.
func TestDataFrameBytes(t *testing.T) {
	from := san.Addr{Node: "a-node0", Proc: "fe0"}
	to := san.Addr{Node: "b-node1", Proc: "cache1"}
	for _, tc := range []struct {
		frame []byte
		want  string
	}{
		{AppendDataTrace(nil, from, to, "cache.get", 0, 0, 0, []byte("orig|http://x")),
			"4153020239000000000007612d6e6f6465300366653007622d6e6f646531066361636865310963616368652e6765740d6f7269677c687474703a2f2f786af4aba4"},
		{AppendDataTrace(nil, from, to, "cache.got", 42, FlagReply, 0x55aa, []byte("reply-bytes")),
			"415302023a00000005aaab012a07612d6e6f6465300366653007622d6e6f646531066361636865310963616368652e676f740b7265706c792d6279746573223a9f89"},
	} {
		if got := hex.EncodeToString(tc.frame); got != tc.want {
			t.Errorf("frame\n got %s\nwant %s", got, tc.want)
		}
	}
}

// TestFrameRoundTrip: every sample frame decodes back to the fields it
// was built from, and re-encoding the decoded frame reproduces the
// original bytes exactly.
func TestFrameRoundTrip(t *testing.T) {
	body := sampleBody(t)
	from := san.Addr{Node: "a-node0", Proc: "fe0"}
	to := san.Addr{Node: "b-node1", Proc: "w0"}

	frame := AppendData(nil, from, to, "wrk.task", 42, true, body)
	var d Decoder
	_, _ = d.Write(frame)
	f, ok, err := d.Next()
	if err != nil || !ok {
		t.Fatalf("decode: ok=%v err=%v", ok, err)
	}
	if f.Type != FrameData || f.CallID != 42 || f.Flags&FlagReply == 0 {
		t.Fatalf("header fields wrong: %+v", f)
	}
	if string(f.SrcNode) != from.Node || string(f.SrcProc) != from.Proc ||
		string(f.DstNode) != to.Node || string(f.DstProc) != to.Proc ||
		string(f.Kind) != "wrk.task" || !bytes.Equal(f.Body, body) {
		t.Fatalf("payload fields wrong: %+v", f)
	}
	re := AppendData(nil,
		san.Addr{Node: string(f.SrcNode), Proc: string(f.SrcProc)},
		san.Addr{Node: string(f.DstNode), Proc: string(f.DstProc)},
		string(f.Kind), f.CallID, f.Flags&FlagReply != 0, f.Body)
	if !bytes.Equal(re, frame) {
		t.Fatal("re-encoding a decoded frame diverged from the original bytes")
	}

	// Traced frame: FlagTrace + uvarint id round-trips; an untraced
	// frame spends no bytes on it (AppendData above is byte-identical
	// to the pre-trace format).
	traced := AppendDataTrace(nil, from, to, "wrk.task", 42, FlagReply, 0x55aa, body)
	d = Decoder{}
	_, _ = d.Write(traced)
	f, ok, err = d.Next()
	if err != nil || !ok {
		t.Fatalf("traced decode: ok=%v err=%v", ok, err)
	}
	if f.Flags&FlagTrace == 0 || f.Trace != 0x55aa || f.Flags&FlagReply == 0 {
		t.Fatalf("traced frame fields wrong: %+v", f)
	}
	if len(traced) <= len(frame) {
		t.Fatal("traced frame should carry extra trace bytes")
	}
	// A FlagTrace claim with a zero trace id is malformed (re-seal the
	// CRC so the parser, not the checksum, makes that call).
	bad := append([]byte(nil), frame...)
	bad[preludeLen] |= FlagTrace // flags byte; following uvarint decodes as callID=0... garbage
	binary.LittleEndian.PutUint32(bad[len(bad)-crcLen:], crc32.ChecksumIEEE(bad[:len(bad)-crcLen]))
	var db Decoder
	_, _ = db.Write(bad)
	if _, _, err := db.Next(); err == nil {
		t.Fatal("decoder accepted a FlagTrace frame whose payload was not extended")
	}

	mc := AppendMcast(nil, from, "sns.control", "mgr.beacon", body)
	d = Decoder{}
	_, _ = d.Write(mc)
	f, ok, err = d.Next()
	if err != nil || !ok || f.Type != FrameMcast {
		t.Fatalf("mcast decode: ok=%v err=%v type=%d", ok, err, f.Type)
	}
	if string(f.Group) != "sns.control" || string(f.Kind) != "mgr.beacon" {
		t.Fatalf("mcast fields wrong: %+v", f)
	}

	h := Hello{ID: "a-", Advertise: "tcp:127.0.0.1:7401", Peers: []string{"tcp:127.0.0.1:7402"}}
	d = Decoder{}
	_, _ = d.Write(AppendHello(nil, h))
	f, ok, err = d.Next()
	if err != nil || !ok {
		t.Fatalf("hello decode: ok=%v err=%v", ok, err)
	}
	got, err := f.DecodeHello()
	if err != nil || got.ID != h.ID || got.Advertise != h.Advertise ||
		len(got.Peers) != 1 || got.Peers[0] != h.Peers[0] {
		t.Fatalf("hello round trip: %+v err=%v", got, err)
	}

	gone, caller := san.Addr{Node: "b-node2", Proc: "cache0"}, san.Addr{Node: "a-node0", Proc: "fe0"}
	down := AppendDown(nil, gone, caller, 42)
	d = Decoder{}
	_, _ = d.Write(down)
	f, ok, err = d.Next()
	if err != nil || !ok || f.Type != FrameDown {
		t.Fatalf("down decode: ok=%v err=%v type=%d", ok, err, f.Type)
	}
	if f.CallID != 42 || string(f.SrcNode) != gone.Node || string(f.SrcProc) != gone.Proc ||
		string(f.DstNode) != caller.Node || string(f.DstProc) != caller.Proc {
		t.Fatalf("down frame fields wrong: %+v", f)
	}
	if !bytes.Equal(reencode(f), down) {
		t.Fatal("re-encoding a decoded down frame diverged from the original bytes")
	}
}

// TestDecoderTornReads: a concatenated batch fed one byte at a time
// yields exactly the same frames as fed whole — the streaming decoder
// tolerates arbitrary read fragmentation.
func TestDecoderTornReads(t *testing.T) {
	frames := sampleFrames(t)
	var stream []byte
	for _, fr := range frames {
		stream = append(stream, fr...)
	}

	var whole Decoder
	_, _ = whole.Write(stream)
	var want []Frame
	for {
		f, ok, err := whole.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		want = append(want, copyFrame(f))
	}
	if len(want) != len(frames) {
		t.Fatalf("whole-stream decode found %d frames, want %d", len(want), len(frames))
	}

	var torn Decoder
	var got []Frame
	for i := 0; i < len(stream); i++ {
		_, _ = torn.Write(stream[i : i+1])
		for {
			f, ok, err := torn.Next()
			if err != nil {
				t.Fatalf("byte %d: %v", i, err)
			}
			if !ok {
				break
			}
			got = append(got, copyFrame(f))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("torn decode found %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !framesEqual(got[i], want[i]) {
			t.Fatalf("frame %d differs between torn and whole decode", i)
		}
	}
	if torn.Buffered() != 0 {
		t.Fatalf("%d stray bytes left after full stream", torn.Buffered())
	}
}

// TestDecoderRejectsCorruption: flipped bytes fail the CRC, truncated
// frames wait for more data, bad magic and oversized claims error.
func TestDecoderRejectsCorruption(t *testing.T) {
	frame := sampleFrames(t)[1]

	for i := 0; i < len(frame); i++ {
		corrupt := append([]byte(nil), frame...)
		corrupt[i] ^= 0x40
		var d Decoder
		_, _ = d.Write(corrupt)
		if _, ok, err := d.Next(); err == nil && ok {
			// A flip in the length field can make the frame read as
			// incomplete (ok=false, no error) — that is fine; what must
			// never happen is a successful decode of corrupt bytes.
			t.Fatalf("decoder accepted a frame with byte %d flipped", i)
		}
	}

	var d Decoder
	_, _ = d.Write(frame[:len(frame)-1])
	if _, ok, err := d.Next(); ok || err != nil {
		t.Fatalf("truncated frame: ok=%v err=%v, want needs-more-data", ok, err)
	}

	huge := []byte{0x41, 0x53, Version, FrameData, 0xff, 0xff, 0xff, 0xff}
	d = Decoder{}
	_, _ = d.Write(huge)
	if _, _, err := d.Next(); err == nil {
		t.Fatal("oversized length claim not rejected")
	}
}

func copyFrame(f Frame) Frame {
	dup := func(b []byte) []byte { return append([]byte(nil), b...) }
	f.SrcNode, f.SrcProc = dup(f.SrcNode), dup(f.SrcProc)
	f.DstNode, f.DstProc = dup(f.DstNode), dup(f.DstProc)
	f.Group, f.Kind, f.Body = dup(f.Group), dup(f.Kind), dup(f.Body)
	return f
}

func framesEqual(a, b Frame) bool {
	return a.Type == b.Type && a.Flags == b.Flags && a.CallID == b.CallID &&
		a.Trace == b.Trace &&
		bytes.Equal(a.SrcNode, b.SrcNode) && bytes.Equal(a.SrcProc, b.SrcProc) &&
		bytes.Equal(a.DstNode, b.DstNode) && bytes.Equal(a.DstProc, b.DstProc) &&
		bytes.Equal(a.Group, b.Group) && bytes.Equal(a.Kind, b.Kind) &&
		bytes.Equal(a.Body, b.Body)
}

// TestFrameEncodeZeroAlloc: steady-state frame construction into a
// reused buffer allocates nothing — the property the bench snapshot
// gates.
func TestFrameEncodeZeroAlloc(t *testing.T) {
	body := sampleBody(t)
	from := san.Addr{Node: "a-node0", Proc: "fe0"}
	to := san.Addr{Node: "b-node1", Proc: "w0"}
	buf := AppendData(nil, from, to, "wrk.task", 1, false, body)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendData(buf[:0], from, to, "wrk.task", 1, false, body)
	})
	if allocs != 0 {
		t.Fatalf("AppendData allocates %.1f per op into a warm buffer", allocs)
	}
}
