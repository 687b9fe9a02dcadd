package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/vcache"
)

// These tests pin the lease-lifecycle contract of the chunked data
// plane: every Retain handed to a batcher is balanced by exactly one
// Release no matter how the stream dies, and only a stream's first
// fragment can open a reassembly build: the late fragments of one that
// completed, corrupted, or was evicted are dropped at the door.

// newChunkBridge builds the minimal Bridge the chunk send/receive
// paths need — counters, frame pool, and a network for injection —
// without listeners or real peers.
func newChunkBridge() *Bridge {
	b := &Bridge{net: san.NewNetwork(1)}
	b.framePool.New = func() any {
		buf := make([]byte, 0, 2048)
		return &buf
	}
	return b
}

// newTestPeer wraps a writer in a peer whose batcher flushes at the
// given size threshold (1 = inline per append) or, below it, after
// delay. The conn exists only so peer.close() has something to close.
func newTestPeer(t *testing.T, id string, w io.Writer, flushBytes int, delay time.Duration) *peer {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { _ = c1.Close(); _ = c2.Close() })
	return &peer{
		id:    id,
		conn:  c1,
		batch: testBatcher(w, flushBytes, delay, DefaultMaxBatchBytes),
		done:  make(chan struct{}),
	}
}

// failAfterWriter succeeds for the first ok Write calls, then returns
// a synthetic error forever. The batcher serializes Write calls under
// its own lock, so no further synchronization is needed.
type failAfterWriter struct {
	ok     int
	writes int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.ok {
		return 0, errors.New("synthetic write failure")
	}
	return len(p), nil
}

// discardWriter swallows everything.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// leasedBody fills a fresh lease with a recognizable pattern and
// returns it plus the wire view over its buffer.
func leasedBody(total int) (*san.Lease, []byte) {
	l := san.NewLease(total)
	wire := l.Bytes()[:total]
	for i := range wire {
		wire[i] = byte(i * 7)
	}
	return l, wire
}

// TestChunkedMidStreamWriterErrorLeaseBalance: a peer whose connection
// dies mid-stream must not unbalance the body lease — every fragment
// retain is released exactly once (by the flush that carried it, or
// inline once the batcher is sticky-errored), the dying peer is closed
// so its dial loop can take over, and the healthy peer still receives
// a complete, byte-identical stream.
func TestChunkedMidStreamWriterErrorLeaseBalance(t *testing.T) {
	b := newChunkBridge()
	var goodBuf bytes.Buffer
	good := newTestPeer(t, "good", &goodBuf, 1, time.Hour) // flush per fragment
	// The bad writer survives exactly one flush (hdr+body+trailer ride
	// as three sequential writes through the net.Buffers fallback), so
	// fragment 1 lands and fragment 2 hits the error: a genuinely
	// mid-stream death.
	badW := &failAfterWriter{ok: 3}
	bad := newTestPeer(t, "bad", badW, 1, time.Hour)
	t.Cleanup(func() { good.close(); bad.close() })

	const total = 4 * chunkFrag // four fragments
	lease, wire := leasedBody(total)
	defer lease.Release()

	from := san.Addr{Node: "a", Proc: "src"}
	to := san.Addr{Node: "b", Proc: "dst"}
	if !b.unicastChunked(good, from, to, "blob", 7, 0, false, 0, wire, lease) {
		t.Fatal("unicastChunked reported failure to a healthy peer")
	}
	if !b.unicastChunked(bad, from, to, "blob", 7, 0, false, 0, wire, lease) {
		t.Fatal("unicastChunked reported failure though the dying peer took the first fragment")
	}

	// Lease balance: only our own reference may remain. With inline
	// flushing every batcher release has already run by the time
	// unicastChunked returns.
	if refs := lease.Refs(); refs != 1 {
		t.Fatalf("lease refs = %d after send, want 1 (leaked or double-released fragment references)", refs)
	}
	// The dying peer was closed so the redial path owns it now.
	select {
	case <-bad.done:
	default:
		t.Fatal("failing peer was not closed after its mid-stream write error")
	}
	// Its writer saw fragment 1 (three writes) plus the failing attempt
	// for fragment 2; the skip must prevent attempts for fragments 3-4.
	if badW.writes > 4 {
		t.Fatalf("failing peer saw %d writes; fragments after the error were not skipped", badW.writes)
	}

	// The healthy peer's stream reassembles to the exact body.
	dec := &Decoder{}
	if _, err := dec.Write(goodBuf.Bytes()); err != nil {
		t.Fatalf("decoder: %v", err)
	}
	got := make([]byte, total)
	frags, covered := 0, 0
	for {
		f, ok, err := dec.Next()
		if err != nil {
			t.Fatalf("decode healthy stream: %v", err)
		}
		if !ok {
			break
		}
		if f.Type != FrameData || f.Flags&FlagChunk == 0 {
			t.Fatalf("unexpected frame type %d flags %x", f.Type, f.Flags)
		}
		id, tot, off, frag, err := ParseChunk(f.Body)
		if err != nil {
			t.Fatalf("chunk envelope: %v", err)
		}
		if id != 1 || tot != total {
			t.Fatalf("fragment envelope id=%d total=%d, want id=1 total=%d", id, tot, total)
		}
		copy(got[off:], frag)
		frags++
		covered += len(frag)
	}
	if frags != 4 || covered != total {
		t.Fatalf("healthy peer got %d fragments covering %d bytes, want 4 covering %d", frags, covered, total)
	}
	if !bytes.Equal(got, wire) {
		t.Fatal("healthy peer's reassembled body differs from the sent body")
	}
}

// TestChunkedConcurrentStreamsLeaseBalance hammers the same two-peer
// fan-out from many goroutines with timer-driven flushing, so retains,
// flush releases, and the sticky-error inline releases all interleave
// for the race detector. Every stream's lease must come back to
// exactly the caller's reference.
func TestChunkedConcurrentStreamsLeaseBalance(t *testing.T) {
	b := newChunkBridge()
	good := newTestPeer(t, "good", discardWriter{}, DefaultFlushBytes, 100*time.Microsecond)
	bad := newTestPeer(t, "bad", &failAfterWriter{ok: 5}, DefaultFlushBytes, 100*time.Microsecond)
	t.Cleanup(func() { good.close(); bad.close() })

	from := san.Addr{Node: "a", Proc: "src"}
	to := san.Addr{Node: "b", Proc: "dst"}
	const streams = 24
	leases := make([]*san.Lease, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		lease, wire := leasedBody(3 * chunkFrag)
		leases[i] = lease
		wg.Add(1)
		go func(i int, wire []byte, lease *san.Lease) {
			defer wg.Done()
			b.unicastChunked(good, from, to, "blob", uint64(i), 0, false, 0, wire, lease)
			b.unicastChunked(bad, from, to, "blob", uint64(i), 0, false, 0, wire, lease)
		}(i, wire, lease)
	}
	wg.Wait()
	// Close flushes whatever is still staged; after it returns every
	// batcher-held reference has been released.
	_ = good.batch.Close()
	_ = bad.batch.Close()
	for i, l := range leases {
		if refs := l.Refs(); refs != 1 {
			t.Fatalf("stream %d: lease refs = %d after close, want 1", i, refs)
		}
		l.Release()
	}
}

// feedChunk drives one fragment through the receive path exactly as
// the read loop would.
func feedChunk(b *Bridge, asm *chunkAsm, id uint64, total, offset int, frag []byte) {
	body := append(appendChunkEnv(nil, id, total, offset), frag...)
	f := Frame{Type: FrameData, Flags: FlagChunk, Body: body}
	b.handleChunk(asm, f, san.Addr{Node: "x", Proc: "src"}, san.Addr{Node: "y", Proc: "dst"}, "blob")
}

// TestChunkReassemblyDeadStreams drives hostile fragment interleavings
// straight into handleChunk: a fragment that does not start a stream
// finds no build once its stream completed, was evicted or was poisoned,
// and is dropped at the door; eviction picks live builds (skipping stale
// order entries) and releases their leases; and the bookkeeping stays
// bounded.
func TestChunkReassemblyDeadStreams(t *testing.T) {
	t.Run("late fragment of a completed stream", func(t *testing.T) {
		b := newChunkBridge()
		asm := &chunkAsm{builds: make(map[uint64]*chunkBuild)}
		feedChunk(b, asm, 1, 8, 0, []byte{1, 2, 3, 4})
		feedChunk(b, asm, 1, 8, 4, []byte{5, 6, 7, 8})
		if got := b.reassembled.Load(); got != 1 {
			t.Fatalf("reassembled = %d, want 1", got)
		}
		// A duplicate of the final fragment must not seed a new build:
		// pre-fix it would pin a fresh 8-byte lease forever.
		feedChunk(b, asm, 1, 8, 4, []byte{5, 6, 7, 8})
		if len(asm.builds) != 0 {
			t.Fatalf("duplicate fragment rebuilt a completed stream: %d builds live", len(asm.builds))
		}
		if got := b.reassembled.Load(); got != 1 {
			t.Fatalf("reassembled = %d after duplicate, want 1", got)
		}
	})

	t.Run("evicted build releases its lease and stays dead", func(t *testing.T) {
		b := newChunkBridge()
		asm := &chunkAsm{builds: make(map[uint64]*chunkBuild)}
		// Fill the table with incomplete builds (first half only).
		for id := uint64(100); id < 100+maxChunkBuilds; id++ {
			feedChunk(b, asm, id, 8, 0, []byte{0, 1, 2, 3})
		}
		victim := asm.builds[100]
		victim.lease.Retain() // hold it so the pool cannot recycle it under us
		defer victim.lease.Release()

		// One more build forces FIFO eviction of id 100.
		feedChunk(b, asm, 999, 8, 0, []byte{0, 1, 2, 3})
		if asm.builds[100] != nil {
			t.Fatal("oldest build not evicted")
		}
		if refs := victim.lease.Refs(); refs != 1 {
			t.Fatalf("evicted build's lease refs = %d, want 1 (only the test's hold) — eviction leaked the build reference", refs)
		}
		// The evicted stream's tail arrives late: it must not restart an
		// uncompletable build (a new lease pinned until eviction wrapped
		// around again).
		feedChunk(b, asm, 100, 8, 4, []byte{4, 5, 6, 7})
		if asm.builds[100] != nil {
			t.Fatal("late fragment of an evicted stream seeded a fresh build")
		}
		if got := b.frameErrors.Load(); got != 1 {
			t.Fatalf("frameErrors = %d, want 1: the stray tail is counted", got)
		}
		if got := b.reassembled.Load(); got != 0 {
			t.Fatalf("reassembled = %d, want 0", got)
		}
	})

	t.Run("eviction skips stale order entries of finished streams", func(t *testing.T) {
		b := newChunkBridge()
		asm := &chunkAsm{builds: make(map[uint64]*chunkBuild)}
		// Three streams complete: opened first, no longer live.
		for id := uint64(1); id <= 3; id++ {
			feedChunk(b, asm, id, 4, 0, []byte{9, 9, 9, 9})
		}
		// Fill with live builds, then overflow by one.
		for id := uint64(10); id < 10+maxChunkBuilds; id++ {
			feedChunk(b, asm, id, 8, 0, []byte{0, 1, 2, 3})
		}
		feedChunk(b, asm, 500, 8, 0, []byte{0, 1, 2, 3})
		// A finished stream never counts as the eviction (the table would
		// stay over budget): the oldest LIVE build (id 10) is the one
		// sacrificed.
		if len(asm.builds) != maxChunkBuilds {
			t.Fatalf("builds = %d after eviction, want %d", len(asm.builds), maxChunkBuilds)
		}
		if asm.builds[10] != nil {
			t.Fatal("oldest live build survived eviction")
		}
		if asm.builds[11] == nil || asm.builds[500] == nil {
			t.Fatal("eviction removed the wrong builds")
		}
	})

	t.Run("corrupt total poisons the whole stream", func(t *testing.T) {
		b := newChunkBridge()
		asm := &chunkAsm{builds: make(map[uint64]*chunkBuild)}
		feedChunk(b, asm, 42, 8, 0, []byte{0, 1, 2, 3})
		// Same stream id, contradictory total: sender bug, stream dies.
		feedChunk(b, asm, 42, 12, 4, []byte{4, 5, 6, 7})
		if b.frameErrors.Load() != 1 {
			t.Fatalf("frameErrors = %d, want 1", b.frameErrors.Load())
		}
		if asm.builds[42] != nil {
			t.Fatal("poisoned stream not dropped")
		}
		// Even a well-formed tail of the poisoned stream is garbage now.
		feedChunk(b, asm, 42, 8, 4, []byte{4, 5, 6, 7})
		if asm.builds[42] != nil {
			t.Fatal("fragment of a poisoned stream seeded a fresh build")
		}
		if got := b.reassembled.Load(); got != 0 {
			t.Fatalf("reassembled = %d, want 0", got)
		}
	})

	t.Run("bookkeeping stays bounded across thousands of streams", func(t *testing.T) {
		b := newChunkBridge()
		asm := &chunkAsm{builds: make(map[uint64]*chunkBuild)}
		const n = 1500
		for id := uint64(1); id <= n; id++ {
			feedChunk(b, asm, id, 4, 0, []byte{1, 2, 3, 4})
		}
		if got := b.reassembled.Load(); got != n {
			t.Fatalf("reassembled = %d, want %d", got, n)
		}
		if len(asm.builds) != 0 {
			t.Fatalf("%d builds leaked", len(asm.builds))
		}
	})
}

// TestChunkStrayFragmentAllocatesNothing: a fragment that does not
// start a stream and finds no build is counted and dropped before the
// receiver allocates anything for the total it declares — here the
// largest a stream may claim, which a build would have to allocate.
func TestChunkStrayFragmentAllocatesNothing(t *testing.T) {
	b := newChunkBridge()
	asm := &chunkAsm{builds: make(map[uint64]*chunkBuild)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feedChunk(b, asm, 7, MaxChunkBody, 4096, []byte{1, 2, 3, 4})
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Fatalf("one stray fragment allocated %d bytes, want < 1 MiB", grown)
	}
	if len(asm.builds) != 0 {
		t.Fatalf("a stray fragment opened %d builds", len(asm.builds))
	}
	if got := b.frameErrors.Load(); got != 1 {
		t.Fatalf("frameErrors = %d, want 1", got)
	}
}

// TestAbandonedReplyLeaseBalance: a reply frame whose Call has given up
// is consumed at delivery — counted delivered, its view reference
// released there, nothing parked in the caller's inbox for a loop to
// find (or, with no loop, to pin the receive buffer forever).
func TestAbandonedReplyLeaseBalance(t *testing.T) {
	net := san.NewNetwork(1)
	caller := net.Endpoint(san.Addr{Node: "a", Proc: "fe0"}, 4)
	l := san.NewLease(4096)
	wire, err := san.AppendBody(l.Bytes(), vcache.MsgGot, vcache.GetResp{Found: true, Data: make([]byte, 2048)})
	if err != nil {
		t.Fatal(err)
	}
	l.SetBytes(wire)
	from := san.Addr{Node: "b", Proc: "cache0"}
	if net.InjectUnicast(from, caller.Addr(), vcache.MsgGot, 99, true, 0, wire, l) != nil {
		t.Fatal("abandoned reply reported dropped, want consumed")
	}
	if refs := l.Refs(); refs != 1 {
		t.Fatalf("lease has %d refs after delivery, want the transport's own 1", refs)
	}
	if n := len(caller.Inbox()); n != 0 {
		t.Fatalf("abandoned reply parked in the inbox (%d messages)", n)
	}
	l.Release()
}
