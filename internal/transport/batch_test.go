package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/san"
)

// recordingWriter counts Write calls — each one models a syscall/packet.
type recordingWriter struct {
	mu     sync.Mutex
	writes int
	bytes  int
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	w.bytes += len(p)
	w.mu.Unlock()
	return len(p), nil
}

// testBatcher builds a batcher with the flush thresholds a test needs
// in place of the package constants (both > 0; the rule under test is
// the production one, only the numbers shrink).
func testBatcher(w io.Writer, flushBytes int, delay time.Duration, maxBytes int) *Batcher {
	b := NewBatcher(w, maxBytes)
	b.flushBytes, b.delay = flushBytes, delay
	return b
}

// TestBatcherPacksBurst is the coalescing acceptance test: a burst of
// frames appended faster than the flush deadline must share packets —
// at least 2 frames per Write on average, and far fewer Writes than
// frames.
func TestBatcherPacksBurst(t *testing.T) {
	w := &recordingWriter{}
	b := testBatcher(w, 16<<10, 2*time.Millisecond, DefaultMaxBatchBytes)
	frame := AppendMcast(nil, san.Addr{Node: "a", Proc: "p"}, "g", "k", []byte("0123456789abcdef"))

	const frames = 1000
	for i := 0; i < frames; i++ {
		if err := b.Append([]Piece{{Hdr: frame}}, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	st := b.Stats()
	if st.Frames != frames {
		t.Fatalf("recorded %d frames, want %d", st.Frames, frames)
	}
	if st.Batches == 0 {
		t.Fatal("no batches flushed")
	}
	perBatch := float64(st.Frames) / float64(st.Batches)
	if perBatch < 2 {
		t.Fatalf("burst averaged %.2f frames/batch, want >= 2 (batches=%d)", perBatch, st.Batches)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.writes != int(st.Batches) {
		t.Fatalf("writer saw %d writes, stats say %d batches", w.writes, st.Batches)
	}
	if w.bytes != frames*len(frame) {
		t.Fatalf("writer saw %d bytes, want %d", w.bytes, frames*len(frame))
	}
}

// TestBatcherDeadlineFlush: a lone frame must not wait forever — the
// microsecond deadline flushes it without further appends.
func TestBatcherDeadlineFlush(t *testing.T) {
	w := &recordingWriter{}
	b := testBatcher(w, 1<<20, time.Millisecond, DefaultMaxBatchBytes)
	defer b.Close()
	if err := b.Append([]Piece{{Hdr: []byte("solo")}}, false, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		w.mu.Lock()
		writes := w.writes
		w.mu.Unlock()
		if writes == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deadline flush never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if st := b.Stats(); st.TimeFlushes != 1 {
		t.Fatalf("TimeFlushes = %d, want 1", st.TimeFlushes)
	}
}

// TestBatcherSizeFlush: crossing the size threshold flushes inline,
// before any deadline. A threshold of 1 is the degenerate row: every
// append is its own write.
func TestBatcherSizeFlush(t *testing.T) {
	w := &recordingWriter{}
	b := testBatcher(w, 64, time.Hour, DefaultMaxBatchBytes) // deadline effectively off
	defer b.Close()
	chunk := make([]byte, 48)
	if err := b.Append([]Piece{{Hdr: chunk}}, false, nil); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Batches != 0 {
		t.Fatal("flushed below the size threshold")
	}
	if err := b.Append([]Piece{{Hdr: chunk}}, false, nil); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.NowFlushes != 1 || st.Batches != 1 {
		t.Fatalf("size flush not taken: %+v", st)
	}

	one := testBatcher(&recordingWriter{}, 1, time.Hour, DefaultMaxBatchBytes)
	defer one.Close()
	for i := 0; i < 10; i++ {
		if err := one.Append([]Piece{{Hdr: []byte("frame")}}, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := one.Stats(); st.Batches != 10 || st.NowFlushes != 10 {
		t.Fatalf("threshold 1 issued %d writes (%d size flushes) for 10 frames", st.Batches, st.NowFlushes)
	}
}

// TestBatcherBodiesDoNotWait pins where the production threshold sits
// and what counts toward it. The deadline is stretched so only the size
// rule can write: small frames stage, referenced body bytes count (one
// byte under the threshold still stages), and a relay fragment is at
// the writer, behind everything staged before it, when its Append
// returns.
func TestBatcherBodiesDoNotWait(t *testing.T) {
	var w bytes.Buffer
	b := testBatcher(&w, DefaultFlushBytes, time.Hour, DefaultMaxBatchBytes)
	defer b.Close()
	small := bytes.Repeat([]byte{'s'}, 100)
	if err := b.Append([]Piece{{Hdr: small}}, false, nil); err != nil {
		t.Fatal(err)
	}
	under := bytes.Repeat([]byte{'u'}, DefaultFlushBytes-len(small)-1)
	if err := b.Append([]Piece{{under[:8], under[8:], nil}}, false, nil); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Batches != 0 {
		t.Fatalf("%d bytes staged, one under the threshold, and already written: %+v", len(small)+len(under), st)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Reset()

	released := false
	body := bytes.Repeat([]byte{'b'}, chunkFrag) // one relay fragment
	if err := b.Append([]Piece{{Hdr: small}}, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Append([]Piece{{[]byte("hdr4"), body, []byte("crc4")}}, false, func() { released = true }); err != nil {
		t.Fatal(err)
	}
	want := append(append(append(append([]byte(nil), small...), "hdr4"...), body...), "crc4"...)
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("writer holds %d bytes when Append returns, want the %d staged in append order", w.Len(), len(want))
	}
	if st := b.Stats(); !released || st.NowFlushes != 1 || st.TimeFlushes != 1 {
		t.Fatalf("released=%v, stats %+v: want the body's hook run by one size flush", released, st)
	}
}

// TestBatcherPromptFrames pins the prompt rule with the deadline
// stretched to an hour: a small frame stays staged, and a prompt one (a
// distillation's task or result), vectored or not, is at the writer
// behind everything staged before it when its Append returns. The
// appender wrote it, so the timer never fired.
func TestBatcherPromptFrames(t *testing.T) {
	var w bytes.Buffer
	b := testBatcher(&w, DefaultFlushBytes, time.Hour, DefaultMaxBatchBytes)
	defer b.Close()
	probe := []byte("cache.get")
	if err := b.Append([]Piece{{Hdr: probe}}, false, nil); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 0 {
		t.Fatal("a small frame that is not prompt reached the writer before the deadline")
	}
	released := false
	body := bytes.Repeat([]byte{'t'}, 300)
	if err := b.Append([]Piece{{[]byte("hdr!"), body, []byte("crc!")}}, true, func() { released = true }); err != nil {
		t.Fatal(err)
	}
	result := []byte("wrk.result")
	if err := b.Append([]Piece{{Hdr: result}}, true, nil); err != nil {
		t.Fatal(err)
	}
	want := bytes.Join([][]byte{probe, []byte("hdr!"), body, []byte("crc!"), result}, nil)
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("writer holds %q when the prompt Appends return, want %q", w.Bytes(), want)
	}
	if err := b.Append([]Piece{{Hdr: probe}}, false, nil); err != nil {
		t.Fatal(err)
	}
	if w.Len() != len(want) {
		t.Fatal("a small frame behind the prompt ones was written without the deadline")
	}
	if st := b.Stats(); !released || st.Batches != 2 || st.NowFlushes != 2 || st.TimeFlushes != 0 {
		t.Fatalf("released=%v, stats %+v: want two writes, both by their prompt appenders", released, st)
	}
}

// TestBatcherConcurrentAppenders runs all three ways a frame reaches the
// socket against each other on a real loopback connection: 8 senders,
// alternating staged and vectored frames, a threshold they cross every
// few frames, a deadline that fires in between, and a Flush for the
// tail. Every frame must arrive exactly once and each sender's frames
// in its own order.
func TestBatcherConcurrentAppenders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	const senders, each, rec = 8, 500, 8 // a record is sender, seq: two big-endian uint32s
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, senders*each*rec)
		if _, err := io.ReadFull(peer, buf); err != nil {
			t.Errorf("reading the stream: %v", err)
		}
		got <- buf
	}()

	b := testBatcher(deadlineWriter{conn}, 16*rec, 50*time.Microsecond, DefaultMaxBatchBytes)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				var r [rec]byte
				binary.BigEndian.PutUint32(r[:4], uint32(s))
				binary.BigEndian.PutUint32(r[4:], uint32(i))
				var err error
				if s%2 == 0 {
					err = b.Append([]Piece{{Hdr: r[:]}}, false, nil)
				} else {
					err = b.Append([]Piece{{r[:4], r[4:], nil}}, false, func() {})
				}
				if err != nil {
					t.Errorf("sender %d append %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Frames != senders*each || st.Bytes != senders*each*rec || st.Batches == 0 || st.Batches > st.Frames {
		t.Fatalf("stats after %d appends: %+v", senders*each, st)
	}
	if st.Backpressure != 0 {
		t.Fatalf("%d appends refused on a draining socket", st.Backpressure)
	}

	var next [senders]uint32
	stream := <-got
	for off := 0; off < len(stream); off += rec {
		s, seq := binary.BigEndian.Uint32(stream[off:]), binary.BigEndian.Uint32(stream[off+4:])
		if s >= senders || seq != next[s] {
			t.Fatalf("record %d: sender %d seq %d, want seq %d", off/rec, s, seq, next[s])
		}
		next[s]++
	}
	for s, n := range next {
		if n != each {
			t.Fatalf("sender %d delivered %d frames, want %d", s, n, each)
		}
	}
}

// blockingWriter models a gray-failed peer: the connection is up but
// its reader drains nothing, so every Write stalls until the gate
// opens. Each Write announces itself on entered before blocking; once
// through the gate it fails with fail, if set, else records its bytes.
type blockingWriter struct {
	entered chan struct{}
	gate    chan struct{}

	mu   sync.Mutex
	wire bytes.Buffer
	fail error
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.entered <- struct{}{}
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fail != nil {
		return 0, w.fail
	}
	return w.wire.Write(p)
}

// stallDrainer appends a 32-byte lead frame below b's size threshold
// and waits until the timer flush carrying it is stuck inside w.Write:
// from then on a write is provably in flight.
func stallDrainer(t *testing.T, b *Batcher, w *blockingWriter) []byte {
	t.Helper()
	lead := bytes.Repeat([]byte{'L'}, 32)
	if err := b.Append([]Piece{{Hdr: lead}}, false, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("timer flush never reached the writer")
	}
	return lead
}

// TestBatcherAppendShapes drives the one append path through every
// shape a caller can hand it — a plain staged frame, a staged frame
// with a done hook (the traced send), a vectored body pinned by a lease
// — against every way an append can end. In every cell the wire holds
// exactly the accepted frames in append order, done has run exactly
// once per append that carried one, and the lease is back to the
// test's own reference.
func TestBatcherAppendShapes(t *testing.T) {
	type shape struct {
		name               string
		hdr, body, trailer []byte
		lease              *san.Lease // pins body; nil when the shape has none
		hooked             bool
	}
	shapes := func() []shape {
		lease, body := leasedBody(100)
		return []shape{
			{name: "plain", hdr: bytes.Repeat([]byte{'p'}, 120)},
			{name: "hooked", hdr: bytes.Repeat([]byte{'h'}, 120), hooked: true},
			{name: "vectored", hdr: bytes.Repeat([]byte{'v'}, 16), body: body, trailer: []byte("crc!"), lease: lease, hooked: true},
		}
	}
	// appendShape hands sh to b the way the bridge does: one retained
	// lease reference per append, released by done.
	appendShape := func(b *Batcher, sh shape, ran *atomic.Int32) error {
		var done func()
		if sh.hooked {
			done = func() {
				ran.Add(1)
				if sh.lease != nil {
					sh.lease.Release()
				}
			}
		}
		if sh.lease != nil {
			sh.lease.Retain()
		}
		return b.Append([]Piece{{sh.hdr, sh.body, sh.trailer}}, false, done)
	}
	newWriter := func(open bool) *blockingWriter {
		w := &blockingWriter{entered: make(chan struct{}, 64), gate: make(chan struct{})}
		if open {
			close(w.gate)
		}
		return w
	}
	check := func(t *testing.T, sh shape, w *blockingWriter, ran *atomic.Int32, appends int, wire ...[]byte) {
		t.Helper()
		want := 0
		if sh.hooked {
			want = appends
		}
		if got := int(ran.Load()); got != want {
			t.Fatalf("done ran %d times for %d appends, want %d", got, appends, want)
		}
		if sh.lease != nil {
			if refs := sh.lease.Refs(); refs != 1 {
				t.Fatalf("lease refs = %d, want 1", refs)
			}
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		if got, want := w.wire.Bytes(), bytes.Join(wire, nil); !bytes.Equal(got, want) {
			t.Fatalf("wire holds %d bytes %q, want %d bytes %q", len(got), got, len(want), want)
		}
	}

	for _, sh := range shapes() {
		sh := sh
		t.Run(sh.name+"/accepted", func(t *testing.T) {
			w, ran := newWriter(true), new(atomic.Int32)
			b := testBatcher(w, 1<<20, time.Hour, DefaultMaxBatchBytes)
			first, last := []byte("AAAA"), []byte("ZZZZ")
			for _, err := range []error{b.Append([]Piece{{Hdr: first}}, false, nil), appendShape(b, sh, ran), b.Append([]Piece{{Hdr: last}}, false, nil)} {
				if err != nil {
					t.Fatal(err)
				}
			}
			if ran.Load() != 0 {
				t.Fatal("done ran before the write that carries the frame")
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			check(t, sh, w, ran, 1, first, sh.hdr, sh.body, sh.trailer, last)
		})
		t.Run(sh.name+"/closed", func(t *testing.T) {
			w, ran := newWriter(true), new(atomic.Int32)
			b := testBatcher(w, 1<<20, time.Hour, DefaultMaxBatchBytes)
			_ = b.Close()
			if err := appendShape(b, sh, ran); err != ErrBatcherClosed {
				t.Fatalf("append after Close returned %v, want ErrBatcherClosed", err)
			}
			check(t, sh, w, ran, 1)
		})
		t.Run(sh.name+"/sticky write error", func(t *testing.T) {
			w, ran := newWriter(false), new(atomic.Int32)
			b := testBatcher(w, 64, time.Millisecond, DefaultMaxBatchBytes)
			stallDrainer(t, b, w)
			// Staged behind the stalled write: accepted now, stranded
			// when that write fails.
			if err := appendShape(b, sh, ran); err != nil {
				t.Fatalf("append behind a stalled write: %v", err)
			}
			boom := errors.New("synthetic write failure")
			w.mu.Lock()
			w.fail = boom
			w.mu.Unlock()
			close(w.gate)
			if err := b.Flush(); err != boom {
				t.Fatalf("Flush after the failed write returned %v, want the write error", err)
			}
			// And refused outright from then on.
			if err := appendShape(b, sh, ran); err != boom {
				t.Fatalf("append on a failed batcher returned %v, want the sticky write error", err)
			}
			check(t, sh, w, ran, 2)
		})
		t.Run(sh.name+"/backpressure", func(t *testing.T) {
			w, ran := newWriter(false), new(atomic.Int32)
			b := testBatcher(w, 64, time.Millisecond, 256)
			lead := stallDrainer(t, b, w)
			filler := bytes.Repeat([]byte{'F'}, 200)
			if err := b.Append([]Piece{{Hdr: filler}}, false, nil); err != nil {
				t.Fatalf("append within the bound: %v", err)
			}
			if err := appendShape(b, sh, ran); err != ErrBackpressure {
				t.Fatalf("append past the bound returned %v, want ErrBackpressure", err)
			}
			close(w.gate)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if st := b.Stats(); st.Backpressure != 1 {
				t.Fatalf("Backpressure = %d, want 1", st.Backpressure)
			}
			check(t, sh, w, ran, 1, lead, filler)
		})
	}
}

// TestBatcherBackpressure: with a write in flight against a stalled
// peer, appends keep staging only up to the byte bound, then fail fast
// with ErrBackpressure (releasing any vectored body's lease) instead
// of buffering unboundedly. Once the writer unsticks, the batcher
// drains and accepts work again.
func TestBatcherBackpressure(t *testing.T) {
	w := &blockingWriter{entered: make(chan struct{}, 16), gate: make(chan struct{})}
	b := testBatcher(w, 64, time.Millisecond, 256)

	// Arm the timer flush with a small frame, then wait until its
	// drainer is provably stuck inside Write.
	stallDrainer(t, b, w)

	// Staging continues behind the stalled write until the bound.
	if err := b.Append([]Piece{{Hdr: make([]byte, 100)}}, false, nil); err != nil {
		t.Fatalf("first staged append: %v", err)
	}
	if err := b.Append([]Piece{{Hdr: make([]byte, 100)}}, false, nil); err != nil {
		t.Fatalf("second staged append: %v", err)
	}
	if err := b.Append([]Piece{{Hdr: make([]byte, 100)}}, false, nil); err != ErrBackpressure {
		t.Fatalf("append past the bound returned %v, want ErrBackpressure", err)
	}
	released := false
	err := b.Append([]Piece{{make([]byte, 16), make([]byte, 100), make([]byte, 4)}}, false, func() { released = true })
	if err != ErrBackpressure {
		t.Fatalf("vectored append past the bound returned %v, want ErrBackpressure", err)
	}
	if !released {
		t.Fatal("refused vectored append did not run its done hook")
	}

	// Unstick the peer: the drainer finishes, carries the staged
	// frames out, and the batcher accepts work again.
	close(w.gate)
	if err := b.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if err := b.Append([]Piece{{Hdr: make([]byte, 100)}}, false, nil); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.Backpressure != 2 {
		t.Fatalf("Backpressure = %d, want 2", st.Backpressure)
	}
	if st.MaxQueued > 256 {
		t.Fatalf("MaxQueued = %d exceeded the 256-byte bound", st.MaxQueued)
	}
}
