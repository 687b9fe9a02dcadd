package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// Batching defaults. The delay is nominal: a Go process with idle Ps
// parks in epoll_wait at millisecond granularity, so the timer fires
// ~1.1 ms after it is armed and a frame that waits for it pays that on
// some request's critical path. Two kinds of message never wait: a body
// on the move at 8 KiB and up (an original on its way to Put, a chunked
// relay with every fragment, its tail included), and a prompt frame. A
// Call's request never waits (a probe, a task: its caller is blocked on
// the answer), nor does a result (a worker serves one task at a time);
// the SAN marks both prompt. Their appender writes them, and whatever
// is staged, at once. Small replies (a probe's answer), small cache
// writes and announcements wait one tick (ROADMAP item 1 has what
// writing those at once measures and needs).
const (
	DefaultFlushBytes = 8 << 10
	DefaultFlushDelay = 200 * time.Microsecond
)

// ErrBatcherClosed is returned by Append/Flush after Close.
var ErrBatcherClosed = errors.New("transport: batcher closed")

// ErrBackpressure is returned by Append when the bytes queued behind
// an in-progress write exceed the batcher's bound: the peer's reader
// has stalled and buffering more would only hide the congestion. The
// message is dropped whole (datagram semantics) and its done hook has
// already run; the connection stays up.
var ErrBackpressure = errors.New("transport: peer write queue full (backpressure)")

// BatchStats counts a batcher's life. FramesPerBatch (derivable as
// Frames/Batches) is the coalescing figure of merit: >1 means multiple
// frames shared a syscall/packet.
type BatchStats struct {
	Frames       uint64 // frames appended (a chunked message's fragments each count)
	Batches      uint64 // Write calls issued
	Bytes        uint64 // bytes written
	NowFlushes   uint64 // flushes an appender ran: the size threshold, or a prompt frame
	TimeFlushes  uint64 // flushes that waited: the deadline, or an explicit Flush/Close
	Backpressure uint64 // messages refused because the queue bound was hit (a chunked stream counts once)
	MaxQueued    uint64 // high-water mark of bytes staged behind a write
}

// vecWriter is the optional fast path a Batcher probes its writer for:
// a writer that can take a gather list in one call (net.Buffers →
// writev). Connection wrappers (deadline writers) forward it to the
// underlying *net.TCPConn/*net.UnixConn — Go's net package only
// issues a real writev when WriteTo sees the concrete conn type.
type vecWriter interface {
	WriteVec(bufs *net.Buffers) (int64, error)
}

// cut records one externally-held body and/or completion hook spliced
// into the staged stream: the staging buffer splits at off, with body
// (possibly empty) in between, and release runs after the write.
// Offsets, not subslices — the staging buffer's backing array moves as
// it grows.
type cut struct {
	off     int
	body    []byte
	release func()
}

// Batcher coalesces frames into one buffered write per flush. Appends
// accumulate until the staged bytes reach DefaultFlushBytes or a prompt
// frame arrives (flushed by the appender's goroutine), or the oldest
// pending frame has waited DefaultFlushDelay (flushed from a timer).
//
// Writes happen OUTSIDE the batcher's lock: the goroutine that
// triggers a flush takes ownership of the staged bytes (becoming the
// drainer), releases the lock, and writes, so concurrent appenders
// keep staging instead of queueing behind a stalled socket. At most
// one drainer is active at a time, so the underlying writer still
// needs no extra synchronization; it drains everything staged during
// its write before retiring. Errors are sticky and surface on the next
// Append/Flush.
//
// maxBytes bounds the bytes staged behind an active drainer: an Append
// that would exceed it fails fast with ErrBackpressure instead of
// buffering unboundedly behind a peer whose reader has stalled. The
// bound only engages while a write is in flight — a healthy batcher
// flushes at the size threshold long before reaching it — so it sits
// comfortably above DefaultFlushBytes.
type Batcher struct {
	w          io.Writer
	flushBytes int           // DefaultFlushBytes; tests shrink it
	delay      time.Duration // DefaultFlushDelay; tests stretch it
	maxBytes   int

	mu        sync.Mutex
	cond      *sync.Cond // signaled when the active drainer retires
	buf       []byte
	spare     []byte // recycled staging buffer (swapped by the drainer)
	cuts      []cut  // external bodies and hooks interleaved with buf
	spareCuts []cut
	ext       int         // total external body bytes pending
	iov       net.Buffers // gather-list scratch, owned by the drainer
	iovArg    net.Buffers // the header WriteTo consumes; a field so &iovArg never allocates
	pending   int         // frames in buf
	armed     bool
	timer     *time.Timer
	writing   bool // a drainer owns a write in progress
	closed    bool
	err       error

	stats BatchStats
}

// NewBatcher wraps w. maxBytes bounds the bytes queued behind an
// in-progress write (see Batcher).
func NewBatcher(w io.Writer, maxBytes int) *Batcher {
	b := &Batcher{w: w, flushBytes: DefaultFlushBytes, delay: DefaultFlushDelay, maxBytes: maxBytes}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Piece is one frame handed to Append: Hdr ++ Body ++ Trailer on the
// wire (the AppendDataVec split). A fully staged frame is Piece{Hdr: frame}.
type Piece struct{ Hdr, Body, Trailer []byte }

// Append queues one message — one frame, or a chunked body's every
// fragment, laid end to end — and is the only way into the socket. Refusal is per message: closed, a sticky error or
// backpressure refuses every frame, or none. Each Hdr and Trailer is
// copied into the staging buffer, so the caller's buffers are free for
// reuse on return. A prompt message, or one that brings the staged
// bytes to the flush threshold, never waits for the deadline: on return
// it has been written with everything staged before it, in one write,
// or an active drainer will carry it. A non-empty Body is only
// referenced: at flush it goes to the socket as its own iovec, and
// until done runs the caller must keep it immutable and alive — exactly
// the Lease.Retain/Release contract. done, if non-nil, runs exactly
// once: after the write that carried the message completes
// (successfully or not), or inline when the append is refused (nothing
// will carry it); both with no lock held. The one exception is a
// message still staged when an earlier write fails: it is dropped and
// its done runs under the batcher's lock, so done must never call back
// into the Batcher.
func (b *Batcher) Append(frames []Piece, prompt bool, done func()) error {
	n := 0
	for _, f := range frames {
		n += len(f.Hdr) + len(f.Body) + len(f.Trailer)
	}
	b.mu.Lock()
	if err := b.refusalLocked(n); err != nil {
		b.mu.Unlock()
		if done != nil {
			done()
		}
		return err
	}
	for i, f := range frames {
		b.buf = append(b.buf, f.Hdr...)
		c := cut{off: len(b.buf), body: f.Body}
		if i == len(frames)-1 {
			c.release = done
		}
		if len(c.body) > 0 || c.release != nil {
			b.cuts = append(b.cuts, c)
		}
		b.ext += len(f.Body)
		b.buf = append(b.buf, f.Trailer...)
	}
	b.pending += len(frames)
	b.stats.Frames += uint64(len(frames))
	err := b.afterAppendLocked(prompt)
	b.mu.Unlock()
	return err
}

// refusalLocked reports why a message of n bytes cannot be staged now,
// nil if it can.
func (b *Batcher) refusalLocked(n int) error {
	switch {
	case b.closed:
		return ErrBatcherClosed
	case b.err != nil:
		return b.err
	case b.writing && len(b.buf)+b.ext+n > b.maxBytes:
		b.stats.Backpressure++
		return ErrBackpressure
	}
	return nil
}

func (b *Batcher) afterAppendLocked(prompt bool) error {
	if q := uint64(len(b.buf) + b.ext); q > b.stats.MaxQueued {
		b.stats.MaxQueued = q
	}
	if !prompt && len(b.buf)+b.ext < b.flushBytes {
		if !b.armed {
			b.armed = true
			if b.timer == nil {
				b.timer = time.AfterFunc(b.delay, b.timerFlush)
			} else {
				b.timer.Reset(b.delay)
			}
		}
		return nil
	}
	if b.writing {
		// The active drainer picks the staged frames up before it
		// retires; starting a second write would reorder the stream.
		return nil
	}
	return b.drainLocked(&b.stats.NowFlushes)
}

func (b *Batcher) timerFlush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.armed = false
	if b.closed || b.pending == 0 || b.writing {
		return
	}
	_ = b.drainLocked(&b.stats.TimeFlushes)
}

// Flush writes any pending frames now, waiting out an active drainer
// (which carries everything staged with it) if there is one.
func (b *Batcher) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.closed {
			return ErrBatcherClosed
		}
		if !b.writing {
			if b.pending == 0 {
				return b.err
			}
			return b.drainLocked(&b.stats.TimeFlushes)
		}
		b.cond.Wait()
	}
}

// drainLocked makes the calling goroutine the drainer: it takes the
// staged bytes, writes them outside the lock, and loops until nothing
// staged remains (frames appended during a write ride the next one).
// Called with b.mu held and b.writing false; returns with b.mu held.
func (b *Batcher) drainLocked(cause *uint64) error {
	if b.armed {
		b.armed = false
		b.timer.Stop()
	}
	if b.err != nil {
		b.releaseStagedLocked()
		return b.err
	}
	if b.pending == 0 {
		return nil
	}
	buf, cuts := b.takeLocked()
	for {
		b.mu.Unlock()
		n, err := b.writeBatch(buf, cuts)
		// The write attempt is over, success or not: the bodies are no
		// longer needed. Hooks run outside the lock.
		for i := range cuts {
			if cuts[i].release != nil {
				cuts[i].release()
			}
			cuts[i] = cut{}
		}
		b.mu.Lock()
		b.stats.Batches++
		b.stats.Bytes += uint64(n)
		*cause++
		b.spare = buf[:0]
		b.spareCuts = cuts[:0]
		if err != nil && b.err == nil {
			b.err = err
		}
		if b.err == nil && b.pending > 0 {
			buf, cuts = b.takeLocked()
			continue
		}
		b.writing = false
		if b.err != nil {
			b.releaseStagedLocked()
		}
		b.cond.Broadcast()
		return b.err
	}
}

// takeLocked moves the staged frames to the drainer and resets staging
// onto the recycled spare buffers.
func (b *Batcher) takeLocked() ([]byte, []cut) {
	buf, cuts := b.buf, b.cuts
	b.buf, b.spare = b.spare[:0], nil
	b.cuts, b.spareCuts = b.spareCuts[:0], nil
	b.ext = 0
	b.pending = 0
	b.writing = true
	return buf, cuts
}

// writeBatch writes one taken batch with no lock held. The gather-list
// scratch (b.iov) is owned by the active drainer, of which there is at
// most one, so touching it unlocked is safe.
func (b *Batcher) writeBatch(buf []byte, cuts []cut) (n int64, err error) {
	if len(cuts) == 0 {
		var w int
		w, err = b.w.Write(buf)
		return int64(w), err
	}
	iov := b.iov[:0]
	prev := 0
	for _, c := range cuts {
		if c.off > prev {
			iov = append(iov, buf[prev:c.off])
		}
		if len(c.body) > 0 {
			iov = append(iov, c.body)
		}
		prev = c.off
	}
	if len(buf) > prev {
		iov = append(iov, buf[prev:])
	}
	b.iov = iov    // keep the grown backing array for the next flush
	b.iovArg = iov // WriteTo consumes its receiver; keep b.iov intact
	if vw, ok := b.w.(vecWriter); ok {
		n, err = vw.WriteVec(&b.iovArg)
	} else {
		// Plain writers get net.Buffers' sequential-Write fallback.
		n, err = b.iovArg.WriteTo(b.w)
	}
	b.iovArg = nil
	for i := range b.iov {
		b.iov[i] = nil // drop body references; the slots get reused
	}
	return n, err
}

// releaseStagedLocked drops staged frames that will never be written
// (sticky error), running their release hooks.
func (b *Batcher) releaseStagedLocked() {
	for i := range b.cuts {
		if b.cuts[i].release != nil {
			b.cuts[i].release()
		}
		b.cuts[i] = cut{}
	}
	b.cuts = b.cuts[:0]
	b.ext = 0
	b.buf = b.buf[:0]
	b.pending = 0
}

// Close flushes what it can and refuses further appends. It does not
// close the underlying writer. If a drainer is mid-write, Close waits
// for it (bounded by the writer's own deadline, if any).
func (b *Batcher) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.closed {
			return nil
		}
		if !b.writing {
			err := b.drainLocked(&b.stats.TimeFlushes)
			b.closed = true
			if b.timer != nil {
				b.timer.Stop()
			}
			b.cond.Broadcast()
			return err
		}
		b.cond.Wait()
	}
}

// Stats returns a snapshot of the counters.
func (b *Batcher) Stats() BatchStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
