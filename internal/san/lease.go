package san

// Lease: epoch-pooled, refcounted receive/encode buffers — the
// ownership token of the zero-copy data plane. The wire bytes a
// message body aliases are backed by a Lease; the buffer
// returns to the pool only after the last holder releases, so a
// decoded []byte view can never be recycled out from under a live
// reader.
//
// The contract is deliberately one-sided: Release is a PERFORMANCE
// obligation, never a safety one. A consumer that forgets to release
// merely costs the pool a miss (the garbage collector reclaims the
// buffer once the views die); corruption is only possible by the
// opposite mistake — releasing while still reading the bytes, or
// retaining a view past one's own release. Long-lived holders (the
// vcache store, anything that outlives the handling of one message)
// must copy-on-retain: clone the bytes they keep, then release.

import (
	"sync"
	"sync/atomic"
)

// maxPooledLease bounds the lease buffers kept in the pool so one huge
// payload does not pin memory forever.
const maxPooledLease = 1 << 20

// leaseMinCap is the smallest buffer a fresh lease carries; tiny
// payloads still get a reusable buffer worth pooling.
const leaseMinCap = 1 << 10

var leasePool = sync.Pool{New: func() any { return &Lease{} }}

// Lease is one refcounted pooled buffer. Acquire with NewLease (one
// reference), share with Retain, and drop every reference with
// Release; the buffer recycles when the count reaches zero. The zero
// value is not usable.
type Lease struct {
	buf  []byte
	refs atomic.Int32
}

// NewLease returns a lease holding one reference and an empty buffer
// with capacity at least n.
func NewLease(n int) *Lease {
	l := leasePool.Get().(*Lease)
	if cap(l.buf) < n {
		if n < leaseMinCap {
			n = leaseMinCap
		}
		l.buf = make([]byte, 0, n)
	} else {
		l.buf = l.buf[:0]
	}
	l.refs.Store(1)
	return l
}

// Bytes returns the lease's current contents. The slice (and any
// subslice of it) is valid until the caller's reference is released.
func (l *Lease) Bytes() []byte { return l.buf }

// SetBytes replaces the lease's contents, adopting b's backing array
// for future reuse. Only the sole owner (refs == 1) may call it —
// typically the producer, right after growing the buffer it filled.
func (l *Lease) SetBytes(b []byte) {
	if l.refs.Load() != 1 {
		panic("san: SetBytes on a shared lease")
	}
	l.buf = b
}

// Retain adds a reference: the holder promises a matching Release.
func (l *Lease) Retain() {
	if l.refs.Add(1) <= 1 {
		panic("san: retain of a released lease")
	}
}

// Release drops one reference; the last release recycles the buffer.
// Releasing more times than retained panics — that is the bug the
// refcount exists to catch, not a runtime condition. A nil lease (a nil
// body's, which encodes to no bytes) releases nothing.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	n := l.refs.Add(-1)
	if n < 0 {
		panic("san: lease released more times than retained")
	}
	if n == 0 && cap(l.buf) <= maxPooledLease {
		leasePool.Put(l)
	}
}

// Refs returns the current reference count. A producer that sees 1
// knows it is the sole holder and may mutate or recycle the buffer;
// any other value means views are live. (The count can only fall
// concurrently, never rise, once the producer stops sharing it.)
func (l *Lease) Refs() int32 { return int32(l.refs.Load()) }

// CloneBytes is the copy-on-retain helper: a private copy of b that no
// lease backs, safe to hold forever. A nil or empty input returns nil.
func CloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
