package san

// Aliasing-safety tests for the zero-copy lease: the refcount must
// keep a live view's bytes stable while the pool churns underneath,
// and must turn the two corrupting mistakes (over-release, mutating a
// shared buffer) into immediate panics instead of silent reuse.

import (
	"bytes"
	"sync"
	"testing"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestLeaseLifecycle(t *testing.T) {
	l := NewLease(64)
	if got := l.Refs(); got != 1 {
		t.Fatalf("fresh lease has %d refs, want 1", got)
	}
	if len(l.Bytes()) != 0 {
		t.Fatalf("fresh lease buffer not empty: %d bytes", len(l.Bytes()))
	}
	l.SetBytes(append(l.Bytes(), "payload"...))
	if string(l.Bytes()) != "payload" {
		t.Fatalf("SetBytes lost contents: %q", l.Bytes())
	}
	l.Retain()
	if got := l.Refs(); got != 2 {
		t.Fatalf("after retain: %d refs, want 2", got)
	}
	l.Release()
	if got := l.Refs(); got != 1 {
		t.Fatalf("after release: %d refs, want 1", got)
	}
	l.Release()
	if got := l.Refs(); got != 0 {
		t.Fatalf("after final release: %d refs, want 0", got)
	}
}

func TestLeaseDoubleReleasePanics(t *testing.T) {
	// A dedicated non-pooled-size buffer so the over-released lease
	// cannot sneak back into the pool and corrupt another test.
	l := NewLease(maxPooledLease + 1)
	l.Release()
	mustPanic(t, "double release", l.Release)
}

func TestLeaseRetainAfterReleasePanics(t *testing.T) {
	l := NewLease(maxPooledLease + 1)
	l.Release()
	mustPanic(t, "retain of a released lease", l.Retain)
}

func TestLeaseSetBytesSharedPanics(t *testing.T) {
	l := NewLease(16)
	l.Retain()
	mustPanic(t, "SetBytes on a shared lease", func() { l.SetBytes([]byte("x")) })
	l.Release()
	l.Release()
}

// TestLeaseViewStableUnderDirtyReuse is the property the whole design
// exists for: a retained view keeps its bytes while the producer
// releases and the pool cycles recycled buffers full of garbage.
func TestLeaseViewStableUnderDirtyReuse(t *testing.T) {
	l := NewLease(256)
	l.SetBytes(append(l.Bytes(), bytes.Repeat([]byte{0x5A}, 200)...))
	l.Retain() // the consumer's view reference
	view := l.Bytes()[50:150]
	l.Release() // the producer moves on

	// Churn the pool hard: every recycled buffer gets scribbled over.
	// If the refcount failed to keep our lease out of the pool, the
	// view would now alias one of these dirty buffers.
	for i := 0; i < 1000; i++ {
		g := NewLease(256)
		g.SetBytes(append(g.Bytes(), bytes.Repeat([]byte{byte(i)}, 256)...))
		g.Release()
	}

	for i, b := range view {
		if b != 0x5A {
			t.Fatalf("view byte %d corrupted to %#x while lease was held", i, b)
		}
	}
	l.Release() // last reference: now recycling is allowed

	// If the pool hands the same lease object back, it must present as
	// fresh: an empty buffer. (sync.Pool makes no promise it will, so
	// only assert when it does.)
	if l2 := NewLease(256); l2 == l {
		if len(l2.Bytes()) != 0 {
			t.Fatal("recycled lease kept its old contents")
		}
		l2.Release()
	} else {
		l2.Release()
	}
}

// TestLeaseConcurrentViews: many concurrent holders read through their
// own retained references while releasing in arbitrary order — run
// under -race this checks the atomic refcount publishes the buffer
// safely and no release path mutates it early.
func TestLeaseConcurrentViews(t *testing.T) {
	const holders = 16
	l := NewLease(1024)
	l.SetBytes(append(l.Bytes(), bytes.Repeat([]byte{0xC3}, 1024)...))
	var wg sync.WaitGroup
	for i := 0; i < holders; i++ {
		l.Retain()
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			view := l.Bytes()[off : off+64]
			for _, b := range view {
				if b != 0xC3 {
					t.Errorf("concurrent view saw %#x", b)
					break
				}
			}
			l.Release()
		}(i * 64)
	}
	l.Release()
	wg.Wait()
}

func TestCloneBytes(t *testing.T) {
	if CloneBytes(nil) != nil {
		t.Fatal("CloneBytes(nil) != nil")
	}
	if CloneBytes([]byte{}) != nil {
		t.Fatal("CloneBytes(empty) != nil")
	}
	src := []byte("retain me")
	dup := CloneBytes(src)
	if !bytes.Equal(dup, src) {
		t.Fatalf("clone differs: %q", dup)
	}
	src[0] = 'X'
	if dup[0] == 'X' {
		t.Fatal("clone aliases its source")
	}
}
