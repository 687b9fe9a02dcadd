package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/tacc"
)

// stalledWriter is a connection whose reader has stalled: every write
// announces itself on entered, then blocks until its deadline d passes
// and fails as a timed-out socket write does (deadlineWriter's rule,
// with d in place of writeTimeout).
type stalledWriter struct {
	entered chan struct{}
	d       time.Duration
}

func (w stalledWriter) Write([]byte) (int, error) {
	select {
	case w.entered <- struct{}{}:
	default:
	}
	time.Sleep(w.d)
	return 0, os.ErrDeadlineExceeded
}

// TestBridgeStalledPeerPromptSenders: a worker writes its own result, so
// a peer whose reader has stalled must not wedge the senders. One prompt
// send becomes the drainer and sits in the stuck write; meanwhile a
// dispatch Call to that peer ends in a typed timeout, and sixteen
// workers answering with 16 KiB results fill the 1 MiB bound. Every send
// returns within the write deadline as written (nil), refused by
// backpressure, or refused by the closed peer (both ErrUnknownAddr at
// the SAN), and the failed write closes the peer.
func TestBridgeStalledPeerPromptSenders(t *testing.T) {
	netA := newWireNet(1)
	t.Cleanup(netA.Close)
	b, err := New(Config{Net: netA, Listen: "tcp:127.0.0.1:0", ID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	// Every endpoint registers before the peer does, so no advert of
	// theirs reaches its batcher: the first write to it is a result's.
	const workers, each = 16, 8 // 2 MiB of results against the 1 MiB bound
	first := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "first"}, 8)
	fe := netA.Endpoint(san.Addr{Node: "a-n0", Proc: "dispatch"}, 8)
	eps := make([]*san.Endpoint, workers)
	for i := range eps {
		eps[i] = netA.Endpoint(san.Addr{Node: "a-n0", Proc: fmt.Sprintf("w%d", i)}, 8)
	}

	const stall = 500 * time.Millisecond
	w := stalledWriter{entered: make(chan struct{}, 1), d: stall}
	near, far := net.Pipe()
	t.Cleanup(func() { _ = far.Close() })
	p := &peer{id: "stalled", conn: near, batch: NewBatcher(w, DefaultMaxBatchBytes), done: make(chan struct{})}
	if !b.registerPeer(p) {
		t.Fatal("bridge refused the stalled peer")
	}
	remote := san.Addr{Node: "z-n0", Proc: "fe0"}
	b.applyAdvertised(p, []san.Addr{remote})

	result := stub.ResultMsg{Blob: tacc.Blob{MIME: "image/sjpg", Data: make([]byte, 16<<10)}}
	send := func(ep *san.Endpoint) (time.Duration, error) {
		start := time.Now()
		err := ep.Send(remote, stub.MsgResult, result, 0)
		if err != nil && !errors.Is(err, san.ErrUnknownAddr) {
			t.Errorf("send: %v, want nil or ErrUnknownAddr", err)
		}
		return time.Since(start), err
	}

	drainer := make(chan error, 1)
	go func() {
		_, err := send(first)
		drainer <- err
	}()
	<-w.entered

	// The front end's half: its task stages behind the stuck write, and
	// the Call ends at its own deadline, not the write's.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	start := time.Now()
	_, err = fe.Call(ctx, remote, stub.MsgTask, stub.TaskMsg{Task: tacc.Task{Key: "k"}}, 0)
	cancel()
	if !errors.Is(err, san.ErrTimeout) || time.Since(start) >= stall {
		t.Fatalf("dispatch Call behind a stalled write: %v after %v, want ErrTimeout before the write deadline", err, time.Since(start))
	}

	var slowest atomic.Int64
	var refused atomic.Int64
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				d, err := send(ep)
				if err != nil {
					refused.Add(1)
				}
				for old := slowest.Load(); int64(d) > old && !slowest.CompareAndSwap(old, int64(d)); old = slowest.Load() {
				}
			}
		}()
	}
	wg.Wait()
	if d := time.Duration(slowest.Load()); d >= stall {
		t.Fatalf("a send behind the stalled write took %v, the whole write deadline", d)
	}
	if bp := p.batch.Stats().Backpressure; bp == 0 || refused.Load() == 0 {
		t.Fatalf("the bound never engaged: backpressure %d, refused sends %d", bp, refused.Load())
	}

	select {
	case err := <-drainer:
		if !errors.Is(err, san.ErrUnknownAddr) {
			t.Fatalf("the drainer's send returned %v, want its failed write as ErrUnknownAddr", err)
		}
	case <-time.After(stall + 5*time.Second):
		t.Fatal("the drainer never returned from its stalled write")
	}
	select {
	case <-p.done:
	default:
		t.Fatal("a write that hit its deadline left the peer open")
	}
	if d, err := send(fe); !errors.Is(err, san.ErrUnknownAddr) || d >= stall {
		t.Fatalf("send to the closed peer: %v after %v, want ErrUnknownAddr at once", err, d)
	}
}
