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
	"repro/internal/vcache"
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

// stall is the stalled writer's write deadline in these tests.
const stall = 500 * time.Millisecond

// stalledPeer starts a bridge on a fresh wire network, makes one
// endpoint per name in procs, then registers a peer whose reader has
// stalled and which owns the "z-" nodes, so the first write to it is
// the test's.
func stalledPeer(t *testing.T, procs ...string) (*san.Network, []*san.Endpoint, *peer, stalledWriter) {
	t.Helper()
	netA := san.NewNetwork(1)
	t.Cleanup(netA.Close)
	b, err := New(Config{Net: netA, Listen: "tcp:127.0.0.1:0", ID: "a-"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	eps := make([]*san.Endpoint, len(procs))
	for i, proc := range procs {
		eps[i] = netA.Endpoint(san.Addr{Node: "a-n0", Proc: proc}, 8)
	}
	w := stalledWriter{entered: make(chan struct{}, 1), d: stall}
	near, far := net.Pipe()
	t.Cleanup(func() { _ = far.Close() })
	p := &peer{id: "z-", conn: near, batch: NewBatcher(w, DefaultMaxBatchBytes), done: make(chan struct{})}
	if !b.registerPeer(p) {
		t.Fatal("bridge refused the stalled peer")
	}
	return netA, eps, p, w
}

// timed runs f and returns how long it took.
func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// maxDuration is a running maximum shared by concurrent senders.
type maxDuration struct{ v atomic.Int64 }

func (m *maxDuration) add(d time.Duration) {
	for old := m.v.Load(); int64(d) > old && !m.v.CompareAndSwap(old, int64(d)); old = m.v.Load() {
	}
}

func (m *maxDuration) get() time.Duration { return time.Duration(m.v.Load()) }

// expectDrainerFailed waits for the drainer's send, which blocked in the
// stalled write, and checks that it came back as ErrUnknownAddr after one
// write deadline, not more, and that the failed write closed the peer.
func expectDrainerFailed(t *testing.T, p *peer, drainer <-chan error, start time.Time) {
	t.Helper()
	select {
	case err := <-drainer:
		if !errors.Is(err, san.ErrUnknownAddr) {
			t.Fatalf("the drainer's send returned %v, want its failed write as ErrUnknownAddr", err)
		}
		if d := time.Since(start); d >= stall+stall/2 {
			t.Fatalf("the drainer's send took %v, more than one write deadline (%v)", d, stall)
		}
	case <-time.After(stall + 5*time.Second):
		t.Fatal("the drainer never returned from its stalled write")
	}
	select {
	case <-p.done:
	default:
		t.Fatal("a write that hit its deadline left the peer open")
	}
}

// TestBridgeStalledPeerPromptSenders: a worker writes its own result and
// a caller its own request, so a peer whose reader has stalled must not
// wedge the senders. In each case one prompt send becomes the drainer
// and sits in the stuck write for one write deadline, then returns
// ErrUnknownAddr, and the failed write closes the peer.
//   - results: meanwhile a dispatch Call to that peer ends in a typed
//     timeout, and sixteen workers answering with 16 KiB results fill the
//     1 MiB bound. Every send returns within the write deadline as written
//     (nil), refused by backpressure, or refused by the closed peer (both
//     ErrUnknownAddr at the SAN).
//   - probes: the drainer is a cache probe. A probe staged behind the
//     stuck write ends at its own deadline (ErrTimeout), and sixteen
//     front ends probing meanwhile each read a miss within theirs.
func TestBridgeStalledPeerPromptSenders(t *testing.T) {
	remote := san.Addr{Node: "z-n0", Proc: "fe0"}
	t.Run("results", func(t *testing.T) {
		const workers, each = 16, 8 // 2 MiB of results against the 1 MiB bound
		procs := []string{"first", "dispatch"}
		for i := 0; i < workers; i++ {
			procs = append(procs, fmt.Sprintf("w%d", i))
		}
		_, eps, p, w := stalledPeer(t, procs...)
		first, fe := eps[0], eps[1]

		result := stub.ResultMsg{Blob: tacc.Blob{MIME: "image/sjpg", Data: make([]byte, 16<<10)}}
		send := func(ep *san.Endpoint) (time.Duration, error) {
			var err error
			d := timed(func() { err = ep.Send(remote, stub.MsgResult, result, 0) })
			if err != nil && !errors.Is(err, san.ErrUnknownAddr) {
				t.Errorf("send: %v, want nil or ErrUnknownAddr", err)
			}
			return d, err
		}

		drainer, start := make(chan error, 1), time.Now()
		go func() {
			_, err := send(first)
			drainer <- err
		}()
		<-w.entered

		// The front end's half: its task stages behind the stuck write,
		// and the Call ends at its own deadline, not the write's.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		var err error
		d := timed(func() { _, err = fe.Call(ctx, remote, stub.MsgTask, stub.TaskMsg{Task: tacc.Task{Key: "k"}}, 0) })
		cancel()
		if !errors.Is(err, san.ErrTimeout) || d >= stall {
			t.Fatalf("dispatch Call behind a stalled write: %v after %v, want ErrTimeout before the write deadline", err, d)
		}

		var slowest maxDuration
		var refused atomic.Int64
		var wg sync.WaitGroup
		for _, ep := range eps[2:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < each; j++ {
					d, err := send(ep)
					if err != nil {
						refused.Add(1)
					}
					slowest.add(d)
				}
			}()
		}
		wg.Wait()
		if d := slowest.get(); d >= stall {
			t.Fatalf("a send behind the stalled write took %v, the whole write deadline", d)
		}
		if bp := p.batch.Stats().Backpressure; bp == 0 || refused.Load() == 0 {
			t.Fatalf("the bound never engaged: backpressure %d, refused sends %d", bp, refused.Load())
		}

		expectDrainerFailed(t, p, drainer, start)
		if d, err := send(fe); !errors.Is(err, san.ErrUnknownAddr) || d >= stall {
			t.Fatalf("send to the closed peer: %v after %v, want ErrUnknownAddr at once", err, d)
		}
	})

	t.Run("probes", func(t *testing.T) {
		const frontEnds, each = 16, 4
		procs := []string{"first", "staged"}
		for i := 0; i < frontEnds; i++ {
			procs = append(procs, fmt.Sprintf("fe%d", i))
		}
		_, eps, p, w := stalledPeer(t, procs...)
		probe := vcache.GetReq{Key: "http://origin1.example/obj42.sjpg|distill-sjpg#", Else: "orig|http://origin1.example/obj42.sjpg"}
		call := func(ep *san.Endpoint, timeout time.Duration) (time.Duration, error) {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			var err error
			d := timed(func() { _, err = ep.Call(ctx, remote, vcache.MsgGet, probe, 0) })
			return d, err
		}

		drainer, start := make(chan error, 1), time.Now()
		go func() {
			_, err := call(eps[0], time.Minute) // only the write deadline can end it
			drainer <- err
		}()
		<-w.entered

		if d, err := call(eps[1], 50*time.Millisecond); !errors.Is(err, san.ErrTimeout) || d >= stall {
			t.Fatalf("probe behind a stalled write: %v after %v, want ErrTimeout before the write deadline", err, d)
		}

		var slowest maxDuration
		var wg sync.WaitGroup
		for _, ep := range eps[2:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := vcache.NewClient(ep)
				c.Timeout = 20 * time.Millisecond
				c.AddNode("cache0", remote)
				for j := 0; j < each; j++ {
					var got vcache.GetResp
					slowest.add(timed(func() { got, _ = c.Probe(context.Background(), probe.Key, probe.Else, false) }))
					if got.Found {
						t.Errorf("a probe to a stalled peer found %+v", got)
					}
				}
			}()
		}
		wg.Wait()
		if d := slowest.get(); d >= stall {
			t.Fatalf("a probe behind the stalled write took %v, the whole write deadline", d)
		}

		expectDrainerFailed(t, p, drainer, start)
		if d, err := call(eps[1], time.Minute); !errors.Is(err, san.ErrUnknownAddr) || d >= stall {
			t.Fatalf("probe to the closed peer: %v after %v, want ErrUnknownAddr at once", err, d)
		}
	})
}

// TestBridgeStalledPeerCacheWriters: a cache write of 8 KiB and up is
// written by its own appender, so against a peer whose reader has
// stalled the first one becomes the drainer and waits one write deadline,
// and the rest stage behind it until the 1 MiB bound refuses them.
// Sixteen front ends writing 16 KiB Puts and Injects: every write is
// either handed to the SAN or refused by it and counted once in the
// client's write errors, only the drainer waits the write deadline, and
// none hangs.
func TestBridgeStalledPeerCacheWriters(t *testing.T) {
	const frontEnds, each = 16, 8 // 2 MiB of writes against the 1 MiB bound
	remote := san.Addr{Node: "z-n0", Proc: "cache0"}
	procs := make([]string, frontEnds)
	for i := range procs {
		procs[i] = fmt.Sprintf("fe%d", i)
	}
	netA, eps, p, w := stalledPeer(t, procs...)
	clients := make([]*vcache.Client, frontEnds)
	for i, ep := range eps {
		clients[i] = vcache.NewClient(ep)
		clients[i].AddNode("cache0", remote)
	}
	data := make([]byte, 16<<10)
	before := netA.Stats()

	var slowest maxDuration
	var waited atomic.Int64
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				key := fmt.Sprintf("http://origin1.example/obj%d-%d.sjpg", i, j)
				d := timed(func() {
					if j%2 == 0 {
						c.Put(context.Background(), "orig|"+key, data, "image/sjpg", 0)
					} else {
						c.Inject(context.Background(), key+"|distill-sjpg#", data, "image/sjpg", 0)
					}
				})
				if d >= stall/2 {
					waited.Add(1)
				}
				slowest.add(d)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(stall + 5*time.Second):
		t.Fatal("a cache write behind the stalled peer hung")
	}
	<-w.entered

	var writes, refused uint64
	for _, c := range clients {
		wr, rf := c.WriteStats()
		writes += wr
		refused += rf
	}
	after := netA.Stats()
	handed, dropped := after.Sent-before.Sent, after.Dropped-before.Dropped
	t.Logf("%d writes: %d handed to the SAN, %d refused (%d by backpressure); slowest %v",
		writes, handed, refused, p.batch.Stats().Backpressure, slowest.get())
	if writes != frontEnds*each || handed+dropped != writes || refused != dropped {
		t.Fatalf("%d writes, %d handed + %d dropped by the SAN, %d counted as write errors: want every write handed or counted once",
			writes, handed, dropped, refused)
	}
	if bp := p.batch.Stats().Backpressure; bp == 0 || refused <= bp {
		t.Fatalf("backpressure %d, write errors %d: want the bound engaged and the drainer's failed write counted too", bp, refused)
	}
	if n := waited.Load(); n != 1 || slowest.get() >= stall+stall/2 {
		t.Fatalf("%d writes waited on the stalled write, the slowest %v: want the drainer alone, for one write deadline", n, slowest.get())
	}
	select {
	case <-p.done:
	default:
		t.Fatal("a write that hit its deadline left the peer open")
	}
}
