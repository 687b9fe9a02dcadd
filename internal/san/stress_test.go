package san

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSendCloseJoin races senders against endpoint churn:
// receivers continuously close/re-register and join/leave groups while
// senders blast point-to-point and multicast traffic at them. Under
// -race this exercises the copy-on-write snapshot swap against every
// mutator; without it, it still shakes out lost-wakeup and
// send-on-closed bugs.
func TestConcurrentSendCloseJoin(t *testing.T) {
	n := newNet(1)
	const receivers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churning receivers: register, drain briefly, close, repeat.
	for r := 0; r < receivers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ep := n.Endpoint(Addr{Node: fmt.Sprintf("rn%d", r), Proc: "rx"}, 64)
				ep.Join("grp")
				deadline := time.After(time.Millisecond)
			drain:
				for {
					select {
					case _, ok := <-ep.Inbox():
						if !ok {
							break drain
						}
					case <-deadline:
						break drain
					}
				}
				if i%2 == 0 {
					ep.Leave("grp")
				}
				ep.Close()
			}
		}()
	}

	// Senders: point-to-point at churning addresses plus multicast.
	for s := 0; s < 4; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := n.Endpoint(Addr{Node: "senders", Proc: fmt.Sprintf("tx%d", s)}, 8)
			for i := 0; i < 3000; i++ {
				to := Addr{Node: fmt.Sprintf("rn%d", i%receivers), Proc: "rx"}
				_ = src.Send(to, "d", "x", 16) // unknown-addr errors expected mid-churn
				if i%8 == 0 {
					src.Multicast("grp", "beacon", "x", 32)
				}
			}
		}()
	}

	// Impairment writers race the senders too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			n.SetLoss(float64(i%3)*0.1, 0.05)
			n.Partition(map[string]int{"rn0": i % 2})
			time.Sleep(100 * time.Microsecond)
		}
		n.Heal()
		n.SetLoss(0, 0)
	}()

	done := make(chan struct{})
	go func() {
		// Senders and impairment writer finish on their own; receivers
		// need the stop signal.
		wg.Wait()
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress test wedged")
	}
}

// TestConcurrentDropNodeVsSend races node crashes against traffic.
func TestConcurrentDropNodeVsSend(t *testing.T) {
	n := newNet(7)
	var wg sync.WaitGroup
	for round := 0; round < 20; round++ {
		dst := n.Endpoint(Addr{Node: "victim", Proc: "p"}, 1024)
		go func() {
			for range dst.Inbox() {
			}
		}()
		for s := 0; s < 4; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := n.Endpoint(Addr{Node: "ok", Proc: fmt.Sprintf("s%d", s)}, 8)
				for i := 0; i < 50; i++ {
					_ = src.Send(Addr{Node: "victim", Proc: "p"}, "d", "x", 8)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.DropNode("victim")
		}()
		wg.Wait()
	}
	if n.Lookup(Addr{Node: "victim", Proc: "p"}) {
		t.Fatal("victim survived DropNode")
	}
}

// TestDeterministicLossSequence pins the per-endpoint rng: the same
// (network seed, address) pair must produce the same loss decisions
// run over run — the property the figure experiments rely on.
func TestDeterministicLossSequence(t *testing.T) {
	run := func() []bool {
		n := newNet(42)
		src := n.Endpoint(Addr{Node: "a", Proc: "s"}, 8)
		dst := n.Endpoint(Addr{Node: "b", Proc: "d"}, 4096)
		n.SetLoss(0.5, 0)
		out := make([]bool, 0, 200)
		for i := 0; i < 200; i++ {
			before := n.Stats().Sent
			if err := src.Send(dst.Addr(), "x", nil, 1); err != nil {
				t.Fatal(err)
			}
			out = append(out, n.Stats().Sent > before)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loss sequence diverged at %d", i)
		}
	}
}
