package vcache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPartitionStress hammers a partition with concurrent
// Get/Put/Inject/Remove/Flush/Stats from many goroutines. Run under
// -race this is the lock's proof; the invariant checks catch
// budget-accounting corruption.
func TestPartitionStress(t *testing.T) {
	const budget = 64 << 20
	p := NewPartition(budget, nil)
	data := make([]byte, 2048)

	var workers sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("g%d-k%d", g%4, i%97)
				switch i % 7 {
				case 0, 1, 2:
					p.Get(key)
				case 3, 4:
					p.Put(key, data, "b", 0)
				case 5:
					p.Inject(key, data[:512], "b", time.Minute)
				case 6:
					p.Remove(key)
				}
			}
		}()
	}

	// Meanwhile one goroutine flushes periodically (legal at any time
	// for BASE data) and another reads the aggregates.
	stop := make(chan struct{})
	var background sync.WaitGroup
	background.Add(2)
	go func() {
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
				p.Flush()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	go func() {
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if used := p.Used(); used > budget {
					t.Errorf("Used %d exceeds budget %d", used, budget)
					return
				}
				p.Stats()
				p.Len()
			}
		}
	}()

	workers.Wait()
	close(stop)
	background.Wait()

	st := p.Stats()
	if st.Used > budget || st.Used < 0 {
		t.Fatalf("final Used %d outside [0, %d] (accounting corrupted)", st.Used, budget)
	}
	if got := p.Used(); int64(st.Used) != got {
		// Quiesced: the two views must agree.
		t.Fatalf("Stats().Used = %d but Used() = %d", st.Used, got)
	}
}

// TestPartitionBudgetInvariant checks that no interleaving of
// concurrent puts overruns the budget.
func TestPartitionBudgetInvariant(t *testing.T) {
	const budget = 1 << 20
	p := NewPartition(budget, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := make([]byte, 4096)
			for i := 0; i < 500; i++ {
				p.Put(fmt.Sprintf("g%d-%d", g, i), data, "b", 0)
				if used := p.Used(); used > budget {
					t.Errorf("Used %d > budget %d", used, budget)
					return
				}
			}
		}()
	}
	wg.Wait()
}
