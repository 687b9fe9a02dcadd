package repro

// BenchmarkMicro and its allocation gate over the micro-benchmark
// table (microbench_test.go), plus the two live benchmarks nothing
// else in the tree runs: the manager's real beacon fan-out and a whole
// in-process request. Paper figures are cmd/experiments rows; the
// two-process end-to-end and per-layer numbers are bench/.

import (
	"context"
	"flag"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distiller"
	"repro/internal/manager"
	"repro/internal/media"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/tacc"
	"repro/internal/trace"
)

// BenchmarkMicro prints the table's timings: leaf costs, single run —
// bench/ holds the ten-window versions of the layers it also measures.
func BenchmarkMicro(b *testing.B) {
	for _, mb := range MicroBenches {
		b.Run(mb.Name, func(b *testing.B) {
			if err := mb.F(b); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestMicroCeilings is the allocation gate: every row against its
// ceilings. testing.Benchmark runs for -test.benchtime, and allocs/op
// does not need the default second to settle, so the test shortens the
// flag for its own duration.
func TestMicroCeilings(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime")
	defer benchtime.Value.Set(benchtime.Value.String())
	if err := benchtime.Value.Set("200ms"); err != nil {
		t.Fatal(err)
	}
	for _, mb := range MicroBenches {
		var failed error
		r := testing.Benchmark(func(b *testing.B) {
			if failed == nil {
				failed = mb.F(b)
			}
		})
		if failed != nil {
			t.Errorf("%s: %v", mb.Name, failed)
			continue
		}
		// Fractional, so amortized pool misses stay visible.
		allocs := float64(r.MemAllocs) / float64(r.N)
		bytes := float64(r.MemBytes) / float64(r.N)
		t.Logf("%-20s %10d ns/op %8.2f allocs/op (max %.1f) %10.1f B/op", mb.Name, r.NsPerOp(), allocs, mb.MaxAllocs, bytes)
		if allocs > mb.MaxAllocs {
			t.Errorf("%s: %.2f allocs/op, ceiling %.1f", mb.Name, allocs, mb.MaxAllocs)
		}
		if mb.MaxBytes > 0 && bytes > mb.MaxBytes {
			t.Errorf("%s: %.0f B/op, ceiling %.0f", mb.Name, bytes, mb.MaxBytes)
		}
	}
}

// BenchmarkSANMulticastBeaconWire is the encode-once fanout: a
// 16-member group and a beacon-shaped body — the manager's actual
// fanout.
func BenchmarkSANMulticastBeaconWire(b *testing.B) {
	net := wireNet(1)
	const members = 16
	workers := []stub.WorkerInfo{{ID: "w0", Class: "echo", Addr: san.Addr{Node: "n1", Proc: "w0"}, Node: "n1", QLen: 2.5}}
	beacon := stub.Beacon{Manager: san.Addr{Node: "mgr", Proc: "manager"}, Seq: 1, Workers: workers}
	for i := 0; i < members; i++ {
		ep := net.Endpoint(san.Addr{Node: "m", Proc: fmt.Sprintf("p%d", i)}, 4096)
		ep.Join("grp")
		go func() {
			for range ep.Inbox() {
			}
		}()
	}
	src := net.Endpoint(san.Addr{Node: "senders", Proc: "src"}, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Multicast("grp", stub.MsgBeacon, beacon, 128)
	}
	if st := net.Stats(); st.WireEncodes != uint64(b.N) {
		b.Fatalf("encode-once violated: %d encodes for %d multicasts", st.WireEncodes, b.N)
	}
}

// BenchmarkEndToEndRequest measures a whole-request path on the live
// system (cache-warm distilled hits).
func BenchmarkEndToEndRequest(b *testing.B) {
	registry := tacc.NewRegistry()
	distiller.RegisterAll(registry)
	sys, err := core.Start(core.Config{
		Seed:           1,
		DedicatedNodes: 6,
		FrontEnds:      1,
		CacheParts:     2,
		Workers:        map[string]int{distiller.ClassSJPG: 2},
		Registry:       registry,
		Rules:          distiller.TranSendRules(),
		Policy:         manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Stop()
	if !sys.WaitReady(10 * time.Second) {
		b.Fatal("system did not come up")
	}
	ctx := context.Background()
	url := trace.ObjectURL(42, media.MIMESJPG)
	if _, err := sys.Request(ctx, url, "u"); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Request(ctx, url, "u"); err != nil {
			b.Fatal(err)
		}
	}
}
