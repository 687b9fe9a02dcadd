package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/san"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// bootAllowance is the live heap a boot of the bench topology may add
// besides its inboxes. It measured 1.2–1.3 MB (plain, -race and -cover
// alike); the room above that is for other Go versions and build modes.
// What it still catches is a return of the reserve: five components at
// 4,096 slots and two span reporters at 1,024 add 3.5 MB past the
// inboxes the test counts. One component alone at 4,096 slots (0.64 MB)
// fits under it.
const bootAllowance = 3 << 20

// TestBenchTopologyFootprint boots the benchmark's topology — startPair's
// two Systems with the edge, two front ends and their HTTP adapters on
// side A, as bench/cluster.go boots it — and bounds the live heap the
// boot adds: every endpoint's inbox at its size (the cache partitions at
// san.ServerInboxSize, the rest at san.InboxSize), plus bootAllowance.
func TestBenchTopologyFootprint(t *testing.T) {
	before := liveHeap()
	var parts int
	a, b := startPair(t, func(a, b *Config) {
		a.Roles = Roles{Edge: true, FrontEnds: true, Monitor: true}
		a.FrontEnds = 2
		a.FEHTTP = "127.0.0.1"
		a.EdgeListen = "127.0.0.1:0"
		parts = b.CacheParts
	})
	grown := float64(liveHeap()) - float64(before)
	endpoints := a.Net.Stats().Endpoints + b.Net.Stats().Endpoints
	slots := (endpoints-parts)*san.InboxSize + parts*san.ServerInboxSize
	inboxes := float64(slots) * float64(unsafe.Sizeof(san.Message{}))
	const mb = 1 << 20
	t.Logf("boot grew the live heap by %.2f MB: %d endpoints, %.2f MB of inboxes at their sizes", grown/mb, endpoints, inboxes/mb)
	if ceiling := inboxes + bootAllowance; grown > ceiling {
		t.Fatalf("boot grew the live heap by %.2f MB, ceiling %.2f MB (%d endpoints' inboxes %.2f MB + %.2f MB)",
			grown/mb, ceiling/mb, endpoints, inboxes/mb, float64(bootAllowance)/mb)
	}
}
