package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
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

// benchTopology is the benchmark's topology over startPair's two
// Systems, as bench/cluster.go boots it: the edge, two front ends and
// the front ends' HTTP listeners (bench/'s direct probe) on side A.
func benchTopology(a, b *Config) {
	a.Roles = Roles{Edge: true, FrontEnds: true, Monitor: true}
	a.FrontEnds = 2
	a.FEHTTP = "127.0.0.1"
	a.EdgeListen = "127.0.0.1:0"
}

// TestBenchTopologyFootprint boots the bench topology and bounds the
// live heap the boot adds: every endpoint's inbox at its size (the cache
// partitions and the front ends, whose inboxes queue Calls, at
// san.ServerInboxSize, the rest at san.InboxSize), plus bootAllowance.
func TestBenchTopologyFootprint(t *testing.T) {
	before := liveHeap()
	var servers int
	a, b := startPair(t, func(a, b *Config) {
		benchTopology(a, b)
		servers = b.CacheParts + a.FrontEnds
	})
	grown := float64(liveHeap()) - float64(before)
	endpoints := a.Net.Stats().Endpoints + b.Net.Stats().Endpoints
	slots := (endpoints-servers)*san.InboxSize + servers*san.ServerInboxSize
	inboxes := float64(slots) * float64(unsafe.Sizeof(san.Message{}))
	const mb = 1 << 20
	t.Logf("boot grew the live heap by %.2f MB: %d endpoints, %.2f MB of inboxes at their sizes", grown/mb, endpoints, inboxes/mb)
	if ceiling := inboxes + bootAllowance; grown > ceiling {
		t.Fatalf("boot grew the live heap by %.2f MB, ceiling %.2f MB (%d endpoints' inboxes %.2f MB + %.2f MB)",
			grown/mb, ceiling/mb, endpoints, inboxes/mb, float64(bootAllowance)/mb)
	}
}

// parentLivenessBytes is what one interval of the bench topology's
// liveness messages weighed before member.announce replaced five kinds
// of them: two front-end heartbeats of 41 B, two cache hellos of 30 B and
// three worker load reports of 140 B.
const parentLivenessBytes = 562

// Ceilings on the bench topology's idle deliveries an interval, both
// SANs together. They read 85.97 messages and 11,434 B while every
// worker decoded the whole beacon and every process took in every span
// digest and status report; with each message reaching only its readers
// they read ≈ 56 and ≈ 6,250, ≈ 46 and ≈ 5,190 once supervisors heard
// only the beacon's head, and ≈ 48 and ≈ 5,170 once the cache partitions
// heard it too.
const (
	idleMsgsCeiling  = 50
	idleBytesCeiling = 5800
)

// TestIdleControlTraffic pins the bench topology's idle control plane.
// Untapped, the two SANs deliver at most idleMsgsCeiling messages and
// idleBytesCeiling bytes an interval, B's one unicast per worker (its
// announcement to the manager) among them. Then taps listen: on each
// process's control group one member.announce from every front end and
// every cache partition, one beacon and one hello per supervisor, and
// nothing from a worker; on each process's beacon group one beacon head
// an interval, with no rows. The announcements of an interval weigh less
// than the liveness messages they replaced.
//
// Idle means nothing is being repaired. A worker multicasts its
// announcement until a beacon head names its manager, so the windows
// open once every worker is registered and two beacons have gone out
// since; and a window in which the manager restarted, spawned, reaped or
// re-registered anything (a worker whose WorkerTTL lapsed on a loaded
// host comes back and multicasts once) is not idle: it is logged with
// its cause and measured again, and the test fails naming the cause if
// no window of three is idle.
func TestIdleControlTraffic(t *testing.T) {
	a, b := startPair(t, benchTopology)
	waitFor(t, "every worker announcing to the manager", func() bool {
		return b.Manager().Stats().Workers == len(b.Workers())
	})
	beacons := b.Manager().Stats().BeaconsSent
	waitFor(t, "two beacons since every worker registered", func() bool {
		return b.Manager().Stats().BeaconsSent >= beacons+2
	})

	const attempts = 3
	for i := 1; ; i++ {
		before := repairs(b)
		w := measureIdle(a, b)
		after := repairs(b)
		if after == before {
			w.check(t, a, b)
			return
		}
		verdict := fmt.Sprintf("window %d is not idle: the manager's repairs went from %+v to %+v — a restarted worker multicasts its first announcement before it hears a beacon, so the taps would count it", i, before, after)
		if i == attempts {
			t.Fatal(verdict)
		}
		t.Log(verdict + "; measuring again")
	}
}

// repairCounts are the manager's counters that move only while it
// repairs or resizes the cluster.
type repairCounts struct {
	WorkerRestarts, FERestarts, CacheRestarts, Spawns, Reaps, Registrations uint64
}

func repairs(s *System) repairCounts {
	st := s.Manager().Stats()
	return repairCounts{st.WorkerRestarts, st.FERestarts, st.CacheRestarts, st.Spawns, st.Reaps, st.Registrations}
}

// idleTally is one tap's count of an idle window.
type idleTally struct {
	mu       sync.Mutex
	kinds    map[string]int // control-group deliveries by kind
	members  map[string]int // announcements by sender
	announce int            // their body bytes
	heads    int            // beacon-group beacons without rows
	other    int            // anything else on the beacon group
}

// idleWindow is what measureIdle saw: an untapped window's deliveries,
// then a tapped window's tallies, each over n intervals.
type idleWindow struct {
	n, msgsPer, bytesPer float64
	sent                 uint64 // B's unicasts in the untapped window
	tapN                 float64
	taps                 []*idleTally
}

// measureIdle runs TestIdleControlTraffic's two windows, untapped then
// tapped, 150 intervals each.
func measureIdle(a, b *System) idleWindow {
	const intervals = 150
	delivered := func() (msgs, bytes uint64) {
		for _, sys := range []*System{a, b} {
			st := sys.Net.Stats()
			msgs += st.Sent + st.McastSent - st.McastDropped
			bytes += st.Bytes
		}
		return msgs, bytes
	}
	var w idleWindow
	msgs0, bytes0 := delivered()
	sent0, start := b.Net.Stats().Sent, time.Now()
	time.Sleep(intervals * tick)
	msgs1, bytes1 := delivered()
	w.sent, w.n = b.Net.Stats().Sent-sent0, float64(time.Since(start))/float64(tick)
	w.msgsPer, w.bytesPer = float64(msgs1-msgs0)/w.n, float64(bytes1-bytes0)/w.n

	var eps []*san.Endpoint
	for _, sys := range []*System{a, b} {
		tl := &idleTally{kinds: map[string]int{}, members: map[string]int{}}
		ep := sys.Net.Endpoint(san.Addr{Node: sys.cfg.NodePrefix + "tap", Proc: "tap"}, 4096)
		ep.Join(stub.GroupControl)
		ep.Join(stub.GroupBeacon)
		go func() {
			for msg := range ep.Inbox() {
				tl.mu.Lock()
				if msg.Group == stub.GroupBeacon {
					if bc, ok := msg.Body.(stub.Beacon); ok && len(bc.Workers) == 0 {
						tl.heads++
					} else {
						tl.other++
					}
				} else {
					tl.kinds[msg.Kind]++
				}
				if m, ok := msg.Body.(supervisor.Member); ok {
					tl.members[m.Addr.String()]++
					tl.announce += msg.Size
				}
				tl.mu.Unlock()
				msg.Release()
			}
		}()
		w.taps, eps = append(w.taps, tl), append(eps, ep)
	}
	start = time.Now()
	time.Sleep(intervals * tick)
	w.tapN = float64(time.Since(start)) / float64(tick)
	for _, ep := range eps {
		ep.Close()
	}
	return w
}

// check asserts an idle window's numbers (see TestIdleControlTraffic).
func (w idleWindow) check(t *testing.T, a, b *System) {
	t.Helper()
	t.Logf("idle over %.1f intervals: %.2f messages and %.0f B delivered an interval", w.n, w.msgsPer, w.bytesPer)
	if w.msgsPer > idleMsgsCeiling || w.bytesPer > idleBytesCeiling {
		t.Errorf("idle deliveries %.2f messages and %.0f B an interval, want at most %d and %d",
			w.msgsPer, w.bytesPer, idleMsgsCeiling, idleBytesCeiling)
	}
	perInterval := func(count, want int, n float64) bool {
		return math.Abs(float64(count)/n-float64(want)) <= 0.1*float64(want)
	}
	workers := b.Workers()
	if !perInterval(int(w.sent), len(workers), w.n) {
		t.Errorf("B delivered %d unicasts in %.1f intervals, want one an interval from each of %d workers", w.sent, w.n, len(workers))
	}

	var members []string
	for _, fe := range a.FrontEnds() {
		members = append(members, fe.Addr().String())
	}
	for _, addr := range b.CacheNodes() {
		members = append(members, addr.String())
	}
	sort.Strings(members)
	n := w.tapN
	for i, tl := range w.taps {
		tl.mu.Lock()
		t.Logf("tap %d over %.1f intervals: %v, announcements %v, beacon heads %d", i, n, tl.kinds, tl.members, tl.heads)
		var heard []string
		for addr, count := range tl.members {
			heard = append(heard, addr)
			if !perInterval(count, 1, n) {
				t.Errorf("tap %d: %s announced %d times in %.1f intervals, want one an interval", i, addr, count, n)
			}
		}
		sort.Strings(heard)
		if len(heard) != len(members) || !slices.Equal(heard, members) {
			t.Errorf("tap %d heard announcements from %v, want exactly the front ends and caches %v", i, heard, members)
		}
		if !perInterval(tl.kinds[stub.MsgBeacon], 1, n) || !perInterval(tl.kinds[supervisor.MsgHello], 2, n) {
			t.Errorf("tap %d: %d beacons and %d supervisor hellos in %.1f intervals, want 1 and 2 an interval",
				i, tl.kinds[stub.MsgBeacon], tl.kinds[supervisor.MsgHello], n)
		}
		if !perInterval(tl.heads, 1, n) || tl.other != 0 {
			t.Errorf("tap %d: beacon group carried %d heads and %d other messages in %.1f intervals, want one head an interval and nothing else",
				i, tl.heads, tl.other, n)
		}
		tl.mu.Unlock()
	}

	workerBytes := 0
	for _, id := range workers {
		body, err := stub.EncodeBody(supervisor.MsgAnnounce, b.WorkerStub(id).Member())
		if err != nil {
			t.Fatal(err)
		}
		workerBytes += len(body)
	}
	w.taps[0].mu.Lock()
	multicast := float64(w.taps[0].announce) / n
	w.taps[0].mu.Unlock()
	total := multicast + float64(workerBytes)
	t.Logf("liveness bodies per interval: %.0f B (front ends and caches %.0f B, workers %d B), was %d B", total, multicast, workerBytes, parentLivenessBytes)
	if total >= parentLivenessBytes {
		t.Errorf("liveness bodies weigh %.0f B an interval, want under %d B", total, parentLivenessBytes)
	}
}
