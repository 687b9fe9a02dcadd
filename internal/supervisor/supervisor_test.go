package supervisor_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
)

// fakeHost records every action; failures are switchable per op.
type fakeHost struct {
	mu       sync.Mutex
	restarts map[string]int // op+":"+target -> count
	failNext map[string]error
	hold     map[string]chan struct{} // op+":"+target -> the action blocks until closed
}

func newFakeHost() *fakeHost {
	return &fakeHost{
		restarts: make(map[string]int),
		failNext: make(map[string]error),
	}
}

func (h *fakeHost) act(op, target string) error {
	key := op + ":" + target
	h.mu.Lock()
	hold := h.hold[key]
	h.mu.Unlock()
	if hold != nil {
		<-hold
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.failNext[key]; err != nil {
		return err
	}
	h.restarts[key]++
	return nil
}

func (h *fakeHost) count(op, target string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.restarts[op+":"+target]
}

func (h *fakeHost) Restart(name string) error      { return h.act(supervisor.OpRestart, name) }
func (h *fakeHost) SpawnWorker(class string) error { return h.act(supervisor.OpSpawnWorker, class) }
func (h *fakeHost) ReapWorker(id string) error     { return h.act(supervisor.OpReap, id) }

// Roster is a fixed two-row table: enough to see it ride the hello.
func (h *fakeHost) Roster() []supervisor.Row {
	return []supervisor.Row{{Name: "cache0", Kind: supervisor.KindCache, Node: "b-node0"}, {Name: "sup", Node: "b-node0"}}
}

// softCap is the result cache's soft capacity in the cache tests.
const softCap = 4

// startSup boots a supervisor on a fresh network and returns it plus a
// client endpoint for issuing commands.
func startSup(t *testing.T, host supervisor.Host) (*supervisor.Supervisor, *san.Endpoint) {
	t.Helper()
	net := san.NewNetwork(1, san.WithBeacon(5*time.Millisecond))
	sup := supervisor.New(supervisor.Config{
		Name: "sup", Node: "n0", Net: net, Prefix: "b-", Host: host,
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go sup.Run(ctx)

	client := net.Endpoint(san.Addr{Node: "c0", Proc: "client"}, 64)
	return sup, client
}

func call(t *testing.T, client *san.Endpoint, to san.Addr, cmd supervisor.Command) supervisor.Ack {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := client.Call(ctx, to, supervisor.MsgCmd, cmd, 64)
	if err != nil {
		t.Fatalf("command %+v: %v", cmd, err)
	}
	ack, ok := resp.Body.(supervisor.Ack)
	if !ok {
		t.Fatalf("reply body %T", resp.Body)
	}
	return ack
}

// TestCommandsExecuteThroughHost: every restart/spawn/reap op reaches
// the host exactly once and acks OK, and a redelivery of the same
// command id is answered from the result cache, not executed again. The
// three per-kind restart spellings retired with PR 13's senders, and
// the forwarded disable, are unknown ops now: refused, zero host calls.
func TestCommandsExecuteThroughHost(t *testing.T) {
	host := newFakeHost()
	sup, client := startSup(t, host)

	ops := []struct{ op, target string }{
		{supervisor.OpRestart, "fe1"},
		{supervisor.OpSpawnWorker, "echo"},
		{supervisor.OpReap, "echo.7"},
	}
	for i, c := range ops {
		cmd := supervisor.Command{ID: uint64(i + 1), Origin: "t", Op: c.op, Target: c.target}
		for _, delivery := range []string{"first", "redelivered"} {
			ack := call(t, client, sup.Addr(), cmd)
			if !ack.OK || ack.ID != cmd.ID {
				t.Fatalf("%s (%s): ack %+v", c.op, delivery, ack)
			}
			if got := host.count(c.op, c.target); got != 1 {
				t.Fatalf("%s (%s) reached the host %d times", c.op, delivery, got)
			}
		}
	}
	if st := sup.Stats(); st.Commands != uint64(len(ops)) || st.Dupes != uint64(len(ops)) {
		t.Fatalf("stats %+v, want %d commands + %d dupes", st, len(ops), len(ops))
	}
	for i, c := range []struct{ op, target string }{
		{"restart-frontend", "fe0"}, {"restart-cache", "cache1"}, {"restart-worker", "echo.3"},
		{"disable", "echo.3"}, // no sender: a hot upgrade is a restart
	} {
		ack := call(t, client, sup.Addr(), supervisor.Command{ID: uint64(50 + i), Origin: "t", Op: c.op, Target: c.target})
		if ack.OK || !strings.Contains(ack.Err, "unknown op") || host.count(supervisor.OpRestart, c.target) != 0 {
			t.Fatalf("retired spelling %s: ack %+v, %d host calls", c.op, ack, host.count(supervisor.OpRestart, c.target))
		}
	}

	// A supervisor is respawned by its own process's exit observer, never
	// by a command it would have to ack through the endpoint it closes.
	if ack := call(t, client, sup.Addr(), supervisor.Command{ID: 100, Origin: "t", Op: supervisor.OpRestart, Target: "sup"}); ack.OK {
		t.Fatal("restart aimed at the supervisor itself acked OK")
	}
	if host.count(supervisor.OpRestart, "sup") != 0 {
		t.Fatal("restart aimed at the supervisor itself reached the host")
	}
	// Remote fault injection is gone: a process's components are crashed
	// through that process's own /kill, never over the SAN.
	if ack := call(t, client, sup.Addr(), supervisor.Command{ID: 101, Origin: "t", Op: "kill", Target: "cache0"}); ack.OK || !strings.Contains(ack.Err, "unknown op") {
		t.Fatalf("retired kill op: ack %+v, want an unknown-op refusal", ack)
	}
}

// TestSlowCommandStallsNothingElse: a restart that waits on a draining
// component (a front end finishing its slowest request) runs off the
// supervisor's loop. Hellos keep flowing, a command for another
// component is executed meanwhile, and a retry of the slow command
// itself — its origin timed out and re-sent the id — waits for the one
// execution in progress and is answered from its result: the host is
// called once.
func TestSlowCommandStallsNothingElse(t *testing.T) {
	host := newFakeHost()
	release := make(chan struct{})
	host.hold = map[string]chan struct{}{supervisor.OpRestart + ":fe0": release}
	sup, client := startSup(t, host)

	slow := supervisor.Command{ID: 1, Origin: "mgr/a", Op: supervisor.OpRestart, Target: "fe0"}
	acks := make(chan supervisor.Ack, 2)
	for i := 0; i < 2; i++ { // the command and its retry
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			resp, _ := client.Call(ctx, sup.Addr(), supervisor.MsgCmd, slow, 64)
			ack, _ := resp.Body.(supervisor.Ack) // a failed call reads as a refusal below
			acks <- ack
		}()
	}
	if ack := call(t, client, sup.Addr(), supervisor.Command{ID: 2, Origin: "mgr/a", Op: supervisor.OpSpawnWorker, Target: "echo"}); !ack.OK {
		t.Fatalf("a command behind a slow one: %+v", ack)
	}
	before := sup.Stats().Hellos
	deadline := time.Now().Add(2 * time.Second)
	for sup.Stats().Hellos < before+3 {
		if time.Now().After(deadline) {
			t.Fatal("hellos stopped while a command was executing")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case ack := <-acks:
		t.Fatalf("the held restart acked early: %+v", ack)
	default:
	}
	close(release)
	for i := 0; i < 2; i++ {
		if ack := <-acks; !ack.OK {
			t.Fatalf("slow restart, delivery %d: %+v", i, ack)
		}
	}
	if got := host.count(supervisor.OpRestart, "fe0"); got != 1 {
		t.Fatalf("the retry of an in-flight command reached the host: %d restarts", got)
	}
	if st := sup.Stats(); st.Commands != 2 || st.Dupes != 1 {
		t.Fatalf("stats %+v, want 2 commands + 1 dupe", st)
	}
}

// TestDuplicateCommandIsIdempotent: redelivering a command (same
// origin and id) returns the cached ack without re-executing — the
// property that makes retry-after-lost-ack safe.
func TestDuplicateCommandIsIdempotent(t *testing.T) {
	host := newFakeHost()
	sup, client := startSup(t, host)

	cmd := supervisor.Command{ID: 7, Origin: "mgr/a", Op: supervisor.OpRestart, Target: "fe0"}
	first := call(t, client, sup.Addr(), cmd)
	second := call(t, client, sup.Addr(), cmd)
	if !first.OK || !second.OK {
		t.Fatalf("acks: %+v / %+v", first, second)
	}
	if got := host.count(supervisor.OpRestart, "fe0"); got != 1 {
		t.Fatalf("duplicate delivery executed the restart %d times", got)
	}
	if st := sup.Stats(); st.Dupes != 1 || st.Commands != 1 {
		t.Fatalf("stats %+v, want 1 command + 1 dupe", st)
	}

	// A different id from the same origin is a new incident.
	third := call(t, client, sup.Addr(), supervisor.Command{ID: 8, Origin: "mgr/a", Op: supervisor.OpRestart, Target: "fe0"})
	if !third.OK || host.count(supervisor.OpRestart, "fe0") != 2 {
		t.Fatalf("new incident not executed (count %d)", host.count(supervisor.OpRestart, "fe0"))
	}
}

// TestFailedCommandAcksError: a host error comes back in the ack, and
// failures are NOT cached — a retry with the same id re-executes, so
// a transient refusal cannot be pinned against the incident's id.
func TestFailedCommandAcksError(t *testing.T) {
	host := newFakeHost()
	host.failNext[supervisor.OpRestart+":cache0"] = fmt.Errorf("node is down")
	sup, client := startSup(t, host)

	ack := call(t, client, sup.Addr(), supervisor.Command{ID: 1, Origin: "t", Op: supervisor.OpRestart, Target: "cache0"})
	if ack.OK || ack.Err == "" {
		t.Fatalf("ack %+v, want error", ack)
	}
	if st := sup.Stats(); st.Failures != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The transient condition clears; the SAME command id must now
	// execute for real instead of replaying the cached refusal.
	host.mu.Lock()
	delete(host.failNext, supervisor.OpRestart+":cache0")
	host.mu.Unlock()
	ack = call(t, client, sup.Addr(), supervisor.Command{ID: 1, Origin: "t", Op: supervisor.OpRestart, Target: "cache0"})
	if !ack.OK {
		t.Fatalf("retry after transient failure replayed the refusal: %+v", ack)
	}
	if got := host.count(supervisor.OpRestart, "cache0"); got != 1 {
		t.Fatalf("retry executed %d times, want 1", got)
	}
	// Unknown op also errors cleanly.
	ack = call(t, client, sup.Addr(), supervisor.Command{ID: 2, Origin: "t", Op: "frobnicate", Target: "x"})
	if ack.OK {
		t.Fatalf("unknown op acked OK")
	}
}

// TestHeartbeatsAnnouncePrefix: hellos carry the address and prefix a
// manager needs for ownership resolution, and the host's roster.
func TestHeartbeatsAnnouncePrefix(t *testing.T) {
	host := newFakeHost()
	sup, client := startSup(t, host)

	watcher := client
	watcher.Join(supervisor.GroupControl)

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case msg := <-watcher.Inbox():
			if msg.Kind != supervisor.MsgHello {
				continue
			}
			hb, ok := msg.Body.(supervisor.HelloMsg)
			if !ok {
				t.Fatalf("hello body %T", msg.Body)
			}
			if hb.Addr != sup.Addr() || hb.Prefix != "b-" || hb.Name != "sup" || !reflect.DeepEqual(hb.Roster, host.Roster()) {
				t.Fatalf("hello %+v", hb)
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("no hello heartbeat observed")
}

// TestOwnerTieGoesToLowestAddress: a respawned supervisor hellos from a
// new address under its old prefix while its old address still sits in
// a watcher's table. Every watcher must pick the same one of the two,
// whatever order its map iterates in: the longer prefix first, then the
// lowest address.
func TestOwnerTieGoesToLowestAddress(t *testing.T) {
	old := supervisor.HelloMsg{Name: "sup", Addr: san.Addr{Node: "b-node0", Proc: "sup"}, Prefix: "b-"}
	moved := supervisor.HelloMsg{Name: "sup", Addr: san.Addr{Node: "b-node4", Proc: "sup"}, Prefix: "b-"}
	for i := 0; i < 1000; i++ {
		sups := map[string]supervisor.HelloMsg{moved.Addr.String(): moved, old.Addr.String(): old}
		if got, ok := supervisor.Owner("b-node2", sups); !ok || got.Addr != old.Addr {
			t.Fatalf("map %d: owner %v, want the lowest address %v", i, got.Addr, old.Addr)
		}
	}
	longer := supervisor.HelloMsg{Name: "sup", Addr: san.Addr{Node: "b-x0", Proc: "sup"}, Prefix: "b-x"}
	sups := map[string]supervisor.HelloMsg{"1": old, "2": moved, "3": longer}
	if got, _ := supervisor.Owner("b-x1", sups); got.Addr != longer.Addr {
		t.Fatalf("owner %v, want the longest prefix %v", got.Addr, longer.Addr)
	}
}

// TestResultCacheRetentionUnderRetryStorm: a storm of distinct
// commands overflowing the cache's soft capacity must NOT evict
// results still inside their retry window — redelivering any of them
// has to answer from the cache instead of re-executing (the
// double-restart bug age-gated eviction exists to prevent). Only the
// hard cap, and results past their retention age, may be shed.
func TestResultCacheRetentionUnderRetryStorm(t *testing.T) {
	host := newFakeHost()
	net := san.NewNetwork(1)
	sup := supervisor.New(supervisor.Config{
		Name: "sup", Node: "n0", Net: net, Prefix: "n", Host: host,
		ResultCacheCap:  softCap,
		ResultRetention: time.Hour, // nothing ages out during the test
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go sup.Run(ctx)
	client := net.Endpoint(san.Addr{Node: "c0", Proc: "client"}, 64)

	// 10 distinct incidents: 2.5x the soft cap, well under the hard cap.
	const storm = 10
	for i := 1; i <= storm; i++ {
		target := fmt.Sprintf("w%d", i)
		if ack := call(t, client, sup.Addr(), supervisor.Command{ID: uint64(i), Origin: "mgr/a", Op: supervisor.OpRestart, Target: target}); !ack.OK {
			t.Fatalf("command %d: %+v", i, ack)
		}
	}
	// Every incident — including the very first, which pure-FIFO
	// eviction at cap 4 would have discarded six commands ago — must
	// still answer idempotently.
	for i := 1; i <= storm; i++ {
		target := fmt.Sprintf("w%d", i)
		ack := call(t, client, sup.Addr(), supervisor.Command{ID: uint64(i), Origin: "mgr/a", Op: supervisor.OpRestart, Target: target})
		if !ack.OK {
			t.Fatalf("redelivery %d refused: %+v", i, ack)
		}
		if got := host.count(supervisor.OpRestart, target); got != 1 {
			t.Fatalf("redelivery of in-retention command %d re-executed the restart (%d times)", i, got)
		}
	}
	if st := sup.Stats(); st.Dupes != storm || st.Commands != storm {
		t.Fatalf("stats %+v, want %d commands + %d dupes", st, storm, storm)
	}

	// The hard cap still bounds memory when age cannot: push past
	// cap*hardFactor and verify the cache sheds down to it.
	hard := softCap * supervisor.ResultCacheHardFactor
	for i := storm + 1; i <= hard+20; i++ {
		target := fmt.Sprintf("w%d", i)
		if ack := call(t, client, sup.Addr(), supervisor.Command{ID: uint64(i), Origin: "mgr/a", Op: supervisor.OpRestart, Target: target}); !ack.OK {
			t.Fatalf("command %d: %+v", i, ack)
		}
	}
	if cached := sup.CachedResults(); cached > hard {
		t.Fatalf("result cache holds %d entries, hard cap is %d", cached, hard)
	}
}

// TestResultCacheAgedEvictionRestoresCapacity: once results age past
// their retention window the soft cap reasserts itself, and a
// redelivery of an aged-out command re-executes — acceptable, because
// an origin still retrying after the retention window has violated
// the retry contract the window encodes.
func TestResultCacheAgedEvictionRestoresCapacity(t *testing.T) {
	host := newFakeHost()
	net := san.NewNetwork(2)
	sup := supervisor.New(supervisor.Config{
		Name: "sup", Node: "n0", Net: net, Prefix: "n", Host: host,
		ResultCacheCap:  softCap,
		ResultRetention: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go sup.Run(ctx)
	client := net.Endpoint(san.Addr{Node: "c0", Proc: "client"}, 64)

	for i := 1; i <= 10; i++ {
		call(t, client, sup.Addr(), supervisor.Command{ID: uint64(i), Origin: "mgr/a", Op: supervisor.OpRestart, Target: fmt.Sprintf("w%d", i)})
	}
	time.Sleep(25 * time.Millisecond) // everything ages out of retention
	// The next completion triggers eviction down to the soft cap.
	call(t, client, sup.Addr(), supervisor.Command{ID: 11, Origin: "mgr/a", Op: supervisor.OpRestart, Target: "w11"})
	if cached := sup.CachedResults(); cached > softCap {
		t.Fatalf("aged results not evicted: %d cached, soft cap %d", cached, softCap)
	}
	// An aged-out incident re-executes on redelivery — exactly once more.
	call(t, client, sup.Addr(), supervisor.Command{ID: 1, Origin: "mgr/a", Op: supervisor.OpRestart, Target: "w1"})
	if got := host.count(supervisor.OpRestart, "w1"); got != 2 {
		t.Fatalf("aged redelivery executed %d times total, want 2", got)
	}
}

// TestStaleEpochCommandFenced: the supervisor refuses commands stamped
// with an epoch older than the highest it has observed — from commands
// or from beacon heads via EpochFrom — so a deposed primary can never
// double-restart a component. Epoch 0 stays unfenced for operator
// tooling.
func TestStaleEpochCommandFenced(t *testing.T) {
	host := newFakeHost()
	net := san.NewNetwork(3, san.WithBeacon(5*time.Millisecond))
	sup := supervisor.New(supervisor.Config{
		Name: "sup", Node: "n0", Net: net, Prefix: "n", Host: host,
		EpochFrom: func(kind string, body any) (uint64, bool) {
			b, ok := body.(stub.Beacon)
			return b.Epoch, ok && kind == stub.MsgBeacon
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go sup.Run(ctx)
	client := net.Endpoint(san.Addr{Node: "c0", Proc: "client"}, 64)

	// Epoch 3 command executes and raises the watermark.
	if ack := call(t, client, sup.Addr(), supervisor.Command{ID: 1, Origin: "mgr/a", Op: supervisor.OpRestart, Target: "w0", Epoch: 3}); !ack.OK {
		t.Fatalf("epoch-3 command refused: %+v", ack)
	}
	// A deposed primary's epoch-2 command is fenced: refused, never
	// executed.
	ack := call(t, client, sup.Addr(), supervisor.Command{ID: 9, Origin: "mgr/b", Op: supervisor.OpRestart, Target: "w0", Epoch: 2})
	if ack.OK {
		t.Fatal("stale-epoch command executed")
	}
	if got := host.count(supervisor.OpRestart, "w0"); got != 1 {
		t.Fatalf("stale-epoch command reached the host (%d executions)", got)
	}
	if st := sup.Stats(); st.StaleEpoch != 1 {
		t.Fatalf("stats %+v, want 1 stale-epoch refusal", st)
	}
	// Epoch 0 is no election claim at all: always accepted.
	if ack := call(t, client, sup.Addr(), supervisor.Command{ID: 10, Origin: "op/cli", Op: supervisor.OpRestart, Target: "w1", Epoch: 0}); !ack.OK {
		t.Fatalf("unfenced command refused: %+v", ack)
	}

	// Beacon heads raise the watermark without any command: an epoch-7
	// head fences even the regime that was valid a moment ago.
	beaconer := net.Endpoint(san.Addr{Node: "m0", Proc: "mgr"}, 16)
	beaconer.Multicast(supervisor.GroupBeacon, stub.MsgBeacon, stub.Beacon{Manager: beaconer.Addr(), Epoch: 7}, 16)
	waitFor := time.Now().Add(2 * time.Second)
	for sup.Epoch() < 7 && time.Now().Before(waitFor) {
		time.Sleep(time.Millisecond)
	}
	if sup.Epoch() != 7 {
		t.Fatalf("beacon-observed epoch = %d, want 7", sup.Epoch())
	}
	ack = call(t, client, sup.Addr(), supervisor.Command{ID: 11, Origin: "mgr/a", Op: supervisor.OpRestart, Target: "w0", Epoch: 3})
	if ack.OK {
		t.Fatal("command from a beacon-deposed epoch executed")
	}
}
