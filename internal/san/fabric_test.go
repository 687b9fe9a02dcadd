package san

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeFabric records what the network hands it and loops frames into
// a second network, standing in for the socket bridge.
type fakeFabric struct {
	peer     *Network
	unicasts int
	mcasts   int
	downs    []Addr
	noRoute  bool // report delivery failure
}

func (f *fakeFabric) Unicast(from, to Addr, kind string, callID uint64, reply, _ bool, trace obs.TraceID, wire []byte, lease *Lease) bool {
	f.unicasts++
	if f.noRoute {
		return false
	}
	return f.peer.InjectUnicast(from, to, kind, callID, reply, trace, wire, lease) == nil
}

func (f *fakeFabric) Multicast(from Addr, group, kind string, wire []byte) {
	f.mcasts++
	f.peer.InjectMulticast(from, group, kind, wire, nil)
}

func (f *fakeFabric) EndpointDown(a Addr) { f.downs = append(f.downs, a) }

// TestFabricSeam: with a fabric installed, sends to non-local
// addresses serialize once and re-enter the peer network through the
// inject APIs; local behavior is untouched.
func TestFabricSeam(t *testing.T) {
	local := NewNetwork(1)
	remote := NewNetwork(2)
	fab := &fakeFabric{peer: remote}
	local.SetFabric(fab)

	src := local.Endpoint(Addr{Node: "a-n0", Proc: "src"}, 8)
	dst := remote.Endpoint(Addr{Node: "b-n0", Proc: "dst"}, 8)

	// Unicast to a remote-only address goes through the fabric.
	if err := src.Send(dst.Addr(), "k", "payload", 7); err != nil {
		t.Fatalf("remote send: %v", err)
	}
	if fab.unicasts != 1 {
		t.Fatalf("fabric saw %d unicasts, want 1", fab.unicasts)
	}
	select {
	case msg := <-dst.Inbox():
		if msg.Body != "payload" {
			t.Fatalf("remote delivery body: %#v", msg.Body)
		}
		if msg.From != src.Addr() || msg.To != dst.Addr() {
			t.Fatalf("remote delivery addressing: %+v", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("remote delivery never arrived")
	}
	if st := remote.Stats(); st.Sent != 1 || st.WireDecodes != 1 || st.WireErrors != 0 {
		t.Fatalf("remote stats: %+v", st)
	}

	// A send the fabric cannot place counts as dropped AND surfaces
	// ErrUnknownAddr to the sender — the same answer a purely local
	// network gives for an unbound address, now observable across
	// processes.
	fab.noRoute = true
	before := local.Stats().Dropped
	if err := src.Send(Addr{Node: "nowhere", Proc: "nobody"}, "k", "y", 1); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("unroutable send: err=%v, want ErrUnknownAddr", err)
	}
	if got := local.Stats().Dropped; got != before+1 {
		t.Fatalf("dropped = %d, want %d", got, before+1)
	}
	fab.noRoute = false

	// Multicast mirrors to the fabric (encode-once), and the peer
	// fans out to its own members.
	w1 := remote.Endpoint(Addr{Node: "b-n1", Proc: "w1"}, 8)
	w1.Join("grp")
	src.Multicast("grp", "k", "mbody", 5)
	if fab.mcasts != 1 {
		t.Fatalf("fabric saw %d multicasts, want 1", fab.mcasts)
	}
	select {
	case msg := <-w1.Inbox():
		if msg.Group != "grp" || msg.Body != "mbody" {
			t.Fatalf("remote multicast delivery: %+v", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("remote multicast never arrived")
	}

	// Inject to an address nobody holds reads as a dropped datagram.
	if remote.InjectUnicast(src.Addr(), Addr{Node: "x", Proc: "y"}, "k", 0, false, 0, nil, nil) == nil {
		t.Fatal("inject to unbound address claimed delivery")
	}

	// A reply injection routes back into a pending Call: callID and
	// the reply flag survive the fabric hop.
	if remote.InjectUnicast(src.Addr(), dst.Addr(), "req", 42, false, 0, []byte("q"), nil) != nil {
		t.Fatal("request injection failed")
	}
	req := <-dst.Inbox()
	if req.CallID != 42 || req.Reply {
		t.Fatalf("injected request fields: %+v", req)
	}

	// Detaching restores ErrUnknownAddr for non-local sends.
	local.SetFabric(nil)
	if err := src.Send(dst.Addr(), "k", "z", 1); err == nil {
		t.Fatal("send without fabric to remote address succeeded")
	}
}

// TestFabricSeesEndpointTable: the fabric hears every address that
// leaves the endpoint table (Close, Drop) and nothing else — routes are
// node prefixes, so a registration tells it nothing — and a replaced
// endpoint (restart reclaiming its name) never invalidates its
// successor.
func TestFabricSeesEndpointTable(t *testing.T) {
	n := NewNetwork(1)
	pre := n.Endpoint(Addr{Node: "n0", Proc: "pre"}, 8)
	fab := &fakeFabric{peer: NewNetwork(9)}
	n.SetFabric(fab)

	ep := n.Endpoint(Addr{Node: "n0", Proc: "p"}, 8)
	// Replacement: the old endpoint's Close must not tear down the
	// address the new one holds.
	ep2 := n.Endpoint(ep.Addr(), 8)
	if len(fab.downs) != 0 {
		t.Fatalf("registration or replacement produced downs: %v", fab.downs)
	}
	ep2.Close()
	if len(fab.downs) != 1 || fab.downs[0] != ep2.Addr() {
		t.Fatalf("downs after close = %v", fab.downs)
	}
	n.Drop(pre.Addr())
	if len(fab.downs) != 2 || fab.downs[1] != pre.Addr() {
		t.Fatalf("downs after drop = %v", fab.downs)
	}
}

// TestRemoteSendEncodesBeforeLoss: a send to another process pays its
// encode before the loss draw, as a local one does, so a body with no
// layout is ErrCodec even when the datagram would have been lost.
func TestRemoteSendEncodesBeforeLoss(t *testing.T) {
	local := NewNetwork(1)
	remote := NewNetwork(2)
	fab := &fakeFabric{peer: remote}
	local.SetFabric(fab)
	src := local.Endpoint(Addr{Node: "a-n0", Proc: "src"}, 8)
	dst := remote.Endpoint(Addr{Node: "b-n0", Proc: "dst"}, 8)
	local.SetLoss(1, 0)
	if err := src.Send(dst.Addr(), "k", 42, 8); !errors.Is(err, ErrCodec) {
		t.Fatalf("unencodable remote send under total loss: err=%v, want ErrCodec", err)
	}
	if err := src.Send(dst.Addr(), "k", "lost", 8); err != nil || fab.unicasts != 0 {
		t.Fatalf("lost remote send: err=%v, fabric saw %d unicasts; want nil, 0", err, fab.unicasts)
	}
}

// TestInjectRespectsPartition: remote injections honor the receiving
// network's partition map, so a chaos partition isolates bridged
// traffic too.
func TestInjectRespectsPartition(t *testing.T) {
	n := NewNetwork(1)
	dst := n.Endpoint(Addr{Node: "n0", Proc: "dst"}, 8)
	dst.Join("grp")
	n.Partition(map[string]int{"n0": 1}) // remote senders land in group 0

	from := Addr{Node: "other", Proc: "src"}
	if n.InjectUnicast(from, dst.Addr(), "k", 0, false, 0, []byte("p"), nil) == nil {
		t.Fatal("unicast crossed a partition")
	}
	if got := n.InjectMulticast(from, "grp", "k", []byte("p"), nil); got != 0 {
		t.Fatalf("multicast crossed a partition to %d members", got)
	}
	n.Heal()
	if n.InjectUnicast(from, dst.Addr(), "k", 0, false, 0, []byte("p"), nil) != nil {
		t.Fatal("unicast failed after heal")
	}
	if got := n.InjectMulticast(from, "grp", "k", []byte("p"), nil); got != 1 {
		t.Fatalf("multicast reached %d members after heal, want 1", got)
	}
}

// TestInjectSaysWhy: InjectUnicast names its drop. No endpoint and a full
// inbox both wrap ErrUnknownAddr — nobody here will answer the message,
// so a transport may fail a remote Call at once — while a partition's
// drop is another error, which a transport keeps from the sender.
func TestInjectSaysWhy(t *testing.T) {
	n := NewNetwork(1)
	dst := n.Endpoint(Addr{Node: "n0", Proc: "dst"}, 1)
	from := Addr{Node: "other", Proc: "src"}
	inject := func(to Addr) error { return n.InjectUnicast(from, to, "k", 7, false, 0, []byte("p"), nil) }
	if err := inject(dst.Addr()); err != nil {
		t.Fatalf("first request: %v", err)
	}
	if err := inject(dst.Addr()); !errors.Is(err, ErrUnknownAddr) || !strings.Contains(err.Error(), "inbox full") {
		t.Fatalf("request to a full inbox: %v, want ErrUnknownAddr naming the full inbox", err)
	}
	if err := inject(Addr{Node: "n0", Proc: "ghost"}); !errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("request to an unheld address: %v, want ErrUnknownAddr", err)
	}
	<-dst.Inbox()
	n.Partition(map[string]int{"n0": 1})
	if err := inject(dst.Addr()); err == nil || errors.Is(err, ErrUnknownAddr) {
		t.Fatalf("request across a partition: %v, want a drop that is not ErrUnknownAddr", err)
	}
}

// TestDropRemovesEndpoint: Drop (process crash) detaches the address
// and group membership without goodbye traffic.
func TestDropRemovesEndpoint(t *testing.T) {
	n := NewNetwork(1)
	ep := n.Endpoint(Addr{Node: "n0", Proc: "p"}, 8)
	ep.Join("g")
	other := n.Endpoint(Addr{Node: "n0", Proc: "q"}, 8)
	n.Drop(ep.Addr())
	if n.Lookup(ep.Addr()) {
		t.Fatal("dropped endpoint still registered")
	}
	if got := other.Multicast("g", "k", nil, 8); got != 0 {
		t.Fatalf("dropped endpoint still received %d multicasts", got)
	}
	if _, open := <-ep.Inbox(); open {
		t.Fatal("dropped endpoint inbox still open")
	}
}
