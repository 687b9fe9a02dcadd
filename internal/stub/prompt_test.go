package stub

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/supervisor"
	"repro/internal/vcache"
)

// promptFabric records, per message kind, the prompt flag the network
// hands the fabric with it.
type promptFabric struct {
	prompt map[string][]bool
}

func (f *promptFabric) Unicast(_, _ san.Addr, kind string, _ uint64, _, prompt bool, _ obs.TraceID, _ []byte, _ *san.Lease) bool {
	f.prompt[kind] = append(f.prompt[kind], prompt)
	return true
}
func (f *promptFabric) Multicast(san.Addr, string, string, []byte) {}
func (f *promptFabric) EndpointUp(san.Addr)                        {}
func (f *promptFabric) EndpointDown(san.Addr)                      {}

// TestFabricPromptKinds: the SAN hands the fabric prompt=true for every
// Call's request (cache.get, cache.stats, sup.cmd, wrk.task: each
// caller is blocked on the answer) and for a distillation's result,
// however it is sent. Every other reply (cache.got included) and every
// one-way Send of any other kind the wire carries is false.
func TestFabricPromptKinds(t *testing.T) {
	net := san.NewNetwork(1, san.WithCodec(WireCodec{}))
	fab := &promptFabric{prompt: make(map[string][]bool)}
	net.SetFabric(fab)
	src := net.Endpoint(san.Addr{Node: "a-n0", Proc: "src"}, 8)
	remote := san.Addr{Node: "b-n0", Proc: "dst"}

	samples := wireSamples()
	samples[vcache.MsgStats] = nil // a stats Call carries no body
	calls := []string{MsgTask, vcache.MsgGet, vcache.MsgStats, supervisor.MsgCmd}
	replies := []string{MsgResult, vcache.MsgGot, vcache.MsgStatsR, supervisor.MsgAck}
	expect := func(via string, kinds []string, want func(kind string) bool) {
		t.Helper()
		for _, kind := range kinds {
			if got := fab.prompt[kind]; len(got) != 1 || got[0] != want(kind) {
				t.Errorf("%s %s: the fabric saw prompt %v, want [%v]", via, kind, got, want(kind))
			}
		}
		clear(fab.prompt)
	}

	var sent []string
	for kind, body := range samples {
		if err := src.Send(remote, kind, body, 0); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sent = append(sent, kind)
	}
	expect("Send", sent, func(kind string) bool { return kind == MsgResult })

	for _, kind := range calls {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := src.Call(ctx, remote, kind, samples[kind], 0)
		cancel()
		if err == nil {
			t.Fatalf("%s: a Call nobody answers returned a reply", kind)
		}
	}
	expect("Call", calls, func(string) bool { return true })

	for i, kind := range replies {
		if err := src.Respond(san.Message{From: remote, CallID: uint64(i + 1)}, kind, samples[kind], 0); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	expect("Respond", replies, func(kind string) bool { return kind == MsgResult })
}
