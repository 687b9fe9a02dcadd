package stub

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/san"
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

// TestFabricPromptKinds: the SAN hands the fabric prompt=true for a
// distillation's task and result, and false for every other body the
// wire carries (cache probes and their answers, cache writes,
// announcements, beacons, commands, reports), by Send; and the task's
// Call and the result's Respond are prompt too.
func TestFabricPromptKinds(t *testing.T) {
	net := san.NewNetwork(1, san.WithCodec(WireCodec{}))
	fab := &promptFabric{prompt: make(map[string][]bool)}
	net.SetFabric(fab)
	src := net.Endpoint(san.Addr{Node: "a-n0", Proc: "src"}, 8)
	remote := san.Addr{Node: "b-n0", Proc: "dst"}

	samples := wireSamples()
	for kind, body := range samples {
		if err := src.Send(remote, kind, body, 0); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := src.Call(ctx, remote, MsgTask, samples[MsgTask], 0); err == nil {
		t.Fatal("a Call nobody answers returned a reply")
	}
	if err := src.Respond(san.Message{From: remote, CallID: 7}, MsgResult, samples[MsgResult], 0); err != nil {
		t.Fatal(err)
	}

	for kind := range samples {
		want, sends := kind == MsgTask || kind == MsgResult, 1
		if want {
			sends = 2
		}
		got := fab.prompt[kind]
		if len(got) != sends {
			t.Fatalf("%s: the fabric saw %d sends, want %d", kind, len(got), sends)
		}
		for _, p := range got {
			if p != want {
				t.Errorf("%s: prompt=%v, want %v", kind, p, want)
			}
		}
	}
}
