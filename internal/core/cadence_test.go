package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/frontend"
	"repro/internal/manager"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/supervisor"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

type echoWorker struct{}

func (echoWorker) Class() string { return "echo" }
func (echoWorker) Process(_ context.Context, t *tacc.Task) (tacc.Blob, error) {
	return t.Input, nil
}

// TestAnnouncersKeepTheNetworkBeat: every announcer, built directly with
// nothing but a network, announces at that network's beat — no
// component has a period of its own, and none is silent. At a 10 ms beat
// each sends at least 20 announcements on the control group in 300 ms.
func TestAnnouncersKeepTheNetworkBeat(t *testing.T) {
	const (
		beat   = 10 * time.Millisecond
		window = 300 * time.Millisecond
		least  = 20
	)
	type announcer interface {
		Run(context.Context) error
		Addr() san.Addr
	}
	for _, tc := range []struct {
		name  string
		kind  string
		build func(net *san.Network) announcer
	}{
		{"frontend", supervisor.MsgAnnounce, func(net *san.Network) announcer {
			return frontend.New(frontend.Config{Name: "fe0", Node: "n0", Net: net})
		}},
		{"worker", supervisor.MsgAnnounce, func(net *san.Network) announcer {
			return stub.NewWorkerStub("w0", "n0", echoWorker{}, net, stub.WorkerConfig{})
		}},
		{"cache", supervisor.MsgAnnounce, func(net *san.Network) announcer {
			return vcache.NewService("cache0", net, "n0", vcache.NewPartition(1<<20, nil))
		}},
		{"supervisor", supervisor.MsgHello, func(net *san.Network) announcer {
			return supervisor.New(supervisor.Config{Node: "n0", Net: net})
		}},
		{"manager", stub.MsgBeacon, func(net *san.Network) announcer {
			return manager.New(manager.Config{Node: "n0", Net: net})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := san.NewNetwork(1, san.WithCodec(stub.WireCodec{}), san.WithBeacon(beat))
			defer net.Close()
			listener := net.Endpoint(san.Addr{Node: "n1", Proc: "listener"}, 1024)
			listener.Join(stub.GroupControl)
			a := tc.build(net)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); _ = a.Run(ctx) }()
			defer func() { cancel(); <-done }()

			n, end := 0, time.After(window)
			for counting := true; counting; {
				select {
				case msg := <-listener.Inbox():
					if msg.Kind == tc.kind && msg.From == a.Addr() {
						n++
					}
					msg.Release()
				case <-end:
					counting = false
				}
			}
			if n < least {
				t.Fatalf("%d announcements in %v at a %v beat, want at least %d", n, window, beat, least)
			}
			t.Logf("%d announcements in %v", n, window)
		})
	}
}
