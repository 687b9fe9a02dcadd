package frontend

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/origin"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// shrinkWorker is a distiller stand-in: half the input.
type shrinkWorker struct{}

func (shrinkWorker) Class() string { return "distill-sjpg" }

func (shrinkWorker) Process(ctx context.Context, task *tacc.Task) (tacc.Blob, error) {
	return tacc.Blob{MIME: task.Input.MIME, Data: task.Input.Data[:len(task.Input.Data)/2]}, nil
}

// startDistillFE boots a front end whose every request runs a one-stage
// pipeline on a live shrinkWorker, with cache as its one partition: one
// worker, and a beacon that names it, is all a front end's stub needs
// of a manager.
func startDistillFE(t *testing.T, net *san.Network, cache san.Addr, mutate func(*Config)) (*FrontEnd, *origin.Static) {
	t.Helper()
	fe, cl, static := startFEOn(t, net, func(cfg *Config) {
		cfg.CacheNodes = map[string]san.Addr{cache.Proc: cache}
		cfg.ManagerStub = stub.ManagerStubConfig{CallTimeout: time.Second}
		cfg.Rules = func(url, mime string, profile map[string]string) tacc.Pipeline {
			return tacc.Pipeline{{Class: "distill-sjpg"}}
		}
		if mutate != nil {
			mutate(cfg)
		}
	})
	cl.AddNode("w-node", false)
	ws := stub.NewWorkerStub("w0", "w-node", shrinkWorker{}, net, stub.WorkerConfig{})
	if _, err := cl.Spawn("w-node", ws); err != nil {
		t.Fatal(err)
	}
	mgr := net.Endpoint(san.Addr{Node: "w-node", Proc: "manager"}, 64)
	mgr.Join(stub.GroupControl)
	mgr.Multicast(stub.GroupControl, stub.MsgBeacon, stub.Beacon{Manager: mgr.Addr(), Seq: 1, Workers: []stub.WorkerInfo{{ID: "w0", Class: "distill-sjpg", Addr: ws.Addr(), Node: "w-node"}}}, 128)
	waitFor(t, "worker visible to the front end", func() bool { return len(fe.ManagerStub().Workers("distill-sjpg")) == 1 })
	return fe, static
}

// TestMissDoesNotWaitOnCacheWrites: the front end's two cache writes
// are datagrams, so a partition that takes writes and never answers
// them costs a miss nothing. The partition here answers every probe
// with a miss and swallows every write; the cache timeout is an hour,
// so a write that waited for a receipt would run the request into its
// deadline instead of answering "distilled". Then the partition's
// endpoint is dropped mid-run: probes and writes are refused at once,
// the answer is still "distilled", and the refusals — the only failure
// signal a one-way write has — show up on the fe.* counters.
func TestMissDoesNotWaitOnCacheWrites(t *testing.T) {
	net := san.NewNetwork(1, san.WithCodec(stub.WireCodec{}))
	mute := net.Endpoint(san.Addr{Node: "c-node", Proc: "mute"}, 64)
	var puts, injects atomic.Int64
	go func() {
		for msg := range mute.Inbox() {
			switch msg.Kind {
			case vcache.MsgGet:
				_ = mute.Respond(msg, vcache.MsgGot, vcache.GetResp{}, 32)
			case vcache.MsgPut:
				puts.Add(1)
			case vcache.MsgInject:
				injects.Add(1)
			}
		}
	}()

	fe, static := startDistillFE(t, net, mute.Addr(), func(cfg *Config) { cfg.CacheTimeout = time.Hour })

	static.Put("http://a/one.sjpg", tacc.Blob{MIME: media.MIMESJPG, Data: make([]byte, 9000)})
	static.Put("http://a/two.sjpg", tacc.Blob{MIME: media.MIMESJPG, Data: make([]byte, 9000)})
	fetch := func(url string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		resp, err := fe.Do(ctx, Request{URL: url, User: "u"})
		if err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		if resp.Source != "distilled" || resp.Blob.Size() != 4500 {
			t.Fatalf("%s: source %q, %d bytes; want distilled, 4500", url, resp.Source, resp.Blob.Size())
		}
	}
	counter := func(key string) float64 { return net.Registry().Snapshot()["fe.fe0."+key] }

	fetch("http://a/one.sjpg")
	waitFor(t, "both writes at the partition", func() bool { return puts.Load() == 1 && injects.Load() == 1 })
	if w, e := counter("cache_writes"), counter("cache_write_errors"); w != 2 || e != 0 {
		t.Fatalf("cache_writes %v cache_write_errors %v, want 2 and 0", w, e)
	}

	net.Drop(mute.Addr())
	fetch("http://a/two.sjpg")
	if w, e := counter("cache_writes"), counter("cache_write_errors"); w != 4 || e != 2 {
		t.Fatalf("partition dropped: cache_writes %v cache_write_errors %v, want 4 and 2", w, e)
	}
	if st := fe.Stats(); st.Distilled != 2 || st.Errors != 0 || st.Fallbacks != 0 {
		t.Fatalf("stats %+v, want 2 distilled and nothing else", st)
	}
}
