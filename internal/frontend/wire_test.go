package frontend

import (
	"context"
	"testing"

	"repro/internal/media"
	"repro/internal/san"
	"repro/internal/tacc"
)

// TestFrontEndCachePathOverWire drives the front end's origin + cache
// path over the SAN: the vcache get/put protocol (byte payloads
// included) must round-trip through the codec, and repeated requests
// must hit the cache. A hit with
// nothing to distil is served like a distilled hit: the reply's view,
// not a copy, handed back once through Release. The partition was found
// by its announcement, and /status shows the ring's size.
func TestFrontEndCachePathOverWire(t *testing.T) {
	net := san.NewNetwork(1)
	fe, _, static := startFEOn(t, net, nil)
	if n := net.Registry().Snapshot()["fe.fe0.cache_partitions"]; n != 1 {
		t.Fatalf("fe.fe0.cache_partitions = %v, want the one partition heard", n)
	}
	static.Put("http://a/x.bin", tacc.Blob{MIME: media.MIMEOther, Data: make([]byte, 5000)})
	ctx := context.Background()

	resp, err := fe.Do(ctx, Request{URL: "http://a/x.bin", User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "original" || resp.Blob.Size() != 5000 {
		t.Fatalf("resp = %+v", resp)
	}
	hit, err := fe.Do(ctx, Request{URL: "http://a/x.bin", User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Source != "original" || hit.Blob.Size() != 5000 || hit.release == nil {
		t.Fatalf("hit = %s, %d bytes, release %v: want the original's view", hit.Source, hit.Blob.Size(), hit.release != nil)
	}
	release, releases := hit.release, 0
	hit.release = func() { releases++; release() }
	hit.Release()
	hit.Release()
	if releases != 1 {
		t.Fatalf("the view's release ran %d times, want once", releases)
	}
	st := fe.Stats()
	if st.OriginFetches != 1 {
		t.Fatalf("origin fetches = %d, want 1 (cache must absorb the repeat over wire)", st.OriginFetches)
	}
	if st.CacheOriginal != 1 || st.PassedThrough != 2 {
		t.Fatalf("cache-original hits = %d, passed through %d; want 1 and 2", st.CacheOriginal, st.PassedThrough)
	}

	ns := net.Stats()
	if ns.WireEncodes == 0 || ns.WireDecodes == 0 {
		t.Fatalf("codec never ran: %+v", ns)
	}
	if ns.WireErrors != 0 {
		t.Fatalf("%d front-end messages failed serialization", ns.WireErrors)
	}
}

// TestPairedProbeOverWire: the probe's two keys and the which-answered
// flag cross the codec. A second user's profile makes a new variant key
// for a URL whose original the first request cached, so the one probe
// is answered by its fallback key — as a leased view the front end
// copies out before it dispatches — and nothing is fetched twice.
func TestPairedProbeOverWire(t *testing.T) {
	net := san.NewNetwork(1)
	fe, static := startDistillFE(t, net, san.Addr{}, nil)
	static.Put("http://a/x.sjpg", tacc.Blob{MIME: media.MIMESJPG, Data: make([]byte, 9000)})
	if err := fe.cfg.Profiles.Set("bob", "quality", "10"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, step := range []struct{ user, source string }{
		{"alice", "distilled"},
		{"bob", "distilled"},
		{"bob", "cache-distilled"},
	} {
		resp, err := fe.Do(ctx, Request{URL: "http://a/x.sjpg", User: step.user})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != step.source || resp.Blob.Size() != 4500 {
			t.Fatalf("%s: source %q, %d bytes; want %s, 4500", step.user, resp.Source, resp.Blob.Size(), step.source)
		}
		resp.Release()
	}
	if st := fe.Stats(); st.OriginFetches != 1 || st.CacheOriginal != 1 || st.CacheDistilled != 1 {
		t.Fatalf("stats %+v: want 1 origin fetch, 1 original from cache, 1 variant from cache", st)
	}
	if probes := fe.Cache().Probes(); probes != 3 {
		t.Fatalf("%d cache probes for 3 requests", probes)
	}
	if ns := net.Stats(); ns.WireErrors != 0 {
		t.Fatalf("%d messages failed serialization", ns.WireErrors)
	}
}
