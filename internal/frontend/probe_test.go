package frontend

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/san"
	"repro/internal/stub"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// loggingPartition is a cache partition that keeps the kind of every
// message it is sent, in arrival order: the front end's cache traffic
// as the wire would carry it.
type loggingPartition struct {
	ep *san.Endpoint

	mu    sync.Mutex
	kinds []string
	store map[string]vcache.PutReq
}

func startLoggingPartition(net *san.Network) *loggingPartition {
	p := &loggingPartition{
		ep:    net.Endpoint(san.Addr{Node: "c-node", Proc: "logged"}, 64),
		store: map[string]vcache.PutReq{},
	}
	go func() {
		for msg := range p.ep.Inbox() {
			p.serve(msg)
		}
	}()
	return p
}

func (p *loggingPartition) serve(msg san.Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.kinds = append(p.kinds, msg.Kind)
	switch req := msg.Body.(type) {
	case vcache.GetReq:
		e, ok := p.store[req.Key]
		viaElse := !ok && req.Else != ""
		if viaElse {
			e, ok = p.store[req.Else]
		}
		_ = p.ep.Respond(msg, vcache.MsgGot, vcache.GetResp{Found: ok, Data: e.Data, MIME: e.MIME, Else: ok && viaElse}, 32)
	case vcache.PutReq:
		p.store[req.Key] = req
	}
}

func (p *loggingPartition) put(key string, size int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.store[key] = vcache.PutReq{Key: key, Data: make([]byte, size), MIME: media.MIMESJPG}
}

// sent returns the kinds logged since the previous call.
func (p *loggingPartition) sent() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.kinds
	p.kinds = nil
	return out
}

// TestOneProbePerRequest: whatever a request finds in the cache, it
// asks once. A cold request sends one cache.get and then its two
// writes; a request whose variant is missing but whose original is
// cached sends one cache.get, fetches nothing and still answers
// "distilled"; a hit sends one; the overloaded front end's degraded
// serve sends one whether or not anything is there.
func TestOneProbePerRequest(t *testing.T) {
	net := san.NewNetwork(1, san.WithCodec(stub.WireCodec{}))
	part := startLoggingPartition(net)
	fe, static := startDistillFE(t, net, part.ep.Addr(), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	static.Put("http://a/cold.sjpg", tacc.Blob{MIME: media.MIMESJPG, Data: make([]byte, 9000)})
	part.put("orig|http://a/orig-only.sjpg", 6000) // the origin does not know this URL: a fetch would fail the request
	part.put("orig|http://a/overload.sjpg", 3000)

	steps := []struct {
		url, source string
		size        int
		sent        []string
	}{
		{"http://a/cold.sjpg", "distilled", 4500, []string{vcache.MsgGet, vcache.MsgPut, vcache.MsgInject}},
		{"http://a/cold.sjpg", "cache-distilled", 4500, []string{vcache.MsgGet}},
		{"http://a/orig-only.sjpg", "distilled", 3000, []string{vcache.MsgGet, vcache.MsgInject}},
	}
	for _, s := range steps {
		resp, err := fe.Do(ctx, Request{URL: s.url, User: "u"})
		if err != nil {
			t.Fatalf("%s: %v", s.url, err)
		}
		if resp.Source != s.source || resp.Blob.Size() != s.size {
			t.Fatalf("%s: source %q, %d bytes; want %s, %d", s.url, resp.Source, resp.Blob.Size(), s.source, s.size)
		}
		resp.Release()
		var sent []string
		waitFor(t, "the request's cache traffic at the partition", func() bool {
			sent = append(sent, part.sent()...)
			return len(sent) >= len(s.sent)
		})
		if !reflect.DeepEqual(sent, s.sent) {
			t.Fatalf("%s (%s): partition saw %v, want %v", s.url, s.source, sent, s.sent)
		}
	}
	if st := fe.Stats(); st.Requests != 3 || st.OriginFetches != 1 || st.CacheOriginal != 1 || st.CacheDistilled != 1 || st.Distilled != 2 || st.Errors != 0 {
		t.Fatalf("stats %+v: want 3 requests, 1 origin fetch, 1 cached original, 1 cached variant, 2 distilled", st)
	}

	resp, ok := fe.degradedServe(ctx, Request{URL: "http://a/overload.sjpg", User: "u"})
	if !ok || resp.Source != "original" || !resp.Degraded || resp.Blob.Size() != 3000 {
		t.Fatalf("degraded serve of a cached original: ok=%v %+v", ok, resp)
	}
	if _, ok := fe.degradedServe(ctx, Request{URL: "http://a/nothing.sjpg", User: "u"}); ok {
		t.Fatal("degraded serve answered from an empty cache")
	}
	if sent := part.sent(); !reflect.DeepEqual(sent, []string{vcache.MsgGet, vcache.MsgGet}) {
		t.Fatalf("two degraded serves: partition saw %v, want one cache.get each", sent)
	}
	if probes := net.Registry().Snapshot()["fe.fe0.cache_probes"]; probes != 5 {
		t.Fatalf("fe.fe0.cache_probes %v, want 5: three requests and two degraded serves, one each", probes)
	}
}
