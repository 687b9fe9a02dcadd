package core

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestParseRoles(t *testing.T) {
	cases := []struct {
		in   string
		want Roles
		err  bool
	}{
		{"", Roles{}, false},
		{"all", Roles{}, false},
		{"frontend,manager", Roles{FrontEnds: true, Manager: true}, false},
		{"fe, worker", Roles{FrontEnds: true, Workers: true}, false},
		{"cache,monitor,workers", Roles{Caches: true, Monitor: true, Workers: true}, false},
		{"mgr", Roles{Manager: true}, false},
		{"bogus", Roles{}, true},
		{",", Roles{}, true}, // nothing selected
	}
	for _, c := range cases {
		got, err := ParseRoles(c.in)
		if (err != nil) != c.err {
			t.Fatalf("ParseRoles(%q) err=%v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParseRoles(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	if !(Roles{}).All() {
		t.Fatal("zero Roles is not All")
	}
	if (Roles{Manager: true}).All() {
		t.Fatal("partial Roles claims All")
	}
}

// TestCacheAddrsMatchPlacement: the addresses CacheAddrs predicts are
// exactly where Start places the partitions — the contract that lets
// a peer process reach remote caches with no discovery protocol.
func TestCacheAddrsMatchPlacement(t *testing.T) {
	s := startTranSend(t, func(c *Config) {
		c.NodePrefix = "px-"
		c.CacheParts = 3
	})
	predicted := CacheAddrs("px-", 3, 6)
	actual := s.CacheNodes()
	if len(actual) != 3 {
		t.Fatalf("placed %d partitions, want 3", len(actual))
	}
	for name, want := range predicted {
		if got := actual[name]; got != want {
			t.Fatalf("cache %s placed at %v, predicted %v", name, got, want)
		}
	}
	for _, name := range s.Names(KindCache) {
		if !strings.HasPrefix(actual[name].Node, "px-node") {
			t.Fatalf("cache %s on unprefixed node %s", name, actual[name].Node)
		}
	}
}

// TestCacheCrashRespawn: killing a cache service silently makes the
// manager's cache process-peer duty respawn it at the same address,
// and requests keep succeeding throughout (BASE fallback).
func TestCacheCrashRespawn(t *testing.T) {
	s := startTranSend(t, func(c *Config) {
		c.CacheSuperviseTTL = 6 * tick
	})
	if !s.WaitReady(10 * time.Second) {
		t.Fatal("system not ready")
	}
	ctx := context.Background()
	url := "http://origin1.example/obj5.sjpg"
	if _, err := s.Request(ctx, url, "u"); err != nil {
		t.Fatal(err)
	}

	names := s.Names(KindCache)
	if len(names) == 0 {
		t.Fatal("no local caches")
	}
	victim := names[0]
	addrBefore := s.CacheNodes()[victim]
	restarts := s.Manager().Stats().CacheRestarts
	if err := s.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if err := s.Kill("no-such-cache"); err == nil {
		t.Fatal("Kill accepted an unknown name")
	}

	// Requests during the outage must still succeed.
	if _, err := s.Request(ctx, url, "u"); err != nil {
		t.Fatalf("request during cache outage: %v", err)
	}

	waitFor(t, "cache respawn", func() bool {
		return s.Manager().Stats().CacheRestarts > restarts
	})
	waitFor(t, "respawned cache answering", func() bool {
		return s.Net.Lookup(addrBefore)
	})
	if got := s.CacheNodes()[victim]; got != addrBefore {
		t.Fatalf("cache moved from %v to %v despite a live node", addrBefore, got)
	}
}

// TestSystemAccessors: the chaos-facing accessors resolve what the
// system is actually running.
func TestSystemAccessors(t *testing.T) {
	s := startTranSend(t, nil)
	if !s.WaitReady(10 * time.Second) {
		t.Fatal("system not ready")
	}
	workers := s.Workers()
	if len(workers) != 3 {
		t.Fatalf("Workers() = %v, want 3 ids", workers)
	}
	for _, id := range workers {
		if s.WorkerStub(id) == nil {
			t.Fatalf("no stub for tracked worker %s", id)
		}
		if addr, ok := s.Addr(id); !ok || addr.Node == "" {
			t.Fatalf("no node for tracked worker %s", id)
		}
	}
	if _, ok := s.Addr("ghost"); ok || s.WorkerStub("ghost") != nil {
		t.Fatal("accessors resolved an unknown worker")
	}
	if s.WorkerStub("fe0") != nil {
		t.Fatal("WorkerStub resolved a front end")
	}
	if addr, ok := s.Addr("fe0"); !ok || addr.Node == "" {
		t.Fatal("fe0 has no node")
	}
	if _, ok := s.Addr("feX"); ok {
		t.Fatal("unknown front end resolved to a node")
	}
}
