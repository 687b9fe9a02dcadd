package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/distiller"
	"repro/internal/manager"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// cluster is the TranSend service in the repo's two-"process" split,
// inside this one OS process: System A (edge, two front ends, monitor)
// and System B (manager, workers, two cache partitions), each with its
// own SAN, joined only by core.TransportConfig over loopback TCP — the
// shape internal/core/multiproc_test.go:startPair boots. All traffic
// crosses the host loopback, never a real link.
type cluster struct {
	a, b *core.System
	dir  string // profile databases; removed by stop
}

const (
	nodePrefixA = "a-"
	nodePrefixB = "b-"
	cacheParts  = 2
	frontEnds   = 2
	nodesB      = 6
)

// boot starts both systems and waits until they are serviceable.
// Transport, front-end and edge tunables stay at their shipped
// defaults; only the topology, the cache budget and the origin are the
// benchmark's.
func boot(w *workload, scratch string) (*cluster, error) {
	reg := tacc.NewRegistry()
	distiller.RegisterAll(reg)
	// One worker per class the workloads' pipelines name. The keyword
	// filter serves mixed_zipf's one "keywords" user; it idles elsewhere,
	// which keeps the system identical across workloads.
	workers := map[string]int{
		distiller.ClassSGIF:    1,
		distiller.ClassSJPG:    1,
		distiller.ClassHTML:    1,
		distiller.ClassKeyword: 1,
	}
	// Spawn and reap disabled: the worker population is part of the
	// workload definition, not something a run may change.
	policy := manager.Policy{SpawnThreshold: 1e9, Damping: time.Hour, ReapThreshold: -1}

	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	c.b, err = core.Start(core.Config{
		Seed:           2,
		Roles:          core.Roles{Manager: true, Workers: true, Caches: true},
		NodePrefix:     nodePrefixB,
		Transport:      core.TransportConfig{Listen: "tcp:127.0.0.1:0"},
		DedicatedNodes: nodesB,
		CacheParts:     cacheParts,
		CacheBudget:    w.cacheBudget,
		Workers:        workers,
		Registry:       reg,
		Rules:          distiller.TranSendRules(),
		ProfileDir:     filepath.Join(dir, "b"),
		Policy:         policy,
	})
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("boot B: %w", err)
	}
	c.a, err = core.Start(core.Config{
		Seed:           1,
		Roles:          core.Roles{Edge: true, FrontEnds: true, Monitor: true},
		NodePrefix:     nodePrefixA,
		Transport:      core.TransportConfig{Listen: "tcp:127.0.0.1:0", Join: []string{c.b.Bridge.Advertise()}},
		DedicatedNodes: 4,
		FrontEnds:      frontEnds,
		RemoteCaches:   core.CacheAddrs(nodePrefixB, cacheParts, nodesB),
		Workers:        workers, // readiness expectation only (no worker role)
		Registry:       reg,
		Rules:          distiller.TranSendRules(),
		Origin:         &poolOrigin{bodies: w.bodies},
		ProfileDir:     filepath.Join(dir, "a"),
		Policy:         policy,
		FEHTTP:         "127.0.0.1",
		EdgeListen:     "127.0.0.1:0",
	})
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("boot A: %w", err)
	}
	if !c.a.Bridge.WaitPeers(1, 10*time.Second) {
		c.stop()
		return nil, fmt.Errorf("boot: bridges never met")
	}
	if !c.b.WaitReady(30*time.Second) || !c.a.WaitReady(30*time.Second) {
		c.stop()
		return nil, fmt.Errorf("boot: split cluster not ready")
	}
	for _, p := range profileSets {
		if err := c.a.SetProfile(p[0], p[1], p[2]); err != nil {
			c.stop()
			return nil, fmt.Errorf("boot: profile %s: %w", p[0], err)
		}
	}
	return c, nil
}

func (c *cluster) stop() {
	if c.a != nil {
		c.a.Stop()
	}
	if c.b != nil {
		c.b.Stop()
	}
	_ = os.RemoveAll(c.dir)
}

// edgeAddr is the front door: the only address the load generator uses.
func (c *cluster) edgeAddr() string { return c.a.Edge().HTTPAddr() }

// cacheStats sums both partitions' counters, fetched the way the
// monitor would: vcache.Client.StatsOf through a front end's client.
func (c *cluster) cacheStats(ctx context.Context) (vcache.Stats, error) {
	var sum vcache.Stats
	cl := c.a.FrontEnds()[0].Cache()
	for _, name := range cl.Nodes() {
		st, err := cl.StatsOf(ctx, name)
		if err != nil {
			return sum, fmt.Errorf("cache stats %s: %w", name, err)
		}
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Puts += st.Puts
		sum.Injects += st.Injects
		sum.Evictions += st.Evictions
		sum.Expired += st.Expired
		sum.Used += st.Used
		sum.Objects += st.Objects
	}
	return sum, nil
}

// setUp generates nothing: it boots the cluster for an already
// generated workload and sends the warm-up list through the front
// door once, checking every answer like a measured request.
func setUp(ctx context.Context, w *workload, ck *checker, scratch string) (*cluster, error) {
	c, err := boot(w, scratch)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, w.warmClients)
	for i := 0; i < w.warmClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(c.edgeAddr())
			defer cl.close()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(w.warm) {
					return
				}
				// Warm-up fills the cache, so any source is fine; the
				// body must still be right.
				if _, _, _, reason := cl.do(ctx, w.warm[n], ck, nil); reason != "" {
					errs <- fmt.Errorf("warm-up %s: %s", w.warm[n].url, reason)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		c.stop()
		return nil, err
	default:
	}
	return c, nil
}
