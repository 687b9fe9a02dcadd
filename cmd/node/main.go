// Command node runs one SNS cluster member as a real OS process: any
// subset of the roles (front ends, manager, workers, caches, monitor,
// edge) attached to the cluster-wide SAN over the socket transport
// (internal/transport). A cluster is however many node processes you
// start, joined through any one of them.
//
// Two-terminal TranSend cluster on loopback:
//
//	# terminal 1 — control plane: manager, workers, caches
//	go run ./cmd/node -listen tcp:127.0.0.1:7401 -prefix b \
//	    -roles manager,worker,cache
//
//	# terminal 2 — serving plane: front ends + monitor, joins terminal 1
//	go run ./cmd/node -listen tcp:127.0.0.1:7402 -prefix a \
//	    -roles frontend,monitor -join tcp:127.0.0.1:7401 \
//	    -cache-host b -http :8089
//
//	curl 'localhost:8089/fetch?url=http://origin1.example/obj42.sjpg&user=alice'
//	curl 'localhost:8089/status'
//
// With no flags but -http, one process hosts every role — the TranSend
// proxy on localhost:
//
//	go run ./cmd/node -http 127.0.0.1:8089
//
//	GET /fetch?url=<synthetic-url>&user=<id>   proxy + distill a page
//	GET /fetch?url=...&raw=1                   bypass distillation
//	GET /prefs?user=<id>&key=<k>&val=<v>       set a profile entry
//	GET /prefs?user=<id>                       show a profile
//	GET /status[?format=text]                  metrics map / monitor view
//	GET /metrics, /trace?id=<hex>              Prometheus text, span tree
//	GET /kill?component=<name>                 fault injection: any hosted component by name
//
// Synthetic URLs look like http://origin7.example/obj123.sjpg — any
// obj<N>.<sgif|sjpg|html> works; content is generated deterministically
// by the simulated origin universe.
//
// Every message between the two terminals crosses a real TCP
// connection as length-framed, CRC-protected, batched wire bytes.
//
// -selftest N runs N requests against the cluster after it reports
// ready, prints a JSON summary (requests, failures, wire/frame error
// counters, batching figures), and exits non-zero on any failure —
// the mode CI's two-process smoke test uses. -selftest-kill NAME
// additionally SIGKILLs the named component (a cache partition hosted
// by a peer process) mid-run through that process's supervisor, then
// asserts the manager's process-peer duty respawned it by supervisor
// delegation with zero failed requests — the cross-process
// self-healing smoke. -selftest-overload N additionally fires a
// concurrent burst past the front end's admission bound (set it low
// with -fe-max-inflight, and set -cache-ttl so warm entries go stale)
// and asserts the degradation ladder held: degraded serves and typed
// sheds, never an unexplained failure — the overload smoke.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/distiller"
	"repro/internal/edge"
	"repro/internal/frontend"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/supervisor"
	"repro/internal/tacc"
	"repro/internal/vcache"
)

// nodeOptions is what the flags say beyond the cluster configuration:
// how this process serves, and whether it tests itself and exits.
type nodeOptions struct {
	roles        string // as given, for the startup log line
	httpAddr     string
	readyTimeout time.Duration
	selftest     selftestOpts // n > 0 selects selftest mode
}

// configFromFlags parses args on fs and maps them onto the core.Config
// this process starts with.
func configFromFlags(fs *flag.FlagSet, args []string) (core.Config, nodeOptions, error) {
	listen := fs.String("listen", "tcp:127.0.0.1:0", "transport bridge listen address (tcp:host:port or unix:/path)")
	join := fs.String("join", "", "comma-separated seed bridge addresses to join")
	id := fs.String("id", "", "bridge id (default: -prefix, then the listen address)")
	prefix := fs.String("prefix", "", "node-name prefix; must be unique per process (required with -join or when joined)")
	rolesFlag := fs.String("roles", "all", "roles to host: frontend,manager,worker,cache,monitor,edge (or 'all')")
	cacheHost := fs.String("cache-host", "", "node prefix of the process hosting the cache partitions (when the cache role is remote)")
	frontEnds := fs.Int("frontends", 2, "front ends (frontend role)")
	managers := fs.Int("managers", 1, "manager replicas hosted in this process (manager role)")
	managerRank := fs.Int("manager-rank", 0, "election rank of this process's first manager replica; global rank 0 boots as the acting primary, everyone else standby")
	cacheParts := fs.Int("caches", 2, "cache partitions (cluster-wide count; used to compute remote addresses too)")
	nodes := fs.Int("nodes", 8, "dedicated cluster nodes in this process")
	cacheNodes := fs.Int("cache-nodes", 0, "dedicated node count of the cache-hosting process (default: -nodes)")
	overflow := fs.Int("overflow", 2, "overflow pool nodes")
	spawnH := fs.Float64("H", 10, "spawn threshold (avg queue length)")
	dampD := fs.Duration("D", 5*time.Second, "spawn damping window")
	profileDir := fs.String("profiles", "", "profile DB directory (empty = temp)")
	httpAddr := fs.String("http", "", "serve the TranSend HTTP API on this address (frontend role)")
	edgeListen := fs.String("edge-listen", "", "serve the L7 front door on this address (edge role): one listener balancing across every FE replica heard heartbeating")
	feHTTP := fs.String("fe-http", "", "bind an HTTP adapter for every local front end on this host (port auto-assigned) and advertise it in FE heartbeats — what the edge routes to")
	edgeRetryBudget := fs.Float64("edge-retry-budget", 0.5, "edge retry budget: retries allowed per request, as a fraction (0 disables transparent retry)")
	reqDeadline := fs.Duration("request-deadline", 0, "end-to-end deadline stamped onto requests arriving without one (0 = none)")
	feMaxInflight := fs.Int("fe-max-inflight", 0, "per-front-end admitted request bound; past it requests degrade to stale cache or shed (0 = default)")
	feHighWater := fs.Float64("fe-queue-highwater", 0, "shed at admission when the least-loaded worker's queue estimate exceeds this (0 = disabled)")
	cacheTTL := fs.Duration("cache-ttl", 0, "cache entry freshness TTL; expired entries survive as stale data for degraded service (0 = never stale)")
	selftest := fs.Int("selftest", 0, "run N requests after ready, print a JSON summary, and exit")
	selftestKill := fs.String("selftest-kill", "", "mid-selftest, kill this cache component via its process's supervisor and assert a delegated respawn (requires the manager role here)")
	selftestSpacing := fs.Duration("selftest-spacing", 0, "pause between selftest requests (stretches the workload across externally injected faults)")
	selftestEpoch := fs.Uint64("selftest-expect-epoch", 0, "after the request loop, require a local manager replica to be acting primary at this election epoch or later (the failover smoke: SIGKILL the rank-0 process mid-run, assert the standby here took over)")
	selftestOverload := fs.Int("selftest-overload", 0, "after the request loop, fire a concurrent burst of N requests past the admission bound and require sheds > 0, degraded serves > 0, and no other failure (the overload smoke; pair with -fe-max-inflight and -cache-ttl)")
	readyTimeout := fs.Duration("ready-timeout", 30*time.Second, "how long to wait for the cluster to become serviceable")
	traceSample := fs.Int("trace-sample", 0, "request-trace sampling: record 1 in N requests (0 = default 1/64, 1 = every request, negative = off; shed/degraded/expired requests always record)")
	traceSlow := fs.Duration("trace-slow", 0, "log any traced request slower than this to stderr (0 = disabled)")
	seed := fs.Int64("seed", 0, "random seed (0 = time-based)")
	if err := fs.Parse(args); err != nil {
		return core.Config{}, nodeOptions{}, err
	}

	roles, err := core.ParseRoles(*rolesFlag)
	if err != nil {
		return core.Config{}, nodeOptions{}, err
	}
	if roles.Edge && *edgeListen == "" {
		return core.Config{}, nodeOptions{}, errors.New("node: the edge role requires -edge-listen")
	}
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	if *prefix == "" && *join != "" {
		return core.Config{}, nodeOptions{}, errors.New("node: -prefix is required when joining a cluster (node names must be unique per process)")
	}
	var joins []string
	for _, a := range strings.Split(*join, ",") {
		if a = strings.TrimSpace(a); a != "" {
			joins = append(joins, a)
		}
	}

	registry := tacc.NewRegistry()
	distiller.RegisterAll(registry)
	workers := map[string]int{
		distiller.ClassSGIF: 1,
		distiller.ClassSJPG: 1,
		distiller.ClassHTML: 1,
	}

	cfg := core.Config{
		Seed:       *seed,
		Roles:      roles,
		NodePrefix: *prefix,
		Transport: core.TransportConfig{
			Listen: *listen,
			Join:   joins,
			ID:     *id,
		},
		DedicatedNodes: *nodes,
		OverflowNodes:  *overflow,
		FrontEnds:      *frontEnds,
		Managers:       *managers,
		ManagerRank:    *managerRank,
		CacheParts:     *cacheParts,
		Workers:        workers,
		Registry:       registry,
		Rules:          distiller.TranSendRules(),
		ProfileDir:     *profileDir,
		Policy: manager.Policy{
			SpawnThreshold: *spawnH,
			Damping:        *dampD,
			ReapThreshold:  0.5,
		},
		EdgeListen:         *edgeListen,
		FEHTTP:             *feHTTP,
		EdgeRetryBudget:    *edgeRetryBudget,
		RequestDeadline:    *reqDeadline,
		FEMaxInflight:      *feMaxInflight,
		FEQueueHighWater:   *feHighWater,
		CacheTTL:           *cacheTTL,
		TraceSampleRate:    *traceSample,
		TraceSlowThreshold: *traceSlow,
	}
	if *cacheHost != "" {
		cn := *cacheNodes
		if cn <= 0 {
			cn = *nodes
		}
		cfg.RemoteCaches = core.CacheAddrs(*cacheHost, *cacheParts, cn)
	}
	return cfg, nodeOptions{
		roles:        *rolesFlag,
		httpAddr:     *httpAddr,
		readyTimeout: *readyTimeout,
		selftest: selftestOpts{
			n:           *selftest,
			kill:        *selftestKill,
			spacing:     *selftestSpacing,
			expectEpoch: *selftestEpoch,
			overload:    *selftestOverload,
			// The burst needs the warm set's entries expired into stale
			// data before it fires, or nothing can degrade.
			overloadAge: *cacheTTL + 200*time.Millisecond,
		},
	}, nil
}

func main() {
	cfg, opts, err := configFromFlags(flag.NewFlagSet(os.Args[0], flag.ExitOnError), os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}

	sys, err := core.Start(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Stop()
	log.Printf("node: bridge %s listening on %s (roles %s, prefix %q)",
		sys.Bridge.ID(), sys.Bridge.Advertise(), opts.roles, cfg.NodePrefix)

	if !sys.WaitReady(opts.readyTimeout) {
		log.Fatalf("node: cluster not serviceable within %s (peers: %v)", opts.readyTimeout, sys.Bridge.Peers())
	}
	log.Printf("node: ready — peers %v", sys.Bridge.Peers())

	if opts.selftest.n > 0 {
		if err := runSelftest(sys, opts.selftest); err != nil {
			log.Fatal(err)
		}
		return
	}

	var debugSrv *http.Server
	if opts.httpAddr != "" {
		debugSrv = serveHTTP(sys, opts.httpAddr)
	}
	if eg := sys.Edge(); eg != nil {
		log.Printf("node: edge front door on http://%s", eg.HTTPAddr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("node: shutting down")
	if debugSrv != nil {
		shctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = debugSrv.Shutdown(shctx)
	}
}

// selftestReport is the JSON the CI smoke test asserts on.
type selftestReport struct {
	Requests       int     `json:"requests"`
	Failures       int     `json:"failures"`
	Distilled      uint64  `json:"distilled"`
	CacheHits      uint64  `json:"cache_hits"`
	Fallbacks      uint64  `json:"fallbacks"`
	WireErrors     uint64  `json:"wire_errors"`
	FrameErrors    uint64  `json:"frame_errors"`
	FramesOut      uint64  `json:"frames_out"`
	FramesIn       uint64  `json:"frames_in"`
	Batches        uint64  `json:"batches"`
	FramesPerBatch float64 `json:"frames_per_batch"`
	Chunked        uint64  `json:"chunked"`
	Reassembled    uint64  `json:"reassembled"`
	LargeBodyBytes int     `json:"large_body_bytes"`
	Peers          int     `json:"peers"`
	Supervisors    int     `json:"supervisors"`
	Delegated      uint64  `json:"delegated_restarts"`
	CacheRestarts  uint64  `json:"cache_restarts"`
	ManagerEpoch   uint64  `json:"manager_epoch"`
	Takeovers      uint64  `json:"manager_takeovers"`
	Shed           uint64  `json:"shed"`
	Degraded       uint64  `json:"degraded"`
	Backpressure   uint64  `json:"backpressure"`
	KillInjected   string  `json:"kill_injected,omitempty"`
}

// selftestOpts collects the knobs of the selftest modes; all but n are
// optional extras layered on the base request loop.
type selftestOpts struct {
	n           int
	kill        string
	spacing     time.Duration
	expectEpoch uint64
	overload    int           // size of the concurrent overload burst (0 = off)
	overloadAge time.Duration // how long the warm set ages before the burst (> cache TTL)
}

func runSelftest(sys *core.System, opts selftestOpts) error {
	ctx := context.Background()
	n, kill := opts.n, opts.kill
	rep := selftestReport{Requests: n}
	for i := 0; i < n; i++ {
		if opts.spacing > 0 && i > 0 {
			time.Sleep(opts.spacing)
		}
		if kill != "" && i == n/3 {
			// Remote fault injection: crash the victim through its own
			// process's supervisor, then keep the load running — the
			// cache is an optimization, so nothing may fail meanwhile.
			if err := selftestKillRemote(ctx, sys, kill); err != nil {
				return fmt.Errorf("selftest: kill %s: %w", kill, err)
			}
			rep.KillInjected = kill
			log.Printf("selftest: killed %s via its supervisor at request %d", kill, i)
		}
		url := fmt.Sprintf("http://origin%d.example/obj%d.sjpg", i%4, i%32)
		rctx, cancel := context.WithTimeout(ctx, 15*time.Second)
		_, err := sys.Request(rctx, url, fmt.Sprintf("user%d", i%8))
		cancel()
		if err != nil {
			rep.Failures++
			log.Printf("selftest: request %d (%s) failed: %v", i, url, err)
		}
	}
	if kill != "" {
		// The manager must infer the death from heartbeat silence and
		// delegate the restart to the victim's supervisor.
		if err := awaitDelegatedRestart(sys, 60*time.Second); err != nil {
			return fmt.Errorf("selftest: %w", err)
		}
		log.Printf("selftest: %s respawned by supervisor delegation", kill)
		// A post-recovery burst proves the respawned partition serves.
		for i := 0; i < 20; i++ {
			url := fmt.Sprintf("http://origin%d.example/obj%d.sjpg", i%4, i%16)
			rctx, cancel := context.WithTimeout(ctx, 15*time.Second)
			_, err := sys.Request(rctx, url, "post-recovery")
			cancel()
			rep.Requests++
			if err != nil {
				rep.Failures++
				log.Printf("selftest: post-recovery request %d failed: %v", i, err)
			}
		}
	}
	// Large-body leg: round-trip a body far above the chunking
	// threshold through a cache partition. When the partition lives in
	// a peer process (the smoke test's topology) the body crosses the
	// bridge as chunk fragments both ways, so the zero-wire-error gate
	// below also covers chunked relay and reassembly under real load.
	if n > 0 {
		if bytes, err := selftestLargeBody(ctx, sys); err != nil {
			rep.Failures++
			log.Printf("selftest: large-body leg failed: %v", err)
		} else {
			rep.LargeBodyBytes = bytes
		}
	}
	if opts.overload > 0 {
		if err := runOverloadBurst(ctx, sys, opts.overload, opts.overloadAge, &rep); err != nil {
			return fmt.Errorf("selftest: %w", err)
		}
	}
	if expectEpoch := opts.expectEpoch; expectEpoch > 0 {
		// The failover smoke: an external hand SIGKILLed the rank-0
		// manager process mid-run, and this process hosts a standby that
		// must have won (or must win shortly) the election at expectEpoch
		// or later. The wait tolerates the request loop outpacing the
		// election — the workload already proved requests survive the gap.
		if err := awaitLocalPrimary(sys, expectEpoch, 30*time.Second); err != nil {
			return fmt.Errorf("selftest: %w", err)
		}
		log.Printf("selftest: local manager replica is acting primary at epoch >= %d", expectEpoch)
	}
	for _, m := range sys.ManagerReplicas() {
		st := m.Stats()
		if st.Epoch > rep.ManagerEpoch {
			rep.ManagerEpoch = st.Epoch
		}
		rep.Takeovers += st.Takeovers
	}
	for _, fe := range sys.FrontEnds() {
		st := fe.Stats()
		rep.Distilled += st.Distilled
		rep.CacheHits += st.CacheDistilled + st.CacheOriginal
		rep.Fallbacks += st.Fallbacks
	}
	rep.WireErrors = sys.Net.Stats().WireErrors
	br := sys.Bridge.Stats()
	rep.FrameErrors = br.FrameErrors
	rep.FramesOut, rep.FramesIn = br.FramesOut, br.FramesIn
	rep.Batches = br.Batches
	if br.Batches > 0 {
		rep.FramesPerBatch = float64(br.FramesOut) / float64(br.Batches)
	}
	rep.Chunked, rep.Reassembled = br.Chunked, br.Reassembled
	rep.Backpressure = br.Backpressure
	rep.Peers = br.Peers
	if mgr := sys.Manager(); mgr != nil {
		st := mgr.Stats()
		rep.Supervisors = st.Supervisors
		rep.Delegated = st.Delegated
		rep.CacheRestarts = st.CacheRestarts
	}
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
	if rep.Failures > 0 || rep.WireErrors > 0 || rep.FrameErrors > 0 {
		return fmt.Errorf("selftest: %d failures, %d wire errors, %d frame errors",
			rep.Failures, rep.WireErrors, rep.FrameErrors)
	}
	if kill != "" && rep.Delegated == 0 {
		return fmt.Errorf("selftest: %s was killed but no delegated restart was recorded", kill)
	}
	if opts.overload > 0 {
		if rep.Shed == 0 {
			return fmt.Errorf("selftest: overload burst of %d shed nothing — admission control never tripped", opts.overload)
		}
		if rep.Degraded == 0 {
			return fmt.Errorf("selftest: overload burst of %d produced no degraded serves — the stale-cache path never ran", opts.overload)
		}
	}
	return nil
}

// runOverloadBurst drives the front end past its admission bound and
// verifies the BASE degradation ladder: warm a small URL set, let the
// entries expire into stale data, then fire n concurrent requests —
// half against the warm set, half against fresh URLs. Saturated
// requests with a stale answer must degrade; the rest must shed with
// the typed ErrOverloaded; anything else failing is a real failure and
// trips the zero-failure gate.
func runOverloadBurst(ctx context.Context, sys *core.System, n int, age time.Duration, rep *selftestReport) error {
	const warmSet = 8
	for i := 0; i < warmSet; i++ {
		url := fmt.Sprintf("http://overload.example/obj%d.sjpg", i)
		rctx, cancel := context.WithTimeout(ctx, 15*time.Second)
		_, err := sys.Request(rctx, url, "overload")
		cancel()
		if err != nil {
			return fmt.Errorf("overload warm request %d: %w", i, err)
		}
	}
	time.Sleep(age) // outlive the TTL: entries stay cached, now stale

	var wg sync.WaitGroup
	var okN, degraded, shed, failed atomic.Uint64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("http://overload-fresh.example/obj%d.sjpg", i)
			if i%2 == 0 {
				url = fmt.Sprintf("http://overload.example/obj%d.sjpg", i%warmSet)
			}
			rctx, cancel := context.WithTimeout(ctx, 15*time.Second)
			resp, err := sys.Request(rctx, url, "overload")
			cancel()
			switch {
			case errors.Is(err, frontend.ErrOverloaded):
				shed.Add(1)
			case err != nil:
				failed.Add(1)
				log.Printf("selftest: overload request %d (%s) failed: %v", i, url, err)
			case resp.Degraded:
				degraded.Add(1)
			default:
				okN.Add(1)
			}
		}(i)
	}
	wg.Wait()
	rep.Requests += n
	rep.Failures += int(failed.Load())
	rep.Shed = shed.Load()
	rep.Degraded = degraded.Load()
	log.Printf("selftest: overload burst of %d: ok=%d degraded=%d shed=%d failed=%d",
		n, okN.Load(), degraded.Load(), shed.Load(), failed.Load())
	return nil
}

// selftestLargeBody stores a 512 KB blob in a cache partition and
// reads it back, verifying content. 512 KB is well above the bridge's
// chunking threshold, so against a remote partition the blob streams
// as chunk fragments and reassembles on each hop; any corruption
// shows up here as a content mismatch and any framing fault as a
// wire/frame error in the report.
func selftestLargeBody(ctx context.Context, sys *core.System) (int, error) {
	nodes := sys.CacheNodes()
	if len(nodes) == 0 {
		return 0, fmt.Errorf("no cache partitions")
	}
	ep := sys.Net.Endpoint(san.Addr{Node: "selftest", Proc: "blob-client"}, 64)
	defer ep.Close()
	go func() {
		for msg := range ep.Inbox() {
			ep.DeliverReply(msg)
		}
	}()
	cc := vcache.NewClient(ep)
	for name, addr := range nodes {
		cc.AddNode(name, addr)
	}
	const size = 512 << 10
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	const key = "http://selftest.example/large-body.blob"
	lctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	cc.Put(lctx, key, payload, "application/octet-stream", 0)
	data, _, release, ok := cc.GetView(lctx, key)
	if !ok {
		return 0, fmt.Errorf("get after put missed")
	}
	if len(data) != size {
		if release != nil {
			release()
		}
		return 0, fmt.Errorf("got %d bytes, want %d", len(data), size)
	}
	for i, b := range data {
		if b != byte(i*31) {
			if release != nil {
				release()
			}
			return 0, fmt.Errorf("content mismatch at byte %d", i)
		}
	}
	if release != nil {
		release()
	}
	return size, nil
}

// selftestKillRemote crashes a cache component hosted by a peer
// process: resolve its node from the deterministic cache placement,
// resolve that node's supervisor from the manager's hello table, and
// issue an OpKill through this process's own supervisor (the client
// half of the daemon protocol).
func selftestKillRemote(ctx context.Context, sys *core.System, name string) error {
	addr, ok := sys.CacheNodes()[name]
	if !ok {
		return fmt.Errorf("unknown cache component %q (selftest-kill supports cache partitions)", name)
	}
	mgr := sys.Manager()
	if mgr == nil {
		return fmt.Errorf("selftest-kill requires the manager role in this process")
	}
	var sup supervisor.HelloMsg
	deadline := time.Now().Add(15 * time.Second)
	for {
		if s, found := mgr.SupervisorFor(addr.Node); found {
			sup = s
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no supervisor hello for node %s", addr.Node)
		}
		time.Sleep(10 * time.Millisecond)
	}
	kctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	ack, err := sys.Supervisor().Invoke(kctx, sup.Addr, supervisor.Command{
		Op: supervisor.OpKill, Target: name,
	})
	if err != nil {
		return err
	}
	if !ack.OK {
		return fmt.Errorf("supervisor refused: %s", ack.Err)
	}
	return nil
}

// awaitLocalPrimary blocks until a manager replica hosted by this
// process is the acting primary at epoch >= want — the post-failover
// condition the multi-manager smoke asserts after SIGKILLing the
// rank-0 process.
func awaitLocalPrimary(sys *core.System, want uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if m := sys.Manager(); m != nil && m.IsPrimary() && m.Epoch() >= want {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	m := sys.Manager()
	if m == nil {
		return fmt.Errorf("no local manager replica became primary within %s", timeout)
	}
	return fmt.Errorf("no local acting primary at epoch >= %d within %s (primary=%v epoch=%d)",
		want, timeout, m.IsPrimary(), m.Epoch())
}

// awaitDelegatedRestart blocks until the manager has completed at
// least one supervisor-delegated restart.
func awaitDelegatedRestart(sys *core.System, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := sys.Manager().Stats(); st.Delegated >= 1 {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("no supervisor-delegated restart within %s (stats %+v)", timeout, sys.Manager().Stats())
}

// serveHTTP exposes the TranSend HTTP API (/fetch, /prefs) and the
// operator endpoints (/status, /metrics, /trace, /kill), backed by this
// process's front ends. The returned server is already serving; the
// caller owns its graceful Shutdown.
func serveHTTP(sys *core.System, addr string) *http.Server {
	mux := http.NewServeMux()
	mux.Handle("/fetch", edge.FetchHandler(sys.Do))
	// /prefs?user=<id>[&key=<k>&val=<v>] sets one profile entry (when a
	// key is given) and shows the user's profile.
	mux.HandleFunc("/prefs", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		user := q.Get("user")
		if user == "" {
			http.Error(w, "missing user parameter", http.StatusBadRequest)
			return
		}
		if key := q.Get("key"); key != "" {
			if err := sys.SetProfile(user, key, q.Get("val")); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		fmt.Fprintf(w, "profile %s: %v\n", user, sys.Profile.Get(user))
	})
	// /status defaults to the machine-readable registry snapshot (every
	// component's published metrics under dotted names); ?format=text
	// keeps the human-oriented dump the monitor renders.
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "text" {
			if sys.Mon != nil {
				fmt.Fprintln(w, sys.Mon.RenderTable())
			}
			for _, fe := range sys.FrontEnds() {
				fmt.Fprintf(w, "%s: %+v\n", fe.ID(), fe.Stats())
			}
			for _, mgr := range sys.ManagerReplicas() {
				st := mgr.Stats()
				fmt.Fprintf(w, "manager replica (primary=%v epoch=%d): %+v\n", st.Primary, st.Epoch, st)
			}
			if mgr := sys.Manager(); mgr != nil {
				for _, sup := range mgr.Supervisors() {
					fmt.Fprintf(w, "supervisor: %s (prefix %q)\n", sup.Addr, sup.Prefix)
				}
			}
			fmt.Fprintf(w, "supervisor(local): %s %+v\n", sys.Supervisor().Addr(), sys.Supervisor().Stats())
			fmt.Fprintf(w, "san: %+v\n", sys.Net.Stats())
			fmt.Fprintf(w, "bridge: %+v\n", sys.Bridge.Stats())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(sys.Registry().Snapshot())
	})
	// /metrics is the registry in Prometheus text exposition format.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		sys.Registry().WritePrometheus(w)
	})
	// /trace?id=<hex> renders the span tree this process can answer for
	// — local spans plus whatever peer digests have been ingested.
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		idStr := r.URL.Query().Get("id")
		if idStr == "" {
			http.Error(w, "missing id parameter", http.StatusBadRequest)
			return
		}
		id, err := obs.ParseTraceID(idStr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spans := sys.Tracer().Spans(id)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Trace string     `json:"trace"`
			Spans []obs.Span `json:"spans"`
		}{id.String(), spans})
	})
	// Local fault injection for multi-process chaos scripts: crash a
	// component this process hosts; whoever carries its process-peer
	// duty (possibly a manager in another process) must respawn it.
	mux.HandleFunc("/kill", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("component")
		if name == "" {
			http.Error(w, "missing component parameter", http.StatusBadRequest)
			return
		}
		if err := sys.Kill(name); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, "killed %s\n", name)
	})
	// A configured server, not bare ListenAndServe: header timeouts so a
	// slow-header client can't pin goroutines, and a handle the caller
	// can Shutdown gracefully.
	srv := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("node: http listen %s: %v", addr, err)
	}
	log.Printf("node: http on %s", ln.Addr())
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatalf("node: http: %v", err)
		}
	}()
	return srv
}
