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
//	    -roles frontend,monitor -join tcp:127.0.0.1:7401 -http :8089
//
// The front ends of terminal 2 find terminal 1's cache partitions by
// hearing them announce themselves; no flag says where they are.
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
//	GET /status                                the metrics registry as a flat JSON map
//	GET /metrics, /trace?id=<hex>              the same registry as Prometheus text; span tree
//	                                           (cluster-wide on the monitor's process, local elsewhere)
//	GET /kill?component=<name>                 fault injection: any hosted component by name
//
// Synthetic URLs look like http://origin7.example/obj123.sjpg — any
// obj<N>.<sgif|sjpg|html> works; content is generated deterministically
// by the simulated origin universe.
//
// Every message between the two terminals crosses a real TCP
// connection as length-framed, CRC-protected, batched wire bytes.
//
// A node only serves. Workloads, fault injection and assertions come
// from outside over this API (scripts/smoke_multiprocess.sh drives
// every leg that way), and every number is a key of /status.
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
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/distiller"
	"repro/internal/edge"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/tacc"
)

// nodeOptions is what the flags say beyond the cluster configuration:
// how this process serves.
type nodeOptions struct {
	roles        string // as given, for the startup log line
	httpAddr     string
	readyTimeout time.Duration
}

// configFromFlags parses args on fs and maps them onto the core.Config
// this process starts with.
func configFromFlags(fs *flag.FlagSet, args []string) (core.Config, nodeOptions, error) {
	listen := fs.String("listen", "tcp:127.0.0.1:0", "transport bridge listen address (tcp:host:port or unix:/path)")
	join := fs.String("join", "", "comma-separated seed bridge addresses to join")
	prefix := fs.String("prefix", "", "node-name prefix, and the bridge's id: peers send this process every node it prefixes (longest match); must be unique per process (required with -join or when joined)")
	rolesFlag := fs.String("roles", "all", "roles to host: frontend,manager,worker,cache,monitor,edge (or 'all')")
	frontEnds := fs.Int("frontends", 2, "front ends (frontend role)")
	managers := fs.Int("managers", 1, "manager replicas hosted in this process (manager role)")
	managerRank := fs.Int("manager-rank", 0, "election rank of this process's first manager replica; global rank 0 boots as the acting primary, everyone else standby")
	cacheParts := fs.Int("caches", 2, "cache partitions this process hosts (cache role); front ends everywhere find them by their announcements")
	nodes := fs.Int("nodes", 8, "dedicated cluster nodes in this process")
	overflow := fs.Int("overflow", 2, "overflow pool nodes")
	spawnH := fs.Float64("H", 10, "spawn threshold (avg queue length)")
	dampD := fs.Duration("D", 5*time.Second, "spawn damping window")
	profileDir := fs.String("profiles", "", "profile DB directory (empty = temp)")
	httpAddr := fs.String("http", "", "serve the HTTP API on this address: /fetch and /prefs (frontend role), /status, /metrics, /trace, /kill (any role)")
	edgeListen := fs.String("edge-listen", "", "serve the L7 front door on this address (edge role): one listener balancing across every FE replica heard announcing itself")
	edgeRetryBudget := fs.Float64("edge-retry-budget", 0.5, "edge retry budget: retries allowed per request, as a fraction (0 disables transparent retry)")
	reqDeadline := fs.Duration("request-deadline", 0, "end-to-end deadline stamped onto requests arriving without one (0 = none)")
	feMaxInflight := fs.Int("fe-max-inflight", 0, "per-front-end bound on requests being handled at once, each on the goroutine that brought it; past it requests degrade to stale cache or shed (0 = 320)")
	feHighWater := fs.Float64("fe-queue-highwater", 0, "shed at admission when the least-loaded worker's queue estimate exceeds this (0 = disabled)")
	cacheTTL := fs.Duration("cache-ttl", 0, "cache entry freshness TTL; expired entries survive as stale data for degraded service (0 = never stale)")
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
		EdgeRetryBudget:    *edgeRetryBudget,
		RequestDeadline:    *reqDeadline,
		FEMaxInflight:      *feMaxInflight,
		FEQueueHighWater:   *feHighWater,
		CacheTTL:           *cacheTTL,
		TraceSampleRate:    *traceSample,
		TraceSlowThreshold: *traceSlow,
	}
	return cfg, nodeOptions{
		roles:        *rolesFlag,
		httpAddr:     *httpAddr,
		readyTimeout: *readyTimeout,
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
	log.Printf("node: ready in %.1f ms — peers %v", sys.Registry().Gauge("core.ready_ms").Value(), sys.Bridge.Peers())

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

// apiMux is the TranSend HTTP API (/fetch, /prefs) and the operator
// endpoints (/status, /metrics, /trace, /kill), backed by this process's
// front ends and its registry.
func apiMux(sys *core.System) *http.ServeMux {
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
	// /status is the registry snapshot: every component's published
	// metrics under dotted names, one flat JSON map.
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
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
	// /trace?id=<hex> renders the span tree this process can answer for:
	// the cluster-wide tree where the monitor runs (it ingests every
	// process's span digests), this process's own spans elsewhere.
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
	return mux
}

// serveHTTP serves apiMux on addr. The returned server is already
// serving; the caller owns its graceful Shutdown.
func serveHTTP(sys *core.System, addr string) *http.Server {
	// A configured server, not bare ListenAndServe: header timeouts so a
	// slow-header client can't pin goroutines, and a handle the caller
	// can Shutdown gracefully.
	srv := &http.Server{
		Addr:              addr,
		Handler:           apiMux(sys),
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
