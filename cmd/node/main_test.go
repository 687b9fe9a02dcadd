package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestConfigFromFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    string
		wantErr string // substring; empty = must succeed
		check   func(t *testing.T, cfg core.Config, opts nodeOptions)
	}{
		{name: "unknown role", args: "-roles frontend,janitor", wantErr: "janitor"},
		{name: "unknown flag", args: "-no-such-flag", wantErr: "no-such-flag"},
		{name: "edge role without a listener", args: "-roles edge", wantErr: "-edge-listen"},
		{name: "join without a prefix", args: "-join tcp:127.0.0.1:7401", wantErr: "-prefix"},
		{
			name: "edge listener without the edge role is carried, not an error",
			args: "-roles frontend -edge-listen 127.0.0.1:8080",
			check: func(t *testing.T, cfg core.Config, _ nodeOptions) {
				if cfg.Roles.Edge || cfg.EdgeListen != "127.0.0.1:8080" {
					t.Fatalf("roles %+v, EdgeListen %q", cfg.Roles, cfg.EdgeListen)
				}
			},
		},
		{
			name: "caches count the partitions hosted here",
			args: "-prefix a -join tcp:127.0.0.1:7401,,tcp:127.0.0.1:7403 -caches 3 -nodes 5",
			check: func(t *testing.T, cfg core.Config, _ nodeOptions) {
				if cfg.CacheParts != 3 || cfg.DedicatedNodes != 5 || cfg.NodePrefix != "a" {
					t.Fatalf("caches %d nodes %d prefix %q", cfg.CacheParts, cfg.DedicatedNodes, cfg.NodePrefix)
				}
				if cfg.RemoteCaches != nil {
					t.Fatalf("RemoteCaches %v, want none: front ends hear the partitions announce", cfg.RemoteCaches)
				}
				if want := []string{"tcp:127.0.0.1:7401", "tcp:127.0.0.1:7403"}; !reflect.DeepEqual(cfg.Transport.Join, want) {
					t.Fatalf("Join %v, want %v", cfg.Transport.Join, want)
				}
			},
		},
		{
			name: "no cache host, no remote caches",
			args: "",
			check: func(t *testing.T, cfg core.Config, opts nodeOptions) {
				if cfg.RemoteCaches != nil {
					t.Fatalf("RemoteCaches %v, want none", cfg.RemoteCaches)
				}
				if cfg.Roles != (core.Roles{}) {
					t.Fatalf("default roles %+v, want the zero value (every role)", cfg.Roles)
				}
				if cfg.Seed == 0 {
					t.Fatal("-seed 0 must become a time-based seed, not stay 0")
				}
				if opts.httpAddr != "" || opts.readyTimeout != 30*time.Second {
					t.Fatalf("default options %+v", opts)
				}
			},
		},
		{
			name: "manager rank and serving options",
			args: "-roles manager -managers 2 -manager-rank 1 -seed 7 -cache-ttl 500ms -http :8089",
			check: func(t *testing.T, cfg core.Config, opts nodeOptions) {
				if cfg.Managers != 2 || cfg.ManagerRank != 1 || cfg.Seed != 7 || cfg.CacheTTL != 500*time.Millisecond {
					t.Fatalf("managers %d rank %d seed %d ttl %s", cfg.Managers, cfg.ManagerRank, cfg.Seed, cfg.CacheTTL)
				}
				if !cfg.Roles.Manager || cfg.Roles.FrontEnds {
					t.Fatalf("roles %+v", cfg.Roles)
				}
				if opts.httpAddr != ":8089" {
					t.Fatalf("options %+v", opts)
				}
			},
		},
		// A node only serves: the in-process test client and its flags are
		// gone, and asking for them is an error, not a silent no-op.
		{name: "-selftest is gone", args: "-selftest 40", wantErr: "not defined: -selftest"},
		{name: "-selftest-kill is gone", args: "-selftest-kill cache0", wantErr: "not defined: -selftest-kill"},
		{name: "-selftest-spacing is gone", args: "-selftest-spacing 30ms", wantErr: "not defined: -selftest-spacing"},
		{name: "-selftest-expect-epoch is gone", args: "-selftest-expect-epoch 2", wantErr: "not defined: -selftest-expect-epoch"},
		{name: "-selftest-overload is gone", args: "-selftest-overload 64", wantErr: "not defined: -selftest-overload"},
		// Where the cache partitions are is heard, not configured.
		{name: "-cache-host is gone", args: "-cache-host b", wantErr: "not defined: -cache-host"},
		{name: "-cache-nodes is gone", args: "-cache-nodes 2", wantErr: "not defined: -cache-nodes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("node", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			cfg, opts, err := configFromFlags(fs, strings.Fields(tc.args))
			switch {
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.check != nil:
				tc.check(t, cfg, opts)
			}
		})
	}
}

// TestNodeOnlyServes pins the shape left once the in-process test
// client went: three serving options, none of them a mode, and 24 flags.
func TestNodeOnlyServes(t *testing.T) {
	if n := reflect.TypeOf(nodeOptions{}).NumField(); n != 3 {
		t.Fatalf("nodeOptions has %d fields, want roles, httpAddr, readyTimeout", n)
	}
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, _, err := configFromFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 24 {
		t.Fatalf("%d flags defined, want 24 (a new flag needs a caller that sets it)", n)
	}
}

// TestAPIMux drives the operator endpoints of a small single-process
// system: /status is the registry and nothing else, and it carries every
// key the smoke script asserts on.
func TestAPIMux(t *testing.T) {
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	cfg, _, err := configFromFlags(fs, strings.Fields("-seed 11 -frontends 1 -nodes 4"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.ProfileDir = t.TempDir()
	sys, err := core.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	if !sys.WaitReady(30 * time.Second) {
		t.Fatal("system never became serviceable")
	}
	srv := httptest.NewServer(apiMux(sys))
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	status := func(path string) map[string]float64 {
		t.Helper()
		code, body := get(path)
		var m map[string]float64 // flat: a nested value fails the decode
		if err := json.Unmarshal(body, &m); code != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d, decode %v:\n%s", path, code, err, body)
		}
		return m
	}

	if code, body := get("/fetch?url=http://origin1.example/obj42.sjpg&user=alice"); code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/fetch: status %d, %d bytes", code, len(body))
	}
	m := status("/status")
	for _, key := range []string{
		"san.wire_errors", "bridge.frame_errors",
		"manager.primary", "manager.takeovers", "manager.worker_restarts", "manager.delegate_fails", "manager.supervisors",
		"manager.epoch", "fe.fe0.shed", "fe.fe0.degraded", "fe.fe0.requests",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("/status has no %q", key)
		}
	}
	if m["manager.primary"] != 1 || m["manager.epoch"] != 1 || m["manager.supervisors"] != 1 || m["fe.fe0.requests"] < 1 {
		t.Errorf("primary %v epoch %v supervisors %v fe0 requests %v", m["manager.primary"], m["manager.epoch"], m["manager.supervisors"], m["fe.fe0.requests"])
	}
	// The human dump is gone; its parameter is ignored, not an error.
	text := status("/status?format=text")
	for key := range m {
		if _, ok := text[key]; !ok {
			t.Errorf("/status?format=text lost %q", key)
		}
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(string(body), "sns_manager_primary 1") {
		t.Errorf("/metrics: status %d, no sns_manager_primary 1 sample", code)
	}
	if code, _ := get("/kill?component=nope"); code != http.StatusNotFound {
		t.Errorf("/kill of an unknown component: status %d, want 404", code)
	}
	if code, _ := get("/kill"); code != http.StatusBadRequest {
		t.Errorf("/kill without a component: status %d, want 400", code)
	}
}
