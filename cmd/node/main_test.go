package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

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
			name: "remote caches are the cache host's placement",
			args: "-prefix a -join tcp:127.0.0.1:7401,,tcp:127.0.0.1:7403 -cache-host b -caches 3 -nodes 5 -cache-nodes 2",
			check: func(t *testing.T, cfg core.Config, _ nodeOptions) {
				if want := core.CacheAddrs("b", 3, 2); !reflect.DeepEqual(cfg.RemoteCaches, want) {
					t.Fatalf("RemoteCaches %v, want %v", cfg.RemoteCaches, want)
				}
				if cfg.CacheParts != 3 || cfg.DedicatedNodes != 5 || cfg.NodePrefix != "a" {
					t.Fatalf("caches %d nodes %d prefix %q", cfg.CacheParts, cfg.DedicatedNodes, cfg.NodePrefix)
				}
				if want := []string{"tcp:127.0.0.1:7401", "tcp:127.0.0.1:7403"}; !reflect.DeepEqual(cfg.Transport.Join, want) {
					t.Fatalf("Join %v, want %v", cfg.Transport.Join, want)
				}
			},
		},
		{
			name: "cache-nodes defaults to nodes",
			args: "-cache-host b -nodes 5",
			check: func(t *testing.T, cfg core.Config, _ nodeOptions) {
				if want := core.CacheAddrs("b", 2, 5); !reflect.DeepEqual(cfg.RemoteCaches, want) {
					t.Fatalf("RemoteCaches %v, want %v", cfg.RemoteCaches, want)
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
				if opts.selftest.n != 0 || opts.httpAddr != "" {
					t.Fatalf("default options %+v", opts)
				}
			},
		},
		{
			name: "manager rank and selftest options",
			args: "-roles manager -managers 2 -manager-rank 1 -seed 7 -cache-ttl 500ms -selftest 40 -selftest-overload 64 -http :8089",
			check: func(t *testing.T, cfg core.Config, opts nodeOptions) {
				if cfg.Managers != 2 || cfg.ManagerRank != 1 || cfg.Seed != 7 {
					t.Fatalf("managers %d rank %d seed %d", cfg.Managers, cfg.ManagerRank, cfg.Seed)
				}
				if !cfg.Roles.Manager || cfg.Roles.FrontEnds {
					t.Fatalf("roles %+v", cfg.Roles)
				}
				st := opts.selftest
				if st.n != 40 || st.overload != 64 || st.overloadAge <= cfg.CacheTTL || opts.httpAddr != ":8089" {
					t.Fatalf("options %+v", opts)
				}
			},
		},
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
