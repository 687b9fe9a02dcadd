#!/usr/bin/env bash
# Multi-process loopback smoke test (CI gate for internal/transport,
# internal/supervisor, manager replication, overload, tracing, the edge).
#
# cmd/node only serves, so every leg is driven the same way, from
# outside: the workload is curl against a serving process's -http
# /fetch, a fault is /kill?component= on the process that hosts the
# victim or kill -9 of an OS process, and every asserted number is a key
# of some node's /status — the obs registry as one flat JSON map. Every
# node gets an -http port so any of them can be asked.
#
# Leg 1 [heal] — cross-process self-healing: a data-plane process
# (workers + caches) and a serving process (front ends + manager +
# monitor). A third of the way through the workload cache0 is crashed
# through its own process's /kill; the manager, in the other process,
# must infer the death from hello silence and have cache0's supervisor
# restart it (manager.cache_restarts >= 1 in one process,
# supervisor.commands >= 1 in the other). Zero non-200 answers, zero
# wire/frame errors in either process.
#
# Leg 2 [failover] — manager failover: data-plane hub, a rank-0
# manager-only process, a serving process with a rank-1 standby. Once the
# rank-0 process reports primary and the standby reports itself
# subordinate at a heard epoch, the rank-0 process is kill -9ed
# mid-workload. The standby must end up primary at epoch >= 2 with a
# takeover counted, and not one request may fail; the front end's
# one-way cache writes went out (fe.fe0.cache_writes >= 1), none was
# refused (fe.fe0.cache_write_errors = 0), and no request probed the
# cache twice (1 <= fe.fe0.cache_probes <= fe.fe0.requests).
#
# Leg 3 [overload] — degradation ladder: one front end with an admission
# bound of 2 and a 500 ms cache TTL. 64-wide concurrent bursts, half
# against a warm set and half against fresh URLs, until one burst shows
# both rungs: an answer marked X-TranSend-Degraded (stale cache) and a
# 503 typed X-TranSend-Error: overloaded. Any other non-200 fails the
# leg; fe.fe0.shed and fe.fe0.degraded must have counted.
#
# Leg 4 [trace] — end-to-end tracing: with -trace-sample 1 one /fetch
# returns an X-Trace-Id; /trace?id= on the serving process, which hosts
# the monitor (the one taker of span digests), must render a span tree
# recorded by BOTH OS processes (front-end hops here, worker
# queue-wait + service hops and the partition's store of the request's
# one-way cache writes crossed back as span digests), with the cache
# read in it as one hop a side: one fe.cache, one cache.serve, their
# note hit, orig or miss — which key of the paired probe answered.
# /metrics serves the same registry as Prometheus text.
#
# Leg 5 [edge] — edge front door: data plane with the manager, two
# single-FE processes advertising HTTP adapters, an edge-only process.
# One FE process is kill -9ed under a curl workload through the edge and
# later restarted: every request returns 200, edge.edge.ejects >= 1,
# edge.edge.readmits >= 1, zero wire errors on the edge.
#
# Every node of every leg, restarts included, must report core.ready_ms
# under 250 at the shipped 500 ms interval: ready is one round trip after
# start, not the next announcement. At the end of every leg each node
# still running prints its deepest inbox (san.inbox_max) and must have
# dropped nothing at a full one (san.inbox_full 0).
set -euo pipefail
cd "$(dirname "$0")/.."

REQUESTS="${1:-150}"
PORT="${SMOKE_PORT:-7461}"
EDGE_PORT="${SMOKE_EDGE_PORT:-$((PORT + 11))}"
next_http="${SMOKE_HTTP_PORT:-$((PORT + 20))}" # one per node started, counting up

tmp=$(mktemp -d -t sns-smoke.XXXXXX)
bin="${tmp}/sns-node"
leg=build
nodes=()          # names, in start order
declare -A pid http # by name; pid is empty once the node was killed

stop_nodes() {
    local n
    for n in "${nodes[@]}"; do
        [[ -n "${pid[$n]}" ]] && kill "${pid[$n]}" 2>/dev/null || true
    done
    for n in "${nodes[@]}"; do
        [[ -n "${pid[$n]}" ]] && wait "${pid[$n]}" 2>/dev/null || true
    done
    nodes=()
}
trap 'stop_nodes; rm -rf "${tmp}"' EXIT

# fail <leg> <msg>: the one way out on a violated gate — every node of
# the leg dumps its log, and its /status if it is still alive.
fail() {
    local n
    echo "smoke: [$1] FAILED — $2" >&2
    for n in "${nodes[@]}"; do
        echo "---- ${n} log ----" >&2
        cat "${tmp}/${n}.log" >&2 || true
        if [[ -n "${pid[$n]}" ]] && kill -0 "${pid[$n]}" 2>/dev/null; then
            echo "---- ${n} /status ----" >&2
            curl -fsS --max-time 5 "http://127.0.0.1:${http[$n]}/status" >&2 || true
        fi
    done
    exit 1
}

# start_node <name> <flags...>: one cmd/node process named (and
# node-prefixed) <name>, serving the HTTP API on the next free port.
start_node() {
    local n=$1
    shift
    [[ " ${nodes[*]} " == *" ${n} "* ]] || nodes+=("${n}")
    http[$n]=$((next_http++))
    "${bin}" -prefix "${n}" -http "127.0.0.1:${http[$n]}" "$@" >"${tmp}/${n}.log" 2>&1 &
    pid[$n]=$!
}

# kill9 <name>: the OS process dies with no goodbye.
kill9() {
    kill -9 "${pid[$1]}" 2>/dev/null || true
    wait "${pid[$1]}" 2>/dev/null || true
    pid[$1]=
}

# status_get <port> <key>: the key's value in that node's /status (the
# registry snapshot); empty when the key or the node is not there.
status_get() {
    curl -fsS --max-time 5 "http://127.0.0.1:$1/status" 2>/dev/null |
        sed -n "s/^ *\"${2//./\\.}\": \([^,]*\),\{0,1\}\$/\1/p"
}

# status_is <port> <key> <-eq|-ge|...> <n>: compare a /status counter.
status_is() {
    local v
    v=$(status_get "$1" "$2")
    [[ -n "${v}" ]] && [ "${v%%.*}" "$3" "$4" ]
}

# await <seconds> <what> <command...>: poll until the command succeeds.
# The command may leave what it last saw in ${seen} for the failure line.
seen=
await() {
    local deadline=$((SECONDS + $1)) what=$2
    shift 2
    until "$@"; do
        ((SECONDS < deadline)) || fail "${leg}" "timed out waiting for ${what}${seen:+ — ${seen}}"
        sleep 0.1
    done
    seen=
}

# up <name>...: the HTTP API is served only once the node judged the
# cluster serviceable, so an answer from /status is "ready". A joining
# node is greeted at once, not at the next 500 ms announcement: each must
# have been ready within 250 ms of its start (core.ready_ms).
up() {
    local n ms
    for n in "$@"; do
        await 30 "${n} to serve its HTTP API" status_is "${http[$n]}" san.wire_errors -ge 0
        ms=$(status_get "${http[$n]}" core.ready_ms)
        echo "smoke: [${leg}] ${n} ready in ${ms} ms"
        status_is "${http[$n]}" core.ready_ms -lt 250 || fail "${leg}" "${n} took ${ms:-?} ms to become ready, want < 250"
    done
}

# expect <name> <key> <op> <n>: a gate on a /status counter.
expect() {
    status_is "${http[$1]}" "$2" "$3" "$4" ||
        fail "${leg}" "$1 /status: $2 is '$(status_get "${http[$1]}" "$2")', want $3 $4"
}

# fetch <port> <url> [user] → "<code> <X-TranSend-Error|-> <X-TranSend-Degraded|->"
fetch() {
    { curl -s -o /dev/null -D - --max-time 20 "http://127.0.0.1:$1/fetch?url=$2&user=${3:-smoke}" || true; } |
        tr -d '\r' | awk '
            NR == 1 { code = $2 }
            tolower($1) == "x-transend-error:" { err = $2 }
            tolower($1) == "x-transend-degraded:" { deg = $2 }
            END { print (code ? code : "000"), (err ? err : "-"), (deg ? deg : "-") }'
}

# get_ok <name> <url> [user]: one request that must answer 200.
bad=0
get_ok() {
    local r
    r=$(fetch "${http[$1]}" "$2" "${3:-}")
    if [[ "${r}" != "200 "* ]]; then
        bad=$((bad + 1))
        echo "smoke: [${leg}] $2 → ${r}" >&2
    fi
}

# inboxes: how deep each live node's inboxes ran this leg; a message
# dropped at a full inbox fails it.
inboxes() {
    local n
    for n in "${nodes[@]}"; do
        [[ -n "${pid[$n]}" ]] || continue
        echo "smoke: [${leg}] ${n} san.inbox_max $(status_get "${http[$n]}" san.inbox_max)"
        expect "${n}" san.inbox_full -eq 0
    done
}

# clean <name>...: nothing was corrupted or torn on the wire.
clean() {
    local n
    for n in "$@"; do
        expect "${n}" san.wire_errors -eq 0
        expect "${n}" bridge.frame_errors -eq 0
    done
}

echo "smoke: building cmd/node..."
go build -o "${bin}" ./cmd/node

leg=heal
echo "smoke: [heal] data-plane process (worker,cache) on :${PORT}, serving process (frontend,manager,monitor)..."
start_node ctl -listen "tcp:127.0.0.1:${PORT}" -roles worker,cache -seed 1
start_node srv -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT}" \
    -roles frontend,manager,monitor -cache-host ctl -seed 2
up ctl srv

bad=0
for ((i = 0; i < REQUESTS; i++)); do
    if ((i == REQUESTS / 3)); then
        # The cache is an optimization: nothing may fail while it is gone.
        echo "smoke: [heal] crashing cache0 on its host (ctl) at request ${i}..."
        curl -fsS "http://127.0.0.1:${http[ctl]}/kill?component=cache0" >/dev/null ||
            fail heal "/kill?component=cache0 on ctl refused"
    fi
    get_ok srv "http://origin$((i % 4)).example/obj$((i % 32)).sjpg" "user$((i % 8))"
done
# The manager lives in srv, cache0 in ctl: the restart is a command to
# ctl's supervisor, the only lever the manager has.
await 60 "a restart of cache0 through ctl's supervisor" status_is "${http[srv]}" manager.cache_restarts -ge 1
await 30 "cache0 to be heard again" status_is "${http[srv]}" manager.caches -ge 2
for ((i = 0; i < 20; i++)); do # the respawned partition serves
    get_ok srv "http://origin$((i % 4)).example/obj$((i % 16)).sjpg" post-recovery
done
((bad == 0)) || fail heal "${bad} of $((REQUESTS + 20)) requests did not answer 200"
expect ctl supervisor.commands -ge 1
clean ctl srv
echo "smoke: [heal] OK — $((REQUESTS + 20)) requests across two OS processes, zero failures, zero wire errors, cache0 crashed via /kill and restarted by its supervisor on the manager's command (manager.cache_restarts $(status_get "${http[srv]}" manager.cache_restarts), supervisor.commands $(status_get "${http[ctl]}" supervisor.commands))"
inboxes
stop_nodes

leg=failover
PORT2=$((PORT + 1))
echo "smoke: [failover] data-plane hub on :${PORT2}, rank-0 manager process, serving process with a rank-1 standby..."
start_node hub -listen "tcp:127.0.0.1:${PORT2}" -roles worker,cache -seed 3
start_node m0 -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT2}" \
    -roles manager -manager-rank 0 -seed 4
up hub m0
start_node srv2 -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT2}" \
    -roles frontend,manager,monitor -manager-rank 1 -cache-host hub -seed 5
up srv2
# Kill on observed state, not on a timer: rank 0 is the acting primary
# and the standby knows it (a standby that has heard no beacon yet would
# claim epoch 1, not 2).
standby_subordinate() {
    status_is "${http[srv2]}" manager-r1.primary -eq 0 && status_is "${http[srv2]}" manager-r1.epoch -ge 1
}
took_over() {
    status_is "${http[srv2]}" manager-r1.primary -eq 1 && status_is "${http[srv2]}" manager-r1.epoch -ge 2 &&
        status_is "${http[srv2]}" manager-r1.takeovers -ge 1
}
await 30 "the rank-0 process to report primary" status_is "${http[m0]}" manager.primary -eq 1
await 30 "the standby to report subordinate at a heard epoch" standby_subordinate

bad=0
for ((i = 0; i < REQUESTS; i++)); do
    if ((i == REQUESTS / 3)); then
        echo "smoke: [failover] kill -9 of the rank-0 manager's OS process at request ${i}..."
        kill9 m0
    fi
    get_ok srv2 "http://origin$((i % 4)).example/obj$((i % 32)).sjpg" "user$((i % 8))"
    sleep 0.03 # request spacing: the workload spans the election
done
await 30 "the standby to be primary at epoch >= 2 with a takeover counted" took_over
((bad == 0)) || fail failover "${bad} of ${REQUESTS} requests did not answer 200"
# Cache writes are datagrams: a refused send is the only failure the
# writer ever sees. The hub's partitions outlived the manager, so the
# front end must have sent writes and had none refused.
expect srv2 fe.fe0.cache_writes -ge 1
expect srv2 fe.fe0.cache_write_errors -eq 0
# One paired probe a request (variant, else original): never two.
fe0_requests=$(status_get "${http[srv2]}" fe.fe0.requests)
expect srv2 fe.fe0.cache_probes -ge 1
expect srv2 fe.fe0.cache_probes -le "${fe0_requests%%.*}"
clean hub srv2
echo "smoke: [failover] OK — rank-0 manager process kill -9ed mid-workload, standby primary at epoch $(status_get "${http[srv2]}" manager-r1.epoch), zero failed requests, zero wire errors"
inboxes
stop_nodes

leg=overload
PORT3=$((PORT + 2))
echo "smoke: [overload] data-plane process on :${PORT3}, serving process with 1 front end, inflight bound 2, cache TTL 500ms..."
# One front end so a shed reaches the client instead of failing over to
# a sibling; the TTL lets the warm set expire into stale data the
# degraded rung can serve.
start_node ovl -listen "tcp:127.0.0.1:${PORT3}" -roles worker,cache -seed 6
start_node srv3 -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT3}" \
    -roles frontend,manager,monitor -cache-host ovl -seed 7 \
    -frontends 1 -fe-max-inflight 2 -cache-ttl 500ms
up ovl srv3

bad=0
for ((i = 0; i < 40; i++)); do
    get_ok srv3 "http://origin$((i % 4)).example/obj$((i % 32)).sjpg" "user$((i % 8))"
done
for ((i = 0; i < 8; i++)); do
    get_ok srv3 "http://overload.example/obj${i}.sjpg" overload
done
((bad == 0)) || fail overload "${bad} of 48 unloaded requests did not answer 200"

# Burst until one burst shows both rungs; the first ones find the warm
# set still fresh. Saturated requests with a stale answer degrade, the
# rest shed with the typed error, and nothing else may go wrong.
shed=0 degraded=0
for ((round = 1; round <= 20 && (shed == 0 || degraded == 0); round++)); do
    burst=()
    for ((i = 0; i < 64; i++)); do
        url="http://overload-fresh.example/obj$((round * 1000 + i)).sjpg"
        ((i % 2)) || url="http://overload.example/obj$((i % 8)).sjpg"
        fetch "${http[srv3]}" "${url}" overload >"${tmp}/burst.${i}" &
        burst+=($!)
    done
    wait "${burst[@]}"
    results=$(cat "${tmp}"/burst.*)
    shed=$(grep -c '^503 overloaded -$' <<<"${results}" || true)
    degraded=$(grep -c '^200 - 1$' <<<"${results}" || true)
    other=$(grep -cv -e '^503 overloaded -$' -e '^200 - 1$' -e '^200 - -$' <<<"${results}" || true)
    echo "smoke: [overload] burst ${round}: $(grep -c '^200 - -$' <<<"${results}" || true) ok, ${degraded} degraded, ${shed} shed, ${other} other"
    ((other == 0)) || fail overload "burst ${round}: answers that are neither ok, degraded nor a typed shed: $(sort <<<"${results}" | uniq -c | tr '\n' ';')"
    sleep 0.1
done
((shed >= 1)) || fail overload "bursts past capacity but no 503 with X-TranSend-Error: overloaded"
((degraded >= 1)) || fail overload "no answer marked X-TranSend-Degraded: the stale-cache rung never ran"
expect srv3 fe.fe0.shed -ge 1
expect srv3 fe.fe0.degraded -ge 1
clean ovl srv3
echo "smoke: [overload] OK — 64-wide burst against an inflight bound of 2: ${degraded} degraded serves plus ${shed} typed sheds, nothing else, zero wire errors"
inboxes
stop_nodes

leg=trace
PORT4=$((PORT + 3))
echo "smoke: [trace] data-plane process on :${PORT4}, serving process with -trace-sample 1..."
start_node trc -listen "tcp:127.0.0.1:${PORT4}" -roles worker,cache -seed 8
start_node tsv -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT4}" \
    -roles frontend,manager,monitor -cache-host trc -seed 9 -trace-sample 1
up trc tsv

trace_id=$(curl -fsS -D - -o /dev/null \
    "http://127.0.0.1:${http[tsv]}/fetch?url=http://origin4.example/trace.sjpg" |
    tr -d '\r' | grep -i '^x-trace-id:' | awk '{print $2}')
[[ -n "${trace_id}" ]] || fail trace "/fetch returned no X-Trace-Id header"
echo "smoke: [trace] trace id ${trace_id}"

# The worker-side spans cross to the monitor on the next report tick; poll /trace
# until the tree covers both OS processes and decomposes the worker's
# part into queue-wait and service time.
tree_complete() {
    local want tree
    tree=$(curl -fsS "http://127.0.0.1:${http[tsv]}/trace?id=${trace_id}" || true)
    for want in '"proc": "trc"' '"proc": "tsv"' '"hop": "worker.queue"' '"hop": "worker.service"' '"hop": "cache.store"' '"hop": "fe.request"'; do
        seen="no ${want} in ${tree}"
        grep -q "${want}" <<<"${tree}" || return 1
    done
    # The cache read is one probe, so one hop in each process.
    for want in fe.cache cache.serve; do
        seen="not exactly one ${want} hop noted hit, orig or miss in ${tree}"
        [ "$(grep -c "\"hop\": \"${want}\"" <<<"${tree}")" -eq 1 ] || return 1
        grep -A1 "\"hop\": \"${want}\"" <<<"${tree}" | grep -Eq '"note": "(hit|orig|miss)"' || return 1
    done
}
await 10 "a span tree from both processes" tree_complete

# The metrics plane: the one registry, as Prometheus text on /metrics
# and as the JSON every leg above already read on /status.
# (grep reads the whole page: -q would hang up on curl mid-write, and
# pipefail would report curl's broken pipe as a missing sample.)
curl -fsS "http://127.0.0.1:${http[tsv]}/metrics" | grep '^sns_san_sent ' >/dev/null ||
    fail trace "/metrics has no sns_san_sent sample"
expect tsv san.sent -ge 1
clean trc tsv
echo "smoke: [trace] OK — one X-Trace-Id resolved to a span tree recorded by both OS processes (fe.request on tsv, worker.queue + worker.service on trc); /metrics and /status serve the registry"
inboxes
stop_nodes

leg=edge
PORT5=$((PORT + 4))
echo "smoke: [edge] data-plane process (manager,worker,cache,monitor) on :${PORT5}, two single-FE processes, an edge on :${EDGE_PORT}..."
start_node dp5 -listen "tcp:127.0.0.1:${PORT5}" -roles manager,worker,cache,monitor -seed 10
start_fe() { # start_fe <name> <seed>
    start_node "$1" -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT5}" \
        -roles frontend -frontends 1 -fe-http 127.0.0.1 -cache-host dp5 -seed "$2"
}
# The edge learns the front ends from their announcements alone, which come
# fast only while they are starting: it starts with them.
start_fe fea 11
start_fe feb 12
start_node edg -listen tcp:127.0.0.1:0 -join "tcp:127.0.0.1:${PORT5}" \
    -roles edge -edge-listen "127.0.0.1:${EDGE_PORT}" -seed 13
up dp5 fea feb edg
# The edge must have learned BOTH replicas from announcements before the
# kill, or the eject/readmit assertions race pool discovery.
await 10 "the edge pool to see both front ends" status_is "${http[edg]}" edge.edge.healthy -eq 2

edge_get() { # through the front door, not a node's own -http
    curl -fsS -o /dev/null --max-time 10 \
        "http://127.0.0.1:${EDGE_PORT}/fetch?url=http://origin5.example/e$1.sbin" || bad=$((bad + 1))
}
bad=0
for ((i = 1; i <= 20; i++)); do edge_get "w${i}"; done
for ((i = 1; i <= 60; i++)); do
    if ((i == 15)); then
        echo "smoke: [edge] kill -9 of front-end process feb at request ${i}..."
        kill9 feb
    fi
    edge_get "k${i}"
    sleep 0.05 # request spacing
done
expect edg edge.edge.ejects -ge 1

# A front end heard again after its row expired is greeted with a beacon
# at once; one back inside its old incarnation's TTL would wait for the
# next periodic one.
await 10 "the manager to let feb's front end expire" status_is "${http[dp5]}" manager.frontends -eq 1
echo "smoke: [edge] restarting front-end process feb..."
start_fe feb 12
up feb
# Keep idempotent traffic flowing so the pool can risk a half-open probe
# against the respawned replica, until it is readmitted.
probe_readmitted() {
    edge_get "r$((SECONDS))${RANDOM}"
    status_is "${http[edg]}" edge.edge.readmits -ge 1
}
await 15 "the respawned backend to be readmitted" probe_readmitted
((bad == 0)) || fail edge "${bad} client-visible request failures across the FE kill"
curl -fsS "http://127.0.0.1:${EDGE_PORT}/metrics" | grep '^sns_edge_' >/dev/null ||
    fail edge "/metrics on the edge listener has no sns_edge_ samples"
expect edg san.wire_errors -eq 0
echo "smoke: [edge] OK — FE process kill -9ed and restarted under load through the front door: zero failed requests, $(status_get "${http[edg]}" edge.edge.ejects) eject(s), $(status_get "${http[edg]}" edge.edge.readmits) probe readmission(s), zero wire errors"
inboxes
