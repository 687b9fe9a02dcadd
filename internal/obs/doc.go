// Package obs is the process-wide observability plane: a metrics
// registry and a distributed request tracer, shared by every SNS
// component in a process (each san.Network owns one of each).
//
// # Metrics registry
//
// Registry holds named counters, gauges, and fixed-bucket latency
// histograms under consistent dotted names ("fe.fe0.requests",
// "san.wire_encodes", "bridge.frames_out"). The fast path is a single
// atomic add on a pre-resolved handle — components look a metric up
// once and hold the pointer; nothing on the hot path takes a lock.
// Components whose counters already live in ad-hoc atomic Stats
// structs publish through collectors instead: a collector is a named
// callback that emits (name, value) pairs at snapshot time, so the
// existing structs join the registry without touching their own hot
// paths. Snapshot folds everything into one map for machine-readable
// /status; WritePrometheus renders the Prometheus text exposition
// format for /metrics.
//
// # Tracing
//
// A TraceID is minted at front-end admission and rides the request
// through every hop: in-process as san.Message.Trace (delivery
// metadata, like Message.Deadline), across process boundaries as a
// frame field (transport.FlagTrace) and embedded in stub.TaskMsg.
// Bit 0 of the id is the sampling decision — made once at the mint,
// honored everywhere — so downstream hops never re-roll the dice and
// a trace is always complete or absent. The default rate is 1 in 64;
// hops that observe a degraded, shed, or expired request record
// unconditionally, so every pathological request leaves a trail.
//
// Spans land in a bounded ring (oldest evicted first) — recording is
// a mutex-guarded array write, paid only for sampled traces, so the
// zero-copy send path stays inside its alloc gates when sampling is
// off. Each process periodically multicasts its freshly recorded
// spans as a digest on the report group (core's span reporter), and
// only the monitor listens: it ingests every digest into its process's
// ring, dropping spans its own process recorded (they are there
// already), and folds them into a per-hop latency breakdown. So
// /trace?id= on the monitor's process returns the cluster-wide span
// tree, and on any other process that process's own spans.
//
// A root span ("fe.request") whose duration crosses SlowThreshold
// triggers the slow-request log: the full local span tree for that
// trace is emitted through Logf.
package obs
