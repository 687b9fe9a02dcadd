// Package repro is a from-scratch Go reproduction of "Cluster-Based
// Scalable Network Services" (Fox, Gribble, Chawathe, Brewer, and
// Gauthier — SOSP 1997): the layered SNS/TACC architecture, two
// services on it — the TranSend distillation proxy and a HotBot-style
// search engine whose index partitions are worker classes of the same
// layer — and a harness that regenerates every table and figure in the
// paper's evaluation. layering_test.go keeps the layer's packages from
// depending on either service.
//
// Start with README.md for the tour and the package map (including
// the SAN's wire codec — the serialization path every assembled
// system runs — internal/transport, the framed, batched socket
// layer that lets one cluster span real OS processes via cmd/node,
// and internal/supervisor, the per-process daemon whose roster the
// primary manager reconciles against what it hears, and whose hand
// makes restarts and rolling upgrades reach across those processes).
// Three tools measure it, and each number has one home: bench/ (its
// own module, bash bench/run.sh) drives the two-process system through
// the edge for the end-to-end and per-layer numbers; the table in
// microbench_test.go holds the hot path's leaf costs (go test -bench
// Micro .) with allocation ceilings that TestMicroCeilings enforces in
// every go test run; cmd/experiments prints the paper's figures, tables
// and ablations for side-by-side comparison.
package repro
