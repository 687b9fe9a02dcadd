// Package repro is a from-scratch Go reproduction of "Cluster-Based
// Scalable Network Services" (Fox, Gribble, Chawathe, Brewer, and
// Gauthier — SOSP 1997): the layered SNS/TACC architecture, the
// TranSend distillation proxy and HotBot-style search engine built on
// it, and a harness that regenerates every table and figure in the
// paper's evaluation.
//
// Start with README.md for the tour and the package map (including
// the SAN's wire codec — the serialization path every assembled
// system runs — internal/transport, the framed, batched socket
// layer that lets one cluster span real OS processes via cmd/node,
// and internal/supervisor, the per-process daemon whose roster the
// primary manager reconciles against what it hears, and whose hand
// makes restarts and rolling upgrades reach across those processes).
// The benchmarks in bench_test.go (one per reproduced artifact) and
// cmd/experiments regenerate the results; microbench.go is the one
// table of hot-path micro-benchmarks both go test -bench and the bench
// snapshot run; make bench-snapshot and make bench-diff track the perf
// trajectory across PRs.
package repro
