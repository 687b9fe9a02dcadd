package main

// Bench-regression gate: diff two BENCH_*.json snapshots and fail
// (exit 1) when a seed-deterministic metric drifts more than the
// tolerance from the committed baseline. Wall-clock metrics (ns/op,
// distiller ms/KB, recovery latency) vary with the host, so they are
// printed for the trajectory but never gated; structural metrics and
// allocs/op are pure functions of the seed and the code, so any
// drift there is a real change.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// gatedMetrics lists the seed-deterministic metrics and the relative
// drift each tolerates (0.20 = fail beyond ±20%).
var gatedMetrics = map[string]float64{
	"fig5_gif_mean_bytes":        0.20,
	"fig6_arrivals_per_hour":     0.20,
	"fig8_spawns_per_run":        0.20,
	"table2_req_s_per_distiller": 0.20,
	"cache_hit_rate":             0.20,
	"oscillation_spread_ratio":   0.20,
	"sansat_beacon_loss":         0.20,
	"wire_encode_append_allocs":  0.20,
	"wire_decode_allocs":         0.20,
	"san_send_wire_allocs":       0.20,
	"partition_get_allocs":       0.20,
	// Transport framing: steady-state encode and the zero-copy
	// streaming decode both stay at 0 allocs/op (zeroSlack guards a
	// zero baseline — a regression to >=1 alloc/op means the
	// alloc-free append or buffer reuse broke).
	"frame_encode_allocs": 0.20,
	"frame_decode_allocs": 0.20,
	// Bridged send: the per-frame cost of the socket data plane. The
	// remaining allocs are the decoded body's owned strings; anything
	// above that means frame scratch pooling or the vectored path
	// regressed.
	"bridge_send_allocs": 0.20,
	// Blob relay (FE→cache→FE over two bridges): allocs at every size,
	// plus allocated bytes at the sizes where B/op is the copy count
	// ("at most one body copy per hop" = B/op stays far below the body
	// size). Bytes get a looser tolerance: amortized pool misses and
	// GC timing put real variance on small absolute values.
	"blob_relay_4k_allocs":   0.20,
	"blob_relay_64k_allocs":  0.20,
	"blob_relay_512k_allocs": 0.20,
	"blob_relay_64k_bytes":   0.50,
	"blob_relay_512k_bytes":  0.50,
}

// zeroSlack is the absolute drift every gated metric tolerates before
// the relative gate applies. Relative drift is undefined at a zero
// baseline and meaningless next to it: amortized pool misses put
// allocs/op values like 2e-7 in the snapshots, where run-to-run noise
// is a large multiple of the value itself. Any real regression of the
// metrics this guards — an alloc-free path regressing to ≥1 alloc/op —
// clears half an alloc with room to spare.
const zeroSlack = 0.5

func loadSnapshot(path string) (BenchSnapshot, error) {
	var snap BenchSnapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return snap, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// runBenchDiff compares a fresh snapshot against the baseline and
// returns the number of gated regressions.
func runBenchDiff(basePath, freshPath string) (int, error) {
	base, err := loadSnapshot(basePath)
	if err != nil {
		return 0, err
	}
	fresh, err := loadSnapshot(freshPath)
	if err != nil {
		return 0, err
	}
	fmt.Printf("bench diff: baseline %s (%s) vs fresh %s (%s)\n\n", basePath, base.Date, freshPath, fresh.Date)
	fmt.Printf("%-30s %14s %14s %9s  %s\n", "metric", "baseline", "fresh", "drift", "verdict")

	keys := make([]string, 0, len(base.Metrics))
	for k := range base.Metrics {
		keys = append(keys, k)
	}
	for k := range fresh.Metrics {
		if _, ok := base.Metrics[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	failures := 0
	for _, k := range keys {
		old, hasOld := base.Metrics[k]
		cur, hasCur := fresh.Metrics[k]
		tol, gated := gatedMetrics[k]
		switch {
		case !hasOld:
			verdict := "new metric (ungated)"
			if gated {
				// A gated metric with no baseline would silently
				// disable its own gate; force a baseline refresh.
				verdict = "FAIL: gated metric has no baseline (refresh BENCH_*.json)"
				failures++
			}
			fmt.Printf("%-30s %14s %14.4g %9s  %s\n", k, "-", cur, "-", verdict)
		case !hasCur:
			verdict := "dropped (ungated)"
			if gated {
				verdict = "FAIL: gated metric missing"
				failures++
			}
			fmt.Printf("%-30s %14.4g %14s %9s  %s\n", k, old, "-", "-", verdict)
		default:
			var drift float64
			if old != 0 {
				drift = (cur - old) / math.Abs(old)
			}
			verdict := "ok (ungated)"
			if gated {
				verdict = "ok"
				exceeded := math.Abs(drift) > tol && math.Abs(cur-old) > zeroSlack
				if exceeded {
					verdict = fmt.Sprintf("FAIL: beyond ±%.0f%%", tol*100)
					failures++
				}
			}
			fmt.Printf("%-30s %14.4g %14.4g %+8.1f%%  %s\n", k, old, cur, drift*100, verdict)
		}
	}
	if failures > 0 {
		fmt.Printf("\n%d gated metric(s) regressed beyond tolerance\n", failures)
	} else {
		fmt.Println("\nall gated metrics within tolerance")
	}
	return failures, nil
}
