#!/usr/bin/env bash
# The micro-benchmark table (microbench_test.go), each row run several
# times, then one summary line per row: the median and the minimum of
# its ns/op, B/op and allocs/op.
#
#   scripts/bench_micro.sh [bench-regexp=Micro] [count=10]
#
# One run of a row is not a measurement on a small shared host: the
# same binary's wire_encode_append has read 50–116 ns/op minutes apart.
# Compare medians (and minimums) of two trees run alternately, not two
# single runs. The raw `go test` lines go to stderr, the summary to
# stdout; the exit status is go test's.
set -euo pipefail
cd "$(dirname "$0")/.."

go test -run='^$' -bench="${1:-Micro}" -benchmem -count="${2:-10}" . | tee /dev/stderr | awk '
/^Benchmark/ {
	name = $1
	if (!(name in runs)) order[++rows] = name
	k = ++runs[name]
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns[name, k] = $i + 0
		if ($(i + 1) == "B/op") by[name, k] = $i + 0
		if ($(i + 1) == "allocs/op") al[name, k] = $i + 0
	}
}
# stat prints the median and the minimum of a[name, 1..k].
function stat(a, name, k, f,    i, j, t, v) {
	for (i = 1; i <= k; i++) v[i] = a[name, i]
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	return sprintf(f " / " f, k % 2 ? v[(k + 1) / 2] : (v[k / 2] + v[k / 2 + 1]) / 2, v[1])
}
END {
	printf "%-36s %4s  %-21s %-13s %s\n", "median / min", "runs", "ns/op", "B/op", "allocs/op"
	for (r = 1; r <= rows; r++) {
		name = order[r]
		printf "%-36s %4d  %-21s %-13s %s\n", name, runs[name], stat(ns, name, runs[name], "%.0f"),
			stat(by, name, runs[name], "%.0f"), stat(al, name, runs[name], "%g")
	}
}'
