#!/usr/bin/env bash
# Paired benchmark runs, parent against the working tree:
#
#   scripts/bench_pairs.sh <parent-ref> <workload|all> [pairs=10]
#
# The procedure bench/README.md §Comparing and the choosing-metrics
# guide §8 ask of every performance claim: <parent-ref> is exported
# into .bench_build/parent, then `bench/run.sh --trace 0` runs on the
# parent and on the working tree alternately — which side goes first
# flips every pair, and each pair shares one seed taken from the clock,
# so no seed is one the change was written against. Each run's last
# stdout line (the result JSON) is appended to
# .bench_build/pairs/<workload>/{parent,change}.jsonl, which start
# empty on every invocation. At the end, per end-to-end metric of
# BENCHMARK.json: both medians, both inter-quartile ranges, the change
# in percent of the parent's median, wins/ties/losses for the change,
# and a verdict: "unresolved" when either side's inter-quartile range
# exceeds the metric's bound times the PARENT's median (the yardstick
# the merge check uses for both sides, so a change that multiplies a
# metric has to hold it that much steadier); "WORSE" when the change's
# median is worse by more than that; "better" when the pair rule allows
# a claim (the change wins at least nine tenths of the pairs, ties
# counting for neither side, and the medians differ by more than the
# parent's inter-quartile distance); otherwise "same".
# The exit status is the merge check's: non-zero when any row reads
# WORSE or unresolved. Workload "all" runs every workload BENCHMARK.json
# lists, one after the other, and fails if any of them does.
# The script only drives bench/run.sh; it reads BENCHMARK.json for the
# run length, the metric list and the bounds.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	echo "usage: $0 <parent-ref> <workload|all> [pairs=10]" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=${3:-10}
if [ "$workload" = all ]; then
	rc=0
	for w in $(awk '/"workloads"/ { inside = 1 } /"end_to_end"/ { inside = 0 }
		inside && /"name"/ { gsub(/[",]/, "", $2); print $2 }' BENCHMARK.json); do
		"$0" "$ref" "$w" "$pairs" || rc=1
	done
	exit $rc
fi
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

parent=.bench_build/parent
out=.bench_build/pairs/$workload
commit=$(git rev-parse --verify "$ref^{commit}")
# An export, not a worktree: the parent needs no .git, and nothing is
# left registered in the repository when .bench_build/ is deleted. Its
# own .bench_build/ (the Go build cache) survives a re-export of the
# same commit so only the first run compiles from scratch.
if [ "$(cat "$parent/.bench_commit" 2>/dev/null)" != "$commit" ]; then
	rm -rf "$parent"
	mkdir -p "$parent"
	git archive "$commit" | tar -x -C "$parent"
	echo "$commit" > "$parent/.bench_commit"
fi
mkdir -p "$out"
: > "$out/parent.jsonl"
: > "$out/change.jsonl"

# run_side <dir> <file> <seed>: one run; a run that fails its own gates
# still prints a result line, which is kept (and counted below).
run_side() {
	local line
	line=$(bash "$1/bench/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
	case $line in
	'{'*) echo "$line" >> "$2" ;;
	*) echo "bench_pairs: $1 seed $3 printed no result line" >&2; exit 1 ;;
	esac
}

base=$(($(date +%s) % 1000000))
for i in $(seq 1 "$pairs"); do
	seed=$((base + i))
	if [ $((i % 2)) -eq 1 ]; then
		order="parent change"
	else
		order="change parent"
	fi
	for side in $order; do
		dir=.
		[ "$side" = parent ] && dir=$parent
		run_side "$dir" "$out/$side.jsonl" "$seed"
	done
	echo "pair $i/$pairs seed $seed ($order) done" >&2
done

echo "$workload: $pairs pairs of ${seconds}s, parent ${commit:0:7} vs working tree, seeds $((base + 1))..$((base + pairs))"
awk -v parentf="$out/parent.jsonl" -v changef="$out/change.jsonl" '
# quantile q of the n sorted values v[1..n], linear interpolation.
function quantile(v, n, q,    pos, lo) {
	pos = 1 + (n - 1) * q; lo = int(pos)
	return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function sorted(src, dst, n,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
# field(line, key): the number after "key": or "key":{"value":
function field(line, key,    re) {
	re = "\"" key "\":(\\{\"value\":)?[-0-9.eE+]+"
	if (!match(line, re)) return ""
	line = substr(line, RSTART, RLENGTH); sub(/.*:/, "", line)
	return line + 0
}
function load(file, vals, tally,    n, line, i) {
	n = 0
	while ((getline line < file) > 0) {
		n++
		for (i = 1; i <= nm; i++) vals[i, n] = field(line, name[i])
		tally["attempted"] += field(line, "attempted"); tally["failed"] += field(line, "failed")
		if (line !~ /"correct":true/) tally["incorrect"]++
	}
	return n
}
# The metric list: name and direction of each end_to_end entry.
/"end_to_end"/ { inside = 1; next }
inside && /^  \]/ { inside = 0 }
inside && /"name"/ { nm++; gsub(/[",]/, "", $2); name[nm] = $2 }
inside && /"better"/ { gsub(/[",]/, "", $2); better[nm] = $2 }
inside && /"bound"/ { bound[nm] = $2 + 0 }
END {
	np = load(parentf, P, tp); nc = load(changef, C, tc)
	n = np < nc ? np : nc
	printf "%-16s %12s %-25s %12s %-25s %8s %8s  %s\n", "metric", "parent med", "[q1, q3]", "change med", "[q1, q3]", "change", "W/T/L", "verdict"
	for (i = 1; i <= nm; i++) {
		w = t = l = 0
		for (k = 1; k <= n; k++) {
			p[k] = P[i, k]; c[k] = C[i, k]
			d = better[i] == "higher" ? c[k] - p[k] : p[k] - c[k]
			if (d > 0) w++; else if (d < 0) l++; else t++
		}
		sorted(p, sp, n); sorted(c, sc, n)
		pm = quantile(sp, n, .5); cm = quantile(sc, n, .5)
		iqr = quantile(sp, n, .75) - quantile(sp, n, .25)
		ciqr = quantile(sc, n, .75) - quantile(sc, n, .25)
		gain = better[i] == "higher" ? cm - pm : pm - cm
		# The spread of each side is read against one yardstick, the bound
		# times the parent median: a change that multiplies a metric must
		# hold it that much steadier, or nothing can be said about it.
		lim = bound[i] * pm
		if (iqr > lim || ciqr > lim) verdict = sprintf("unresolved (spread %.3g > %.3g)", iqr > ciqr ? iqr : ciqr, lim)
		else if (-gain > lim) verdict = "WORSE"
		else verdict = (w >= 0.9 * n && gain > iqr) ? "better" : "same"
		if (verdict ~ /^(WORSE|unresolved)/) refused = 1
		printf "%-16s %12.2f %-25s %12.2f %-25s %+7.1f%% %8s  %s\n", name[i], pm, \
			sprintf("[%.2f, %.2f]", quantile(sp, n, .25), quantile(sp, n, .75)), cm, \
			sprintf("[%.2f, %.2f]", quantile(sc, n, .25), quantile(sc, n, .75)), \
			pm ? 100 * (cm - pm) / pm : 0, w "/" t "/" l, verdict
	}
	printf "operations attempted/failed: parent %d/%d, change %d/%d; runs not correct: parent %d, change %d\n", \
		tp["attempted"], tp["failed"], tc["attempted"], tc["failed"], tp["incorrect"], tc["incorrect"]
	exit refused
}' BENCHMARK.json
