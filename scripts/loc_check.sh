#!/usr/bin/env bash
# Line-count ratchet: fail when the tree's non-test Go lines outside
# bench/ (the figure `make loc` prints first, and the one ROADMAP.md and
# CHANGES.md quote) exceed the committed loc_baseline.txt. A PR that
# shrinks the tree lowers the baseline in the same commit; one that must
# grow it says so by raising it: scripts/loc_check.sh --update
set -euo pipefail
cd "$(dirname "$0")/.."

baseline_file=loc_baseline.txt
total=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l)

if [ "${1:-}" = "--count" ]; then # what `make loc` prints
  echo "non-test Go lines outside bench/: ${total}"
  exit 0
fi
if [ "${1:-}" = "--update" ]; then
  {
    echo "# Non-test Go lines outside bench/ — regenerate with scripts/loc_check.sh --update"
    echo "# The CI gate (make loc-gate) fails when the tree exceeds this."
    echo "total ${total}"
  } > "$baseline_file"
  echo "baseline updated: ${total} lines"
  exit 0
fi

baseline=$(awk '$1 == "total" {print $2}' "$baseline_file")
echo "non-test Go lines outside bench/: ${total} (baseline ${baseline})"
if [ "$total" -gt "$baseline" ]; then
  echo "FAIL: the tree grew by $((total - baseline)) lines over the committed baseline ${baseline}" >&2
  echo "Delete as much as was added, or raise it on purpose with scripts/loc_check.sh --update" >&2
  exit 1
fi
