#!/usr/bin/env bash
# Same-job A/B of the end-to-end benchmark.
#
#   bench/ab.sh BASE
#
# BASE is any git revision. A is BASE, checked out in a temporary
# worktree; B is the working tree this script lives in, uncommitted
# changes included. Each side builds only benchmark/main.exe and runs
# one full set from its own root (`main.exe run`: every workload, 10
# samples each), A first. B's `main.exe compare` then prints the table.
#
# Exit status is compare's: 0 when no row is worse, 1 on a row worse
# than its bound or a higher fail rate (benchmark/README.md, "Bounds").
# A.json, B.json and the table (compare.txt) stay in the directory named
# on the first line of output, outside the repository.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: bench/ab.sh BASE" >&2
  exit 2
fi
base=$1
head=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d)
echo "bench/ab.sh: results in $out"

wt=$out/base
cleanup() {
  git -C "$head" worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
  git -C "$head" worktree prune
}
trap cleanup EXIT
git -C "$head" worktree add --quiet --detach "$wt" "$base"

# measure TREE RESULT: build and run one set from the tree's root
measure() {
  (cd "$1" &&
    dune build --root=. benchmark/main.exe &&
    _build/default/benchmark/main.exe run --seed 1 --out "$2")
}
measure "$wt" "$out/A.json"
measure "$head" "$out/B.json"

status=0
(cd "$head" && _build/default/benchmark/main.exe compare "$out/A.json" "$out/B.json") |
  tee "$out/compare.txt" || status=$?
echo "bench/ab.sh: A = $base, B = $head; results in $out"
exit "$status"
