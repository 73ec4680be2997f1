#!/usr/bin/env bash
# Parent-vs-change benchmark gate. Checks BASE out into a git worktree,
# runs the repository benchmark (benchmark/run.sh, every workload, 20 s
# windows) PAIRS times on each side, alternating which side goes first,
# and judges the two sides with `benchmark/run.sh --compare`: its bounds
# are those of BENCHMARK.json. This script computes no median, bound or
# verdict of its own.
#
# Pair i runs every workload once on each side with --seed i; the parent
# (BASE) goes first when i is odd, the change (this working tree) when i
# is even. Each side's runs are merged into one --runs --out file.
#
# Writes, under .bench_pr/ at the repository root:
#   parent.json, change.json   the merged run files
#   compare.txt                the --compare table
#
# Exits 1 if any --compare row is `worse` or any run failed or was
# incorrect, 2 on a usage error.
#
# Usage: scripts/bench_pr.sh BASE PAIRS
set -euo pipefail

if [ $# -ne 2 ] || ! [[ "$2" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: $0 BASE PAIRS" >&2
  exit 2
fi
BASE="$1"
PAIRS="$2"

cd "$(dirname "$0")/.."
root=$(pwd)
dir="$root/.bench_pr"
tree="$dir/base"

remove_tree() {
  git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
  git worktree prune
}
remove_tree
rm -rf "$dir"
mkdir -p "$dir/runs"
git worktree add --quiet --detach "$tree" "$BASE"
trap remove_tree EXIT

failed=0
# run_side SIDE TREE SEED — one run of every workload from TREE's root;
# its summary table goes to runs/SIDE-SEED.log.
run_side() {
  echo "== pair $3: $1"
  if ! (cd "$2" && bash benchmark/run.sh --workload all --runs 1 --seed "$3" \
    --out "$dir/runs/$1-$3.json" >"$dir/runs/$1-$3.log"); then
    echo "bench_pr: $1 run with seed $3 failed or was incorrect" >&2
    failed=1
  fi
}

for ((i = 1; i <= PAIRS; i++)); do
  if ((i % 2 == 1)); then
    run_side parent "$tree" "$i"
    run_side change "$root" "$i"
  else
    run_side change "$root" "$i"
    run_side parent "$tree" "$i"
  fi
done

# merge SIDE — one {seconds, trace, host, runs} file from the side's runs.
merge() {
  local files=("$dir/runs/$1"-*.json)
  if [ ! -e "${files[0]}" ]; then
    echo "bench_pr: no $1 run wrote a result" >&2
    exit 1
  fi
  jq -s '{seconds: .[0].seconds, trace: .[0].trace, host: .[0].host, runs: [.[].runs[]]}' \
    "${files[@]}" >"$dir/$1.json"
}
merge parent
merge change

status=0
bash benchmark/run.sh --compare "$dir/parent.json" "$dir/change.json" >"$dir/compare.txt" || status=$?
cat "$dir/compare.txt"
if [ "$status" -ne 0 ]; then
  echo "bench_pr: --compare found a worse row against $BASE, or failed" >&2
  exit 1
fi
if [ "$failed" -ne 0 ]; then
  exit 1
fi
