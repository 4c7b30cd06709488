#!/usr/bin/env bash
# Runs the google-benchmark micro-benchmarks and writes one merged
# BENCH_<date>.json at the repo root.
#
#   bench/run_bench.sh [build-dir] [--baseline BENCH_old.json]
#
# With --baseline, each benchmark also gets a "speedup_vs_baseline" field
# (baseline real_time / current real_time) so regressions and wins are
# visible in the committed artifact.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
baseline=""
if [[ "${2:-}" == "--baseline" ]]; then
  baseline="${3:?--baseline needs a path}"
fi

benches=(micro_flow_solver micro_mincost micro_overlay micro_scheduler)
out="$repo_root/BENCH_$(date +%Y-%m-%d).json"
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

for b in "${benches[@]}"; do
  bin="$build_dir/bench/$b"
  if [[ ! -x "$bin" ]]; then
    echo "skipping $b (not built at $bin)" >&2
    continue
  fi
  echo "running $b ..." >&2
  "$bin" --benchmark_min_time=0.2 \
         --benchmark_format=json >"$tmp_dir/$b.json"
done

# Sharded-admission figure bench (not google-benchmark): emits its own
# JSON rows and exits nonzero if any cell double-promised bandwidth, so
# a broken no-double-booking invariant fails the whole bench run.
shard_json=""
shard_bin="$build_dir/bench/shard_admission"
if [[ -x "$shard_bin" ]]; then
  echo "running shard_admission ..." >&2
  "$shard_bin" --json "$tmp_dir/shard_admission.rows" >/dev/null
  shard_json="$tmp_dir/shard_admission.rows"
else
  echo "skipping shard_admission (not built at $shard_bin)" >&2
fi

# Gossip-quality figure bench: same convention. Exits nonzero when the
# default-knob quality gap vs the centralized optimum exceeds 15% or a
# scaling cell breaks the per-round byte budget.
gossip_json=""
gossip_bin="$build_dir/bench/gossip_quality"
if [[ -x "$gossip_bin" ]]; then
  echo "running gossip_quality ..." >&2
  "$gossip_bin" --json "$tmp_dir/gossip_quality.rows" >/dev/null
  gossip_json="$tmp_dir/gossip_quality.rows"
else
  echo "skipping gossip_quality (not built at $gossip_bin)" >&2
fi

# Predictive-SLO figure bench: same convention. Exits nonzero unless the
# predictive trigger cuts the deadline-violating window fraction to
# <= 0.7x the reactive column under load drift, with no extra teardowns.
predictive_json=""
predictive_bin="$build_dir/bench/predictive_slo"
if [[ -x "$predictive_bin" ]]; then
  echo "running predictive_slo ..." >&2
  "$predictive_bin" --json "$tmp_dir/predictive_slo.rows" >/dev/null
  predictive_json="$tmp_dir/predictive_slo.rows"
else
  echo "skipping predictive_slo (not built at $predictive_bin)" >&2
fi

shopt -s nullglob
results=("$tmp_dir"/*.json)
if [[ ${#results[@]} -eq 0 ]]; then
  echo "error: no benchmarks found under $build_dir/bench — build first" >&2
  exit 1
fi

jq -s --arg date "$(date +%Y-%m-%d)" --arg host "$(uname -sr)" '
  {
    date: $date,
    host: $host,
    benchmarks: (map(.benchmarks[]
        | {name, real_time, cpu_time, time_unit,
           items_per_second: (.items_per_second // null)}))
  }' "$tmp_dir"/*.json >"$out"

if [[ -n "$shard_json" ]]; then
  jq --slurpfile shard "$shard_json" '.shard_admission = $shard[0]' \
    "$out" >"$out.tmp" && mv "$out.tmp" "$out"
fi

if [[ -n "$gossip_json" ]]; then
  jq --slurpfile gossip "$gossip_json" '.gossip_quality = $gossip[0]' \
    "$out" >"$out.tmp" && mv "$out.tmp" "$out"
fi

if [[ -n "$predictive_json" ]]; then
  jq --slurpfile pred "$predictive_json" '.predictive_slo = $pred[0]' \
    "$out" >"$out.tmp" && mv "$out.tmp" "$out"
fi

if [[ -n "$baseline" ]]; then
  jq --slurpfile base "$baseline" '
    ($base[0].benchmarks | map({(.name): .real_time}) | add) as $old
    | .baseline_date = $base[0].date
    | .benchmarks |= map(
        if $old[.name] then
          . + {baseline_real_time: $old[.name],
               speedup_vs_baseline:
                 (($old[.name] / .real_time) * 1000 | round / 1000)}
        else . end)
  ' "$out" >"$out.tmp" && mv "$out.tmp" "$out"
fi

echo "wrote $out" >&2
