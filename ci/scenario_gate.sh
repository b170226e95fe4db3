#!/usr/bin/env bash
# Scenario behavior gate: digest pinning + bench-regression smoke.
#
# Usage: ci/scenario_gate.sh
#
# Runs scenario_slo_mix, scenario_elastic_churn, scenario_closed_loop,
# scenario_prefix_reuse, scenario_helix_race and the fig8/fig9/fig10
# quick sweeps, writing each bench's stdout to $outdir/<bench>.out, and
# pins the repo benchmark's own per-episode digests (perfbench at
# --seed 1, one behavior-digest row per workload in
# $outdir/perfbench.out). ci/repin.sh harvests those files. The gate
# fails when
#   1. any per-system behavior digest drifts from ci/pinned_digests.tsv
#      (re-pin in the same PR via ci/repin.sh --reason "<why>" when an
#      engine change legitimately moves behavior),
#   2. any sim-throughput row falls below the generous floors of
#      ci/sim_throughput_floors.tsv — gross perf regressions fail the
#      build instead of only being visible in BENCH files,
#   3. the telemetry-enabled live_telemetry example smoke fails,
#   4. the history_scaling guard fails, or
#   5. a debug build of perfbench trips a debug assertion on he150_hexgen
#      or he150_hetis, or prints digests other than their pinned rows.
#
# Every bench run's wall-clock seconds land in $outdir/elapsed.tsv
# (bench <TAB> seconds).
#
# The scenario binaries also carry their own asserts (determinism,
# SLO/goodput/peak-KV/TPOT/cost comparisons), so a plain run already
# gates on those; this script adds the cross-run pins.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  echo "usage: $0" >&2
  exit 2
fi

outdir="${SCENARIO_GATE_OUT:-target/scenario-gate}"
mkdir -p "$outdir"
# Start from this run's outputs only, so ci/repin.sh never harvests a
# file an earlier run left behind.
rm -f "$outdir"/*.out
elapsed="$outdir/elapsed.tsv"
: > "$elapsed"

benches=(scenario_slo_mix scenario_elastic_churn scenario_closed_loop
         scenario_prefix_reuse scenario_helix_race
         fig8_e2e_llama13b fig9_e2e_opt30b fig10_e2e_llama70b)

# Runs a command with stdout to <outfile>, records its elapsed seconds and
# returns the command's exit status.
#   timed <name> <outfile> <command...>
timed() {
  local name="$1" outfile="$2"
  shift 2
  local t0 t1 status=0
  t0=$(date +%s.%N)
  "$@" > "$outfile" || status=$?
  t1=$(date +%s.%N)
  awk -v b="$name" -v a="$t0" -v z="$t1" \
    'BEGIN { printf "%s\t%.2f\n", b, z - a }' >> "$elapsed"
  return $status
}

for bench in "${benches[@]}"; do
  echo "== $bench"
  timed "$bench" "$outdir/$bench.out" cargo bench --bench "$bench"
done

# ---- perfbench digests ----------------------------------------------------
# perfbench is a workspace of its own with a frozen Cargo.lock that cargo
# rewrites when a crate's dependency list changed; the lock is restored on
# exit so the gate leaves the benchmark untouched. Each workload's raw
# output goes to perfbench-<workload>.log, which holds no behavior-digest
# row; the harvested rows go to perfbench.out.
cp perfbench/Cargo.lock "$outdir/perfbench.Cargo.lock"
trap 'cp "$outdir/perfbench.Cargo.lock" perfbench/Cargo.lock' EXIT
: > "$outdir/perfbench.out"
for workload in he150_hetis he150_hexgen chat_storm; do
  echo "== perfbench --workload $workload"
  timed "perfbench-$workload" "$outdir/perfbench-$workload.log" \
    cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0
  awk -F'\t' -v w="$workload" \
    '$1 == "digests" { print "perfbench\tbehavior-digest\t" w "\t" $2 }' \
    "$outdir/perfbench-$workload.log" >> "$outdir/perfbench.out"
done

fail=0

# ---- 1. digest pinning ----------------------------------------------------
# The scenario benches run with telemetry DISABLED, so this diff doubles
# as the telemetry-neutrality gate: scenario_slo_mix additionally runs
# chunked+priority with the streaming bus attached and asserts (in-bench)
# that its digest equals the telemetry-off one — any tap that perturbs
# the simulation therefore fails both the bench's own assert and, if it
# leaks into the disabled path, these pins.
# scenario_closed_loop extends the same contract to the control loop: its
# chunked-alternating and open-loop pins REUSE the slo_mix chunked+priority
# and fused+priority digests (elastic wrapper + attached bus + closed_loop
# off must be bit-neutral), and its closed-loop pin freezes the actuation
# sequence itself. The fig8 pins fold every quick-sweep cell digest per
# system, so the whole end-to-end grid is covered by three rows.
# scenario_helix_race pins cover both racers AND the cost-accounting
# overlay: the hetis+ondemand / hetis+spot rows differ from hetis+elastic
# only by the attached CostReport, so they freeze the billing replay and
# the acquisition decisions themselves.
actual="$outdir/digests.tsv"
outs=()
for bench in "${benches[@]}" perfbench; do
  outs+=("$outdir/$bench.out")
done
grep -h "behavior-digest" "${outs[@]}" \
  | awk -F'\t' '{ print $1 "\t" $3 "\t" $4 }' > "$actual"
pinned="$outdir/pinned.tsv"
grep -v '^#' ci/pinned_digests.tsv | sort > "$pinned"
sort "$actual" > "$actual.sorted"
if ! diff -u "$pinned" "$actual.sorted"; then
  echo "FAIL: behavior digests drifted from ci/pinned_digests.tsv" >&2
  echo "      (re-pin in this PR with ci/repin.sh --reason \"...\" if intended)" >&2
  fail=1
else
  echo "digest gate: all $(wc -l < "$pinned") pins match"
fi

# ---- 2. sim-throughput floors ---------------------------------------------
while IFS=$'\t' read -r scenario system floor; do
  [[ "$scenario" == \#* || -z "$scenario" ]] && continue
  case "$scenario" in
    slo_mix) out="$outdir/scenario_slo_mix.out" ;;
    elastic_storm) out="$outdir/scenario_elastic_churn.out" ;;
    closed_loop) out="$outdir/scenario_closed_loop.out" ;;
    prefix_reuse) out="$outdir/scenario_prefix_reuse.out" ;;
    helix_race) out="$outdir/scenario_helix_race.out" ;;
    fig8) out="$outdir/fig8_e2e_llama13b.out" ;;
    *) echo "unknown scenario '$scenario' in floors file" >&2; fail=1; continue ;;
  esac
  got=$(awk -F'\t' -v sys="$system" \
    '$2 == "sim-throughput" && $3 == sys {
       for (i = 4; i <= NF; i++)
         if ($i ~ /^sim_per_wall=/) { sub("sim_per_wall=", "", $i); print $i }
     }' "$out")
  if [[ -z "$got" ]]; then
    echo "FAIL: no sim-throughput row for $scenario/$system" >&2
    fail=1
  elif awk -v g="$got" -v f="$floor" 'BEGIN { exit !(g < f) }'; then
    echo "FAIL: $scenario/$system sim_per_wall $got below floor $floor" >&2
    fail=1
  else
    echo "throughput floor: $scenario/$system sim_per_wall $got >= $floor"
  fi
done < ci/sim_throughput_floors.tsv

# ---- 3. telemetry-enabled smoke -------------------------------------------
# Runs the live_telemetry example (step-driven engine, 1 s queue/KV tick,
# JSONL flow log) and checks its self-validation markers: a non-empty
# final snapshot and one parseable flow record per completion.
echo "== live_telemetry smoke"
smoke="$outdir/live_telemetry.log"
if cargo run --release --example live_telemetry > "$smoke" 2>&1; then
  for marker in snapshot-ok jsonl-ok; do
    if ! grep -q "^$marker" "$smoke"; then
      echo "FAIL: live_telemetry did not print '$marker'" >&2
      fail=1
    fi
  done
  if [[ $fail -eq 0 ]]; then
    echo "telemetry smoke: $(grep -c . "$smoke") lines, markers present"
  fi
else
  echo "FAIL: live_telemetry example exited non-zero" >&2
  tail -5 "$smoke" >&2
  fail=1
fi

# ---- 4. history-scaling guard ---------------------------------------------
# Serves one Hetis workload at about 3k, 24k and 3k requests in one
# process; the bench exits non-zero when the long run's wall time per
# request exceeds 1.5x the short runs' mean, i.e. when a per-event path
# pays for the requests already served.
echo "== history_scaling"
if cargo bench --bench history_scaling > "$outdir/history_scaling.log"; then
  grep '^history-scaling' "$outdir/history_scaling.log"
else
  echo "FAIL: history_scaling: wall time per request grew with history" >&2
  cat "$outdir/history_scaling.log" >&2
  fail=1
fi

# ---- 5. debug oracles on the benchmark workloads ---------------------------
# A debug build keeps every debug assertion of the engine: the end-of-run
# KV ledger audit, the load-table rebuild on every decode formation, the
# running and registered-member counters and the stage-balance reference
# verdicts. Running it on the HumanEval workloads checks them on the
# benchmark's own traffic, whose digests must still equal the pinned
# release rows. chat_storm takes minutes in debug, so it stays out. The
# build has its own target directory, and the lock is restored on exit
# as above.
for workload in he150_hexgen he150_hetis; do
  echo "== perfbench (debug) --workload $workload"
  log="$outdir/perfbench-debug-$workload.log"
  if ! timed "perfbench-debug-$workload" "$log" \
    cargo run --offline --manifest-path perfbench/Cargo.toml \
    --target-dir "$outdir/perfbench-debug" -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0; then
    echo "FAIL: debug perfbench $workload exited non-zero" >&2
    fail=1
    continue
  fi
  got=$(awk -F'\t' '$1 == "digests" { print $2 }' "$log")
  want=$(awk -F'\t' -v w="$workload" \
    '$1 == "perfbench" && $2 == w { print $3 }' ci/pinned_digests.tsv)
  if [[ -z "$got" || "$got" != "$want" ]]; then
    echo "FAIL: debug perfbench $workload digests '$got' != pinned '$want'" >&2
    fail=1
  else
    echo "debug oracles: perfbench $workload digests match the pin"
  fi
done

echo "elapsed seconds per bench (also in $elapsed):"
cat "$elapsed"

exit $fail
