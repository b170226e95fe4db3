#!/usr/bin/env bash
# Scenario behavior gate: digest pinning + bench-regression smoke.
#
# Usage: ci/scenario_gate.sh [waterfill|simplex|all]
#   (default: all; also settable via GATE_SOLVER)
#
# The gate is a per-solver matrix: each lane runs scenario_slo_mix,
# scenario_elastic_churn, scenario_closed_loop, scenario_prefix_reuse,
# scenario_helix_race, and the fig8/fig9/fig10 quick sweeps under ONE
# HETIS_DISPATCH_SOLVER mode and diffs that solver's digest rows against
# ci/pinned_digests.tsv. CI runs the two lanes as parallel jobs sharing
# one bench-build artifact; `all` runs both lanes sequentially for local
# use. The gate fails when
#   1. any per-system behavior digest drifts from ci/pinned_digests.tsv
#      (re-pin in the same PR via ci/repin.sh --reason "<why>" when an
#      engine change legitimately moves behavior), or
#   2. (waterfill lane) any sim-throughput row falls below the generous
#      floors of ci/sim_throughput_floors.tsv — gross perf regressions
#      fail the build instead of only being visible in BENCH files.
#
# The waterfill lane additionally pins the repo benchmark's own
# per-episode digests (perfbench at --seed 1, one behavior-digest row per
# workload in $outdir/perfbench.waterfill.out, which ci/repin.sh harvests
# like any bench output), runs the telemetry-enabled live_telemetry
# example smoke and runs the history_scaling guard.
#
# Every bench run's wall-clock seconds land in $outdir/elapsed.tsv
# (bench <TAB> solver-or-tag <TAB> seconds) so lane balance is visible
# from the gate artifacts alone.
#
# The scenario binaries also carry their own asserts (determinism,
# SLO/goodput/peak-KV/TPOT/cost comparisons), so a plain run already
# gates on those; this script adds the cross-run pins.
set -euo pipefail
cd "$(dirname "$0")/.."

lane="${1:-${GATE_SOLVER:-all}}"
case "$lane" in
  waterfill) solvers=(waterfill) ;;
  simplex) solvers=(simplex) ;;
  all) solvers=(waterfill simplex) ;;
  *) echo "usage: $0 [waterfill|simplex|all]" >&2; exit 2 ;;
esac

outdir="${SCENARIO_GATE_OUT:-target/scenario-gate}"
mkdir -p "$outdir"
elapsed="$outdir/elapsed.tsv"
: > "$elapsed"

benches=(scenario_slo_mix scenario_elastic_churn scenario_closed_loop
         scenario_prefix_reuse scenario_helix_race
         fig8_e2e_llama13b fig9_e2e_opt30b fig10_e2e_llama70b)

# Runs a command with stdout to <outfile> and records its elapsed seconds.
#   timed <name> <tag-for-elapsed> <outfile> <command...>
timed() {
  local name="$1" tag="$2" outfile="$3"
  shift 3
  local t0 t1
  t0=$(date +%s.%N)
  "$@" > "$outfile"
  t1=$(date +%s.%N)
  awk -v b="$name" -v s="$tag" -v a="$t0" -v z="$t1" \
    'BEGIN { printf "%s\t%s\t%.2f\n", b, s, z - a }' >> "$elapsed"
}

for solver in "${solvers[@]}"; do
  for bench in "${benches[@]}"; do
    echo "== $bench (HETIS_DISPATCH_SOLVER=$solver)"
    timed "$bench" "$solver" "$outdir/$bench.$solver.out" \
      env HETIS_DISPATCH_SOLVER="$solver" cargo bench --bench "$bench"
  done
done

waterfill_lane=0
[[ " ${solvers[*]} " == *" waterfill "* ]] && waterfill_lane=1

# ---- perfbench digests (waterfill lane) -----------------------------------
# perfbench pins its Hetis runs to the water-fill solver, so its rows live
# in the waterfill lane only. It is a workspace of its own with a frozen
# Cargo.lock that cargo rewrites when a crate's dependency list changed;
# the lock is restored on exit so the gate leaves the benchmark untouched.
if [[ $waterfill_lane -eq 1 ]]; then
  cp perfbench/Cargo.lock "$outdir/perfbench.Cargo.lock"
  trap 'cp "$outdir/perfbench.Cargo.lock" perfbench/Cargo.lock' EXIT
  : > "$outdir/perfbench.waterfill.out"
  for workload in he150_hetis he150_hexgen chat_storm; do
    echo "== perfbench --workload $workload"
    timed "perfbench-$workload" waterfill "$outdir/perfbench.$workload.out" \
      cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 1 --trace 0
    awk -F'\t' -v w="$workload" \
      '$1 == "digests" { print "perfbench\tbehavior-digest\t" w "\t" $2 }' \
      "$outdir/perfbench.$workload.out" >> "$outdir/perfbench.waterfill.out"
  done
fi

fail=0

# ---- 1. digest pinning ----------------------------------------------------
# The scenario benches run with telemetry DISABLED, so this diff doubles
# as the telemetry-neutrality gate: scenario_slo_mix additionally runs
# chunked+priority with the streaming bus attached and asserts (in-bench)
# that its digest equals the telemetry-off one — any tap that perturbs
# the simulation therefore fails both the bench's own assert and, if it
# leaks into the disabled path, these pins, in both solver modes.
# scenario_closed_loop extends the same contract to the control loop: its
# chunked-alternating and open-loop pins REUSE the slo_mix chunked+priority
# and fused+priority digests (elastic wrapper + attached bus + closed_loop
# off must be bit-neutral), and its closed-loop pin freezes the actuation
# sequence itself. The fig8 pins fold every quick-sweep cell digest per
# system, so the whole end-to-end grid is covered by three rows per solver.
# scenario_helix_race pins cover both racers AND the cost-accounting
# overlay: the hetis+ondemand / hetis+spot rows differ from hetis+elastic
# only by the attached CostReport, so they freeze the billing replay and
# the acquisition decisions themselves.
actual="$outdir/digests.tsv"
: > "$actual"
for solver in "${solvers[@]}"; do
  outs=()
  for bench in "${benches[@]}"; do
    outs+=("$outdir/$bench.$solver.out")
  done
  [[ $solver == waterfill ]] && outs+=("$outdir/perfbench.waterfill.out")
  grep -h "behavior-digest" "${outs[@]}" \
    | awk -v s="$solver" -F'\t' '{ print s "\t" $1 "\t" $3 "\t" $4 }' \
    >> "$actual"
done
pinned="$outdir/pinned.tsv"
: > "$pinned"
for solver in "${solvers[@]}"; do
  grep -v '^#' ci/pinned_digests.tsv | awk -F'\t' -v s="$solver" '$1 == s' \
    >> "$pinned"
done
sort -o "$pinned" "$pinned"
sort "$actual" > "$actual.sorted"
if ! diff -u "$pinned" "$actual.sorted"; then
  echo "FAIL: behavior digests drifted from ci/pinned_digests.tsv" >&2
  echo "      (re-pin in this PR with ci/repin.sh --reason \"...\" if intended)" >&2
  fail=1
else
  echo "digest gate [${solvers[*]}]: all $(wc -l < "$pinned") pins match"
fi

# ---- 2. sim-throughput floors (waterfill lane) ----------------------------
if [[ $waterfill_lane -eq 1 ]]; then
  while IFS=$'\t' read -r scenario system floor; do
    [[ "$scenario" == \#* || -z "$scenario" ]] && continue
    case "$scenario" in
      slo_mix) out="$outdir/scenario_slo_mix.waterfill.out" ;;
      elastic_storm) out="$outdir/scenario_elastic_churn.waterfill.out" ;;
      closed_loop) out="$outdir/scenario_closed_loop.waterfill.out" ;;
      prefix_reuse) out="$outdir/scenario_prefix_reuse.waterfill.out" ;;
      helix_race) out="$outdir/scenario_helix_race.waterfill.out" ;;
      fig8) out="$outdir/fig8_e2e_llama13b.waterfill.out" ;;
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
fi

# ---- 3. telemetry-enabled smoke (waterfill lane) --------------------------
# Runs the live_telemetry example (step-driven engine, 1 s queue/KV tick,
# JSONL flow log) and checks its self-validation markers: a non-empty
# final snapshot and one parseable flow record per completion.
if [[ $waterfill_lane -eq 1 ]]; then
  echo "== live_telemetry smoke"
  smoke="$outdir/live_telemetry.out"
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
fi

# ---- 4. history-scaling guard (waterfill lane) ----------------------------
# Serves one Hetis workload at about 3k, 24k and 3k requests in one
# process; the bench exits non-zero when the long run's wall time per
# request exceeds 1.5x the short runs' mean, i.e. when a per-event path
# pays for the requests already served.
if [[ $waterfill_lane -eq 1 ]]; then
  echo "== history_scaling"
  if cargo bench --bench history_scaling > "$outdir/history_scaling.out"; then
    grep '^history-scaling' "$outdir/history_scaling.out"
  else
    echo "FAIL: history_scaling: wall time per request grew with history" >&2
    cat "$outdir/history_scaling.out" >&2
    fail=1
  fi
fi

echo "elapsed seconds per bench (also in $elapsed):"
cat "$elapsed"

exit $fail
