#!/usr/bin/env bash
# Alternating perfbench pairs between two revisions.
#
# Usage: ci/perfbench_pairs.sh <parent-rev> <change-rev> [pairs]
#
# Exports each revision's tree with `git archive` into
# target/perfbench-pairs/<sha>/tree and builds its perfbench in release
# mode with its own target directory, target/perfbench-pairs/<sha>/build.
# Then, for every workload in BENCHMARK.json and every seed 1..pairs
# (default 10), it runs both binaries once at the file's run_seconds with
# --trace 0, one at a time: odd seeds run the parent first, even seeds
# the change first. Each run's output lands in
# target/perfbench-pairs/runs/<workload>.<seed>.<parent|change>.out.
#
# The summary prints, per workload and end-to-end metric, both sides'
# medians and quartiles (statistics.quantiles, n=4), the pairs the change
# wins and ties, the parent's IQR, whether the medians differ by more
# than that IQR, and the bound check: the change's median may be worse
# than the parent's by at most the metric's bound. It then says, per
# seed, whether both sides printed the same episode digests and the same
# ttft_p50_s, tpot_p50_s, goodput_tok_s and slo_attainment, and how many
# requests failed. The summary, with the run length and pair count, is
# also written as JSON to target/perfbench-pairs/summary.json.
#
# A pairs count of 1 makes a quick check. Nothing is written under the
# main tree's perfbench/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 <parent-rev> <change-rev> [pairs]" >&2
  exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
pairs="${3:-10}"
root="target/perfbench-pairs"
runs="$root/runs"
mkdir -p "$runs"

readarray -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
seconds=$(python3 -c '
import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

# Exports and builds one revision; prints the path of its binary.
build() {
  local rev="$1" dir="$root/$1"
  if [[ ! -d $dir/tree ]]; then
    mkdir -p "$dir/tree.partial"
    git archive "$rev" | tar -x -C "$dir/tree.partial"
    mv "$dir/tree.partial" "$dir/tree"
  fi
  cargo build --release --offline -q \
    --manifest-path "$dir/tree/perfbench/Cargo.toml" \
    --target-dir "$dir/build" >&2
  echo "$dir/build/release/perfbench"
}

echo "building parent $parent" >&2
parent_bin=$(build "$parent")
echo "building change $change" >&2
change_bin=$(build "$change")

for workload in "${workloads[@]}"; do
  for seed in $(seq 1 "$pairs"); do
    if (( seed % 2 )); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      bin=$parent_bin
      [[ $side == change ]] && bin=$change_bin
      out="$runs/$workload.$seed.$side.out"
      "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0 > "$out" || echo "$workload seed $seed $side exited $?" >&2
    done
    echo "$workload seed $seed done" >&2
  done
done

python3 - "$runs" "$pairs" "$seconds" "$root/summary.json" "$parent" "$change" <<'EOF'
import json
import statistics
import sys

runs, pairs, seconds, out_path, parent, change = sys.argv[1:]
pairs, seconds = int(pairs), float(seconds)
spec = json.load(open("BENCHMARK.json"))
serving = ["ttft_p50_s", "tpot_p50_s", "goodput_tok_s", "slo_attainment"]


def load(workload, seed, side):
    digests, result = None, None
    for line in open(f"{runs}/{workload}.{seed}.{side}.out"):
        if line.startswith("digests\t"):
            digests = line.split("\t", 1)[1].split()
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        sys.exit(f"{workload} seed {seed} {side}: no result line")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return {"digests": digests, "failed": result["failed"], "correct": result["correct"],
            "metrics": values}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


summary = {"parent": parent, "change": change, "pairs": pairs, "run_seconds": seconds,
           "workloads": {}}
for workload in (w["name"] for w in spec["workloads"]):
    seeds = range(1, pairs + 1)
    got = {s: {side: load(workload, s, side) for side in ("parent", "change")} for s in seeds}
    print(f"\n{workload}: {pairs} pairs of {seconds:g} s runs")
    print(f"{'metric':17} {'parent median':>14} {'q1':>11} {'q3':>11} {'change median':>14} "
          f"{'q1':>11} {'q3':>11} {'chg/par':>8} {'wins':>5} {'ties':>5} {'>IQR':>5}  bound")
    metrics = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [got[s]["parent"]["metrics"][name] for s in seeds]
        c = [got[s]["change"]["metrics"][name] for s in seeds]
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        iqr = pq3 - pq1
        worse = ((cmed - pmed) if lower else (pmed - cmed)) / pmed if pmed else 0.0
        bound_ok = worse <= m["bound"]
        apart = abs(cmed - pmed) > iqr
        ratio = cmed / pmed if pmed else float("nan")
        print(f"{name:17} {pmed:14.6g} {pq1:11.6g} {pq3:11.6g} {cmed:14.6g} {cq1:11.6g} "
              f"{cq3:11.6g} {ratio:8.4f} {wins:5} {ties:5} {'yes' if apart else 'no':>5}  "
              f"{'ok' if bound_ok else 'WORSE'} (worse by {worse:+.4f}, bound {m['bound']})")
        metrics[name] = {
            "parent": {"median": pmed, "q1": pq1, "q3": pq3, "runs": p},
            "change": {"median": cmed, "q1": cq1, "q3": cq3, "runs": c},
            "change_over_parent_median": ratio, "change_wins": wins, "ties": ties,
            "parent_iqr": iqr, "medians_apart_by_more_than_parent_iqr": apart,
            "bound": m["bound"], "worse_by": worse, "bound_ok": bound_ok,
        }
    per_seed = {}
    for s in seeds:
        a, b = got[s]["parent"], got[s]["change"]
        same_digests = a["digests"] == b["digests"]
        same_serving = all(a["metrics"][k] == b["metrics"][k] for k in serving)
        failed = a["failed"] + b["failed"]
        per_seed[s] = {"digests_match": same_digests, "serving_metrics_match": same_serving,
                       "failed": failed, "correct": a["correct"] and b["correct"]}
        print(f"seed {s:2}: digests {'match' if same_digests else 'DIFFER'}, serving metrics "
              f"{'match' if same_serving else 'DIFFER'}, failed {failed}, "
              f"correct {a['correct'] and b['correct']}")
    summary["workloads"][workload] = {"metrics": metrics, "seeds": per_seed}
with open(out_path, "w") as f:
    json.dump(summary, f, indent=1)
print(f"\nsummary written to {out_path}")
EOF
