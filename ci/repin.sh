#!/usr/bin/env bash
# Regenerates ci/pinned_digests.tsv from the scenario gate's output.
#
# Usage: ci/repin.sh --reason "<one-line justification>" [gate-outdir]
#
# Reads every behavior-digest row the gate wrote to <gate-outdir>/*.out
# (one <bench>.out per bench plus perfbench.out; default
# target/scenario-gate — run ci/scenario_gate.sh first; a failing digest
# diff still writes the outputs), then rewrites ci/pinned_digests.tsv:
#
#   * rows whose (scenario, system) key was re-measured get the
#     fresh digest in place (file order preserved),
#   * never-pinned keys are appended as new rows (sorted),
#   * untouched rows and the comment block survive verbatim, and
#   * the justification is appended to the re-pin history as
#     "# - repin: <reason>".
#
# The --reason flag is MANDATORY: a digest move means the simulation's
# behavior changed, and the history comment is the only place that
# records why. The script refuses to run without it.
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s nullglob

reason=""
outdir="target/scenario-gate"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --reason)
      [[ $# -ge 2 ]] || { echo "error: --reason needs a value" >&2; exit 2; }
      reason="$2"
      shift 2
      ;;
    --reason=*)
      reason="${1#--reason=}"
      shift
      ;;
    -*)
      echo "usage: $0 --reason \"<justification>\" [gate-outdir]" >&2
      exit 2
      ;;
    *)
      outdir="$1"
      shift
      ;;
  esac
done
if [[ -z "$reason" ]]; then
  echo "error: refusing to re-pin without --reason \"<justification>\"" >&2
  echo "       (the re-pin history in ci/pinned_digests.tsv must record" >&2
  echo "        why the simulation's behavior legitimately moved)" >&2
  exit 2
fi

pins="ci/pinned_digests.tsv"
[[ -f "$pins" ]] || { echo "error: $pins not found" >&2; exit 1; }
[[ -d "$outdir" ]] || {
  echo "error: gate output dir '$outdir' not found (run ci/scenario_gate.sh)" >&2
  exit 1
}

# ---- harvest fresh digest rows from the gate output -----------------------
# Same extraction the gate itself uses: (scenario, system, digest) from
# each behavior-digest TSV row.
fresh="$outdir/repin.fresh.tsv"
: > "$fresh"
for f in "$outdir"/*.out; do
  grep -h "behavior-digest" "$f" \
    | awk -F'\t' '{ print $1 "\t" $3 "\t" $4 }' >> "$fresh" || true
done
sort -u -o "$fresh" "$fresh"
if [[ ! -s "$fresh" ]]; then
  echo "error: no behavior-digest rows found under $outdir" >&2
  exit 1
fi
# A key measured twice with different digests means a determinism break —
# never pin that.
if ! awk -F'\t' '{ k = $1 "\t" $2 }
    k in val && val[k] != $3 { print "conflict: " k; bad = 1 }
    { val[k] = $3 }
    END { exit bad }' "$fresh"; then
  echo "error: conflicting digests for the same key in the gate output" >&2
  exit 1
fi

# ---- merge into the pin file ----------------------------------------------
new="$outdir/repin.pinned.tsv"
awk -F'\t' -v OFS='\t' -v freshfile="$fresh" -v reason="$reason" '
  BEGIN {
    while ((getline line < freshfile) > 0) {
      split(line, a, "\t")
      fresh[a[1] "\t" a[2]] = a[3]
    }
  }
  /^#/ { print; next }
  !annotated { print "# - repin: " reason; annotated = 1 }
  {
    k = $1 "\t" $2
    existing[k] = 1
    if (k in fresh && $3 != fresh[k]) {
      print "updated: " k "  " $3 " -> " fresh[k] > "/dev/stderr"
      $3 = fresh[k]
    }
    print
  }
  END {
    if (!annotated) print "# - repin: " reason
    for (k in fresh) if (!(k in existing)) appended[++n] = k
    # Insertion-order-free sort so appended rows are deterministic.
    for (i = 1; i <= n; i++)
      for (j = i + 1; j <= n; j++)
        if (appended[j] < appended[i]) {
          t = appended[i]; appended[i] = appended[j]; appended[j] = t
        }
    for (i = 1; i <= n; i++) {
      print "appended: " appended[i] "  " fresh[appended[i]] > "/dev/stderr"
      print appended[i], fresh[appended[i]]
    }
  }
' "$pins" > "$new"

mv "$new" "$pins"
total=$(grep -vc '^#' "$pins")
echo "re-pinned $pins ($total rows) — reason recorded in the history comment"
