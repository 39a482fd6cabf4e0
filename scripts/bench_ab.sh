#!/usr/bin/env bash
#
# A/B rows for BENCH_e2e.json: alternating perfbench runs of a parent
# commit and HEAD on one workload, summarized by a script, not by hand.
#
#   scripts/bench_ab.sh <parent-rev> <workload> [pairs, default 10]
#
# Both commits are exported with `git archive` into one temporary
# directory (removed on exit), so no worktree state is left behind, and
# each is built there by perfbench/run.py during an untimed smoke run.
# Pair i runs `python3 perfbench/run.py --workload <workload> --seed i
# --seconds 15 --trace 0` on both sides; the parent goes first in odd
# pairs and HEAD in even ones, so host drift hits both sides alike.
#
# For each end-to-end metric in HEAD's BENCHMARK.json it prints each
# side's median and quartiles (type 7) and how many pairs HEAD won (ties
# count for neither side), then appends the same summary, the raw
# per-pair values, the commit pair and each side's perfbench
# fingerprint line as one JSON row to BENCH_e2e.json. A run that fails
# or reports incorrect output stops the script before anything is
# written.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 3 ]]; then
    sed -n '5p' "$0" | sed 's/^# *//' >&2
    exit 2
fi
PARENT=$(git rev-parse --verify "$1^{commit}")
CHANGE=$(git rev-parse --verify HEAD)
WORKLOAD=$2
PAIRS=${3:-10}
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || {
    echo "bench_ab.sh: pairs must be a positive integer" >&2; exit 2; }

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
for side in parent change; do
    rev=$PARENT
    [[ $side == change ]] && rev=$CHANGE
    mkdir "$WORK/$side"
    git archive "$rev" | tar -x -C "$WORK/$side"
    echo "bench_ab.sh: building $side ($rev)" >&2
    python3 "$WORK/$side/perfbench/run.py" --workload "$WORKLOAD" \
        --size smoke --seconds 1 > "$WORK/$side.build.log" 2>&1 || {
        cat "$WORK/$side.build.log" >&2; exit 1; }
done

run() { # <side> <seed>
    local out="$WORK/$1.$2.out"
    echo "bench_ab.sh: $WORKLOAD seed $2 on $1" >&2
    python3 "$WORK/$1/perfbench/run.py" --workload "$WORKLOAD" \
        --seed "$2" --seconds 15 --trace 0 > "$out" 2> "$out.err" || {
        cat "$out" "$out.err" >&2; exit 1; }
}
for ((i = 1; i <= PAIRS; i++)); do
    if ((i % 2)); then
        run parent "$i"; run change "$i"
    else
        run change "$i"; run parent "$i"
    fi
done

python3 - "$WORK" "$WORKLOAD" "$PAIRS" "$PARENT" "$CHANGE" <<'EOF'
import json
import statistics
import sys

work, workload, pairs, parent, change = sys.argv[1:]
pairs = int(pairs)
seeds = list(range(1, pairs + 1))


def load(side, seed):
    fingerprint, result = None, None
    with open(f"{work}/{side}.{seed}.out") as f:
        for line in f:
            if line.startswith("fingerprint "):
                fingerprint = json.loads(line[len("fingerprint "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if result is None or not result["correct"]:
        sys.exit(f"bench_ab.sh: {side} seed {seed} gave no correct result")
    return fingerprint, result


runs = {side: [load(side, s) for s in seeds] for side in ("parent", "change")}


def spread(values):
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


with open("BENCHMARK.json") as f:
    end_to_end = json.load(f)["end_to_end"]
metrics = {}
print(f"{workload}: {pairs} pairs, parent {parent[:12]} vs change {change[:12]}")
print(f"{'metric':<16} {'parent median [q1, q3]':>30} "
      f"{'change median [q1, q3]':>30}  wins")
for m in end_to_end:
    name, better = m["name"], m["better"]
    values = {side: [r["metrics"][name]["value"] for _, r in runs[side]]
              for side in runs}
    wins = sum((c < p) if better == "lower" else (c > p)
               for p, c in zip(values["parent"], values["change"]))
    row = {"unit": m["unit"], "better": better}
    for side in ("parent", "change"):
        row[side] = spread(values[side])
    row["change_wins"] = wins
    row["values"] = values
    metrics[name] = row
    cells = [f"{row[s]['median']:.4g} [{row[s]['q1']:.4g}, {row[s]['q3']:.4g}]"
             for s in ("parent", "change")]
    print(f"{name:<16} {cells[0]:>30} {cells[1]:>30}  {wins}/{pairs}")

row = {
    "workload": workload,
    "parent": parent,
    "change": change,
    "pairs": pairs,
    "seeds": seeds,
    "command": f"python3 perfbench/run.py --workload {workload} --seed <i> "
               "--seconds 15 --trace 0",
    "fingerprint": {side: runs[side][0][0] for side in runs},
    "metrics": metrics,
}
try:
    with open("BENCH_e2e.json") as f:
        rows = json.load(f)
except FileNotFoundError:
    rows = []
rows.append(row)
with open("BENCH_e2e.json", "w") as f:
    f.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
print(f"appended a {workload} row to BENCH_e2e.json ({len(rows)} rows)")
EOF
