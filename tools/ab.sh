#!/usr/bin/env bash
# A/B the two-clock benchmark (perfbench) between two sides, each side
# built in one or more checkout directories.
#
#   tools/ab.sh --parent DIR[,DIR...] --change DIR[,DIR...] \
#       --workload NAME --seed N --pairs N --seconds N
#
# Every directory's perfbench is built into that directory's own target
# directory. The pairs alternate which side runs first (parent first in
# even pairs, change first in odd ones) and cycle through each side's
# directories, so neither machine drift nor one build's function layout
# decides the verdict. Per side it prints the median and quartiles of
# scaled host_s, the medians of the raw run and probe times parsed from
# stderr, setup_s and peak_rss_mib; then the pairs the change wins on
# host_s. Every run must report verified buffers and no failed operation.
set -euo pipefail

parent='' change='' workload='' seed='' pairs='' seconds=''
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent=$2 ;;
        --change) change=$2 ;;
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
    shift 2
done
if [ -z "$parent" ] || [ -z "$change" ] || [ -z "$workload" ] || [ -z "$seed" ] \
    || [ -z "$pairs" ] || [ -z "$seconds" ]; then
    sed -n '2,15p' "$0" >&2
    exit 2
fi
IFS=, read -r -a pdirs <<< "$parent"
IFS=, read -r -a cdirs <<< "$change"

for d in "${pdirs[@]}" "${cdirs[@]}"; do
    echo "building $d" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$d/perfbench/Cargo.toml" --target-dir "$d/perfbench/target"
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run SIDE PAIR DIR: one benchmark run, its stdout and stderr kept by name.
run() {
    "$3/perfbench/target/release/perfbench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 > "$out/$1.$2.json" 2> "$out/$1.$2.err"
}

for ((i = 0; i < pairs; i++)); do
    p=${pdirs[i % ${#pdirs[@]}]}
    c=${cdirs[i % ${#cdirs[@]}]}
    if ((i % 2 == 0)); then
        run parent "$i" "$p"; run change "$i" "$c"
    else
        run change "$i" "$c"; run parent "$i" "$p"
    fi
    echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$out" "$pairs" <<'EOF'
import json, re, statistics, sys

out, pairs = sys.argv[1], int(sys.argv[2])

def quartiles(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[0], statistics.median(xs), q[2]

def load(side, i):
    r = json.loads(open(f"{out}/{side}.{i}.json").read().strip().splitlines()[-1])
    if r["correct"] is not True or r["failed"] != 0:
        sys.exit(f"{side} pair {i}: correct={r['correct']} failed={r['failed']}")
    m = {k: v["value"] for k, v in r["metrics"].items()}
    eps = re.findall(r"run ([0-9.]+) s, probe ([0-9.]+) s", open(f"{out}/{side}.{i}.err").read())
    m["run"] = statistics.median(float(a) for a, _ in eps)
    m["probe"] = statistics.median(float(b) for _, b in eps)
    return m

runs = {s: [load(s, i) for i in range(pairs)] for s in ("parent", "change")}
for side, rs in runs.items():
    q1, med, q3 = quartiles([r["host_s"] for r in rs])
    col = lambda k: statistics.median(r[k] for r in rs)
    print(f"{side:6}  host_s median {med:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, iqr {q3 - q1:.4f})"
          f"  raw run {col('run'):.4f} s  probe {col('probe'):.5f} s"
          f"  setup_s {col('setup_s'):.5f} s  peak_rss {col('peak_rss_mib'):.2f} MiB")
p = statistics.median(r["host_s"] for r in runs["parent"])
c = statistics.median(r["host_s"] for r in runs["change"])
wins = sum(c_["host_s"] < p_["host_s"] for p_, c_ in zip(runs["parent"], runs["change"]))
print(f"host_s change {100 * (c - p) / p:+.1f} %, change wins {wins}/{pairs} pairs")
EOF
