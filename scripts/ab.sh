#!/usr/bin/env bash
# A/B of the benchmark between a parent revision and the working tree.
#
#   scripts/ab.sh PARENT RUNS SECONDS TRACE WORKLOAD...   (or: make ab PARENT=<rev>)
#
# The parent is exported with `git archive` into .ab/parent; each side runs
# its own benchmark/run.sh (which builds it from that side's source), RUNS
# pairs per workload, alternating which side goes first. Each run's output
# lands in .ab/runs/<workload>.<side>.<i>.log. The summary prints, per
# workload and per metric of the runs' last JSON line and of the text
# report's diag.* lines (the measured window's throughput, latencies and CPU
# per op, which an untraced run's JSON line leaves out), each side's median
# [Q1–Q3], the pairs in which the change was better (BENCHMARK.json's
# "better" direction; "lower" when a metric is not listed there) and
# "unresolved" when the medians differ by less than the parent's IQR.
set -euo pipefail
if [ $# -lt 5 ]; then
	echo "usage: $0 PARENT RUNS SECONDS TRACE WORKLOAD..." >&2
	exit 2
fi
parent=$1 runs=$2 seconds=$3 trace=$4
shift 4
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
ab="$root/.ab"
# Keep the parent's .bench_build (its own Go build cache) across calls.
mkdir -p "$ab/parent"
find "$ab/parent" -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
rm -rf "$ab/runs"
mkdir -p "$ab/runs"
git -C "$root" archive "$parent" | tar -x -C "$ab/parent"

run() { # side dir workload index
	local log="$ab/runs/$3.$1.$4.log"
	echo "== $3 $1 run $4" >&2
	if ! bash "$2/benchmark/run.sh" --workload "$3" --seed 1 --seconds "$seconds" --trace "$trace" >"$log" 2>&1; then
		echo "   exit status non-zero: see $log" >&2
	fi
}
for i in $(seq "$runs"); do
	for w in "$@"; do
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$ab/parent" "$w" "$i"
			run change "$root" "$w" "$i"
		else
			run change "$root" "$w" "$i"
			run parent "$ab/parent" "$w" "$i"
		fi
	done
done

for w in "$@"; do
	for side in parent change; do
		for i in $(seq "$runs"); do
			log="$ab/runs/$w.$side.$i.log"
			line=$(grep '^{' "$log" | tail -n 1 || true)
			# "  diag.name  value unit" becomes "diag.name":{"value":value,
			# the shape the summary reads out of the JSON line.
			diag=$(awk '$1 ~ /^diag\./ && NF == 3 { printf " \"%s\":{\"value\":%s}", $1, $2 }' "$log")
			echo "$w $side $i ${line:-{\}}$diag"
		done
	done
done | awk -v runs="$runs" '
	# BENCHMARK.json is pretty-printed: a metric'"'"'s "better" follows its "name".
	FNR == NR {
		if (match($0, /"name": *"[^"]+"/)) { name = substr($0, RSTART, RLENGTH); sub(/^"name": *"/, "", name); sub(/"$/, "", name) }
		if (match($0, /"better": *"[a-z]+"/)) { b = substr($0, RSTART, RLENGTH); sub(/^"better": *"/, "", b); sub(/"$/, "", b); better[name] = b }
		next
	}
	{
		w = $1; side = $2; i = $3; rest = $0
		if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
		if (match(rest, /"failed":[0-9]+/)) failed[w, side] += substr(rest, RSTART + 9, RLENGTH - 9)
		if (rest !~ /"correct":true/) bad[w, side]++
		while (match(rest, /"[A-Za-z0-9_.]+":\{"value":[-+0-9.eE]+/)) {
			seg = substr(rest, RSTART, RLENGTH)
			rest = substr(rest, RSTART + RLENGTH)
			m = seg; sub(/^"/, "", m); sub(/".*/, "", m)
			v = seg; sub(/.*"value":/, "", v)
			val[w, side, m, i] = v + 0
			if (!((w, m) in has)) { has[w, m] = 1; metrics[w] = metrics[w] " " m }
		}
	}
	function q(w, side, m, p,    a, k, j, t, c, h, lo) {
		c = 0
		for (k = 1; k <= runs; k++) if ((w, side, m, k) in val) a[++c] = val[w, side, m, k]
		if (c == 0) return "nan"
		for (k = 2; k <= c; k++) { t = a[k]; for (j = k - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
		h = (c - 1) * p + 1; lo = int(h)
		return lo >= c ? a[c] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
	}
	END {
		for (x = 1; x <= nw; x++) {
			w = order[x]
			printf "== %s: failed ops parent %d change %d; runs without a correct oracle parent %d change %d\n", w, failed[w, "parent"], failed[w, "change"], bad[w, "parent"], bad[w, "change"]
			printf "%-32s %-30s %-30s %-6s %s\n", "metric", "parent median [Q1-Q3]", "change median [Q1-Q3]", "won", ""
			k = split(metrics[w], ms, " ")
			for (y = 1; y <= k; y++) {
				m = ms[y]; dir = (m in better) ? better[m] : "lower"
				pm = q(w, "parent", m, .5); p1 = q(w, "parent", m, .25); p3 = q(w, "parent", m, .75)
				cm = q(w, "change", m, .5); c1 = q(w, "change", m, .25); c3 = q(w, "change", m, .75)
				won = 0; pairs = 0
				for (i = 1; i <= runs; i++) {
					if (!((w, "parent", m, i) in val) || !((w, "change", m, i) in val)) continue
					pairs++; a = val[w, "parent", m, i]; b = val[w, "change", m, i]
					if ((dir == "lower" && b < a) || (dir == "higher" && b > a)) won++
				}
				d = cm - pm; if (d < 0) d = -d
				printf "%-32s %-30s %-30s %-6s %s\n", m, sprintf("%.5g [%.5g-%.5g]", pm, p1, p3), sprintf("%.5g [%.5g-%.5g]", cm, c1, c3), won "/" pairs, (d < p3 - p1 ? "unresolved" : "")
			}
		}
	}
' "$root/BENCHMARK.json" -
