#!/usr/bin/env bash
# Paired benchmark runs of a base revision against the working tree, by
# the rule of the choosing-metrics guide, section 8: per workload N
# pairs, alternating which side runs first, each side's median and
# quartiles per end-to-end metric, the pairs the change wins, and each
# side's failed operations as a share of those attempted. A gain
# is flagged only when the change wins at least nine tenths of all pairs
# (ties count for neither side) and the medians differ by more than the
# distance between the base's own quartiles.
#
#	tools/benchpair.sh BASE WORKLOADS [N] [SECONDS]
#	make bench-pair BASE=<rev> W=<workload>[,<workload>...] N=10
#	make bench-pair BASE=<rev> W=all N=10
#
# WORKLOADS is one workload, a comma-separated list, or `all` for every
# workload BENCHMARK.json declares — what a change that claims "no
# metric worse on any workload" has to show; one table is printed per
# workload. BASE is exported once with `git archive` into a temporary
# directory (under $TMPDIR), so nothing is registered in .git and an
# interrupted run leaves nothing to prune; both sides are built and run
# by their own benchmark/run.sh, each into its own benchmark/.build,
# which the later runs and workloads reuse. SECONDS overrides
# the run length on both sides alike and is for trying the script out:
# a comparison that counts uses the benchmark's own.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: tools/benchpair.sh BASE WORKLOAD[,WORKLOAD...]|all [N] [SECONDS]" >&2
	exit 2
fi
base=$1 workloads=$2 n=${3:-10} seconds=${4:-}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
rev=$(git -C "$root" rev-parse --verify --quiet "$base^{commit}") || {
	echo "benchpair: $base is not a revision of this repository" >&2
	exit 2
}
declared=$(awk '
	/"workloads":/  { on = 1 }
	/"end_to_end":/ { on = 0 }
	on && /"name":/ { gsub(/[",]/, ""); print $2 }
' "$root/BENCHMARK.json" | paste -sd, -)
if [ "$workloads" = all ]; then
	workloads=$declared
fi
for workload in ${workloads//,/ }; do
	case ",$declared," in
	*",$workload,"*) ;;
	*)
		echo "benchpair: BENCHMARK.json declares no workload $workload (it has $declared)" >&2
		exit 2
		;;
	esac
done

tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# run SIDE DIR I: one run of $workload on the checkout at DIR, its
# printed metrics appended to $tmp/rows as "SIDE I NAME VALUE".
run() {
	local side=$1 dir=$2 i=$3
	local args=(--workload "$workload" --trace 0)
	if [ -n "$seconds" ]; then
		args+=(--seconds "$seconds")
	fi
	if ! bash "$dir/benchmark/run.sh" "${args[@]}" --out "$tmp/out-$side" >"$tmp/run.txt" 2>"$tmp/run.err"; then
		cat "$tmp/run.txt" "$tmp/run.err" >&2
		echo "benchpair: $side run $i of $workload failed" >&2
		exit 1
	fi
	awk -v side="$side" -v i="$i" '
		/^== / {
			for (f = 1; f <= NF; f++) {
				if ($f ~ /^attempted/) print side, i, "attempted", $(f-1)
				if ($f ~ /^failed/) print side, i, "failed", $(f-1)
			}
		}
		/^[a-z_0-9]+ +-?[0-9.]+ [A-Za-z_\/]+$/ { print side, i, $1, $2 }
	' "$tmp/run.txt" >>"$tmp/rows"
}

# The end-to-end metrics, their better direction and bound, from the
# working tree's BENCHMARK.json (one "name"/"better"/"bound" per entry).
awk '
	/"name":/   { gsub(/[",]/, ""); name = $2 }
	/"better":/ { gsub(/[",]/, ""); better = $2 }
	/"bound":/  { gsub(/[",]/, ""); print name, better, $2 }
' "$root/BENCHMARK.json" >"$tmp/spec"

for workload in ${workloads//,/ }; do
	echo "benchpair: base $base (${rev:0:12}) vs working tree, workload $workload, $n pairs" >&2
	: >"$tmp/rows"
	for i in $(seq 1 "$n"); do
		if [ $((i % 2)) -eq 1 ]; then
			run base "$tmp/base" "$i"
			run change "$root" "$i"
		else
			run change "$root" "$i"
			run base "$tmp/base" "$i"
		fi
		echo "benchpair: $workload pair $i/$n done" >&2
	done

	echo "== $workload: base ${rev:0:12} vs working tree, $n pairs"
	awk -v n="$n" '
		function sorted(src, cnt, dst,    i, j, v) {
			for (i = 1; i <= cnt; i++) {
				v = src[i]
				for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
				dst[j + 1] = v
			}
		}
		function quantile(a, cnt, q,    pos, lo) {
			pos = (cnt - 1) * q + 1
			lo = int(pos)
			if (lo >= cnt) return a[cnt]
			return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
		}
		FNR == NR { order[++metrics] = $1; better[$1] = $2; bound[$1] = $3; next }
		{ val[$1, $3, $2] = $4 }
		END {
			printf "%-20s %12s %12s %12s   %12s %12s %12s   %5s  %s\n",
				"metric", "base q1", "median", "q3", "change q1", "median", "q3", "wins", "verdict"
			for (m = 1; m <= metrics; m++) {
				name = order[m]
				wins = 0
				for (i = 1; i <= n; i++) {
					b[i] = val["base", name, i]; c[i] = val["change", name, i]
					d = c[i] - b[i]
					if (better[name] == "higher") d = -d
					if (d < 0) wins++
				}
				sorted(b, n, bs); sorted(c, n, cs)
				bq1 = quantile(bs, n, 0.25); bmed = quantile(bs, n, 0.5); bq3 = quantile(bs, n, 0.75)
				cq1 = quantile(cs, n, 0.25); cmed = quantile(cs, n, 0.5); cq3 = quantile(cs, n, 0.75)
				gain = bmed - cmed
				if (better[name] == "higher") gain = -gain
				spread = bq3 - bq1
				size = bmed < 0 ? -bmed : bmed
				verdict = ""
				if (wins >= 0.9 * n && gain > spread) verdict = "gain"
				else if (size > 0 && -gain / size > bound[name])
					verdict = spread / size > bound[name] ? "unresolved: the base spreads wider than the bound" : "worse than the bound"
				printf "%-20s %12.4f %12.4f %12.4f   %12.4f %12.4f %12.4f   %2d/%-2d  %s\n",
					name, bq1, bmed, bq3, cq1, cmed, cq3, wins, n, verdict
			}
			for (i = 1; i <= n; i++) {
				fb += val["base", "failed", i]; fc += val["change", "failed", i]
				ab += val["base", "attempted", i]; ac += val["change", "attempted", i]
			}
			printf "failed operations: base %d of %d attempted (share %.3g), change %d of %d attempted (share %.3g)\n",
				fb, ab, (ab > 0 ? fb / ab : 0), fc, ac, (ac > 0 ? fc / ac : 0)
		}
	' "$tmp/spec" "$tmp/rows"
done
