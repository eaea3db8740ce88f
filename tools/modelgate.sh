#!/usr/bin/env bash
# Model-clock gate (ROADMAP item 5a, first gate): one short run of the
# repository benchmark's failover workload, judged on what repeats exactly
# run to run — the report must be correct, no operation may fail, and
# recovery_model_us (the recovery cycle's dependent rounds and bytes on
# the model clock) must equal the value checked in beside this script,
# tools/modelgate.expect. The same run's steal_model_us (the survivor's
# transfer that steals a dead coordinator's locks, on the model clock)
# must stay below the ceiling checked in as tools/modelgate.steal_max.
# The reading falls as the run grows, and a short run leaves it close to
# the ceiling: on a 2-core host, five runs each read 10.75–10.89 µs at
# 3 s (10.8–11.2 µs on slower hosts), 10.43–10.52 µs at 6 s and
# 10.31–10.36 µs at 10 s, when the steals share the transaction's lock
# round. The gate runs 6 s, the shortest length whose worst reading is
# at least 1 µs under the ceiling; a hinted steal that pays a round of
# its own reads 14.5 µs there. The run's heap_mb (heap in use after the
# cluster is built and loaded, mostly its table regions) must stay below
# tools/modelgate.heap_max, 56 MB: partitions sized at a 40 % load factor
# read about 50.6 MB, the 3×-rounded-to-a-power-of-two sizing read 92.9.
# A change that moves any of the three numbers on purpose moves its file
# with it and says why.
#
#	tools/modelgate.sh
#	make model-gate
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
expect=$(tr -d '[:space:]' <"$root/tools/modelgate.expect")
steal_max=$(tr -d '[:space:]' <"$root/tools/modelgate.steal_max")
heap_max=$(tr -d '[:space:]' <"$root/tools/modelgate.heap_max")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/modelgate.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

if ! bash "$root/benchmark/run.sh" --workload failover --seed 1 --seconds 6 --trace 0 --out "$tmp/out" >"$tmp/run.txt" 2>"$tmp/run.err"; then
	cat "$tmp/run.txt" "$tmp/run.err" >&2
	echo "modelgate: the benchmark run failed" >&2
	exit 1
fi

# The last line of the run is its summary, one JSON object:
# {"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"u"},...}}
summary=$(tail -n 1 "$tmp/run.txt")
field() {
	printf '%s\n' "$summary" | sed -n "s/.*\"$1\":\({\"value\":\)\{0,1\}\([^,}]*\).*/\2/p"
}
correct=$(field correct) failed=$(field failed) model=$(field recovery_model_us) steal=$(field steal_model_us) heap=$(field heap_mb)
echo "modelgate: correct=$correct failed=$failed recovery_model_us=$model (expected $expect) steal_model_us=$steal (below $steal_max) heap_mb=$heap (below $heap_max)"
below() { awk -v v="$1" -v max="$2" 'BEGIN { exit !(v != "" && v + 0 < max + 0) }'; }
if [ "$correct" != true ] || [ "$failed" != 0 ] || [ "$model" != "$expect" ] ||
	! below "$steal" "$steal_max" || ! below "$heap" "$heap_max"; then
	echo "modelgate: FAIL" >&2
	exit 1
fi
