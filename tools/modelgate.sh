#!/usr/bin/env bash
# Model-clock gate (ROADMAP item 5a, first gate): one short run of the
# repository benchmark's failover workload, judged on what repeats exactly
# run to run — the report must be correct, no operation may fail, and
# recovery_model_us (the recovery cycle's dependent rounds and bytes on
# the model clock) must equal the value checked in beside this script,
# tools/modelgate.expect. The same run's steal_model_us (the survivor's
# transfer that steals a dead coordinator's locks, on the model clock)
# must stay below the ceiling checked in as tools/modelgate.steal_max:
# it reads ≈10.8–11.2 µs at this run length when the steals share the
# transaction's lock round and ≈12.8–13.0 µs when each pays a round of
# its own. A change that moves either number on purpose moves its file
# with it and says why.
#
#	tools/modelgate.sh
#	make model-gate
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
expect=$(tr -d '[:space:]' <"$root/tools/modelgate.expect")
steal_max=$(tr -d '[:space:]' <"$root/tools/modelgate.steal_max")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/modelgate.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

if ! bash "$root/benchmark/run.sh" --workload failover --seed 1 --seconds 3 --trace 0 --out "$tmp/out" >"$tmp/run.txt" 2>"$tmp/run.err"; then
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
correct=$(field correct) failed=$(field failed) model=$(field recovery_model_us) steal=$(field steal_model_us)
echo "modelgate: correct=$correct failed=$failed recovery_model_us=$model (expected $expect) steal_model_us=$steal (below $steal_max)"
if [ "$correct" != true ] || [ "$failed" != 0 ] || [ "$model" != "$expect" ] ||
	! awk -v s="$steal" -v max="$steal_max" 'BEGIN { exit !(s != "" && s + 0 < max + 0) }'; then
	echo "modelgate: FAIL" >&2
	exit 1
fi
