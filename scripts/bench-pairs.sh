#!/usr/bin/env bash
# Paired runs of one standing-benchmark workload: parent against this
# checkout, alternating which side runs first, which is the only
# comparison this box's drift allows (bench/README.md).
#
#   scripts/bench-pairs.sh <parent-ref> <workload> [pairs=10] [-- extra run.sh flags]
#
# The parent is exported (git archive) into a throw-away directory next
# to the results and built from there by its own bench/run.sh, exactly as
# the driver does it. Every run is kept: <out>/<pair>-<side>.json is what
# `-out` wrote (metrics and host facts), and <out>/pairs.json collects
# them, both sides of every pair, in the order they ran. Printed at the
# end, per end-to-end metric: each side's median and quartiles, and in
# how many pairs the change was the better one.
#
# OUT=<dir> chooses where results go (default: a fresh directory under
# ${TMPDIR:-/tmp}).
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'
	exit 2
fi
parent_ref=$1
workload=$2
shift 2
pairs=10
if [ $# -gt 0 ] && [ "$1" != "--" ]; then
	pairs=$1
	shift
fi
if [ $# -gt 0 ] && [ "$1" = "--" ]; then
	shift
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${OUT:-$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")}"
mkdir -p "$out"
parent="$out/parent"
rm -rf "$parent"
mkdir -p "$parent"
git -C "$root" archive "$parent_ref" | tar -x -C "$parent"
parent_commit="$(git -C "$root" rev-parse "$parent_ref")"
trap 'rm -rf "$parent"' EXIT

# run <side> <checkout> <file>: one run, its JSON in <file>.
run() {
	echo "-- pair $pair: $1" >&2
	bash "$2/bench/run.sh" --workload "$workload" -out "$3" "${@:4}" >"$3.log" 2>&1 ||
		{ echo "run failed, see $3.log" >&2; exit 1; }
}

: >"$out/order"
for pair in $(seq 1 "$pairs"); do
	first=parent second=change
	if [ $((pair % 2)) -eq 0 ]; then
		first=change second=parent
	fi
	for side in $first $second; do
		dir="$root"
		[ "$side" = parent ] && dir="$parent"
		run "$side" "$dir" "$out/$pair-$side.json" "$@"
		echo "$pair $side" >>"$out/order"
	done
done

# metric <file> <name>: the end-to-end metric's value in a run's JSON,
# whose layout is one "name" line followed by one "value" line.
metric() {
	awk -v name="\"$2\"" '
		$1 == "\"name\":" && $2 == name"," { hit = 1; next }
		hit && $1 == "\"value\":" { gsub(",", "", $2); print $2; exit }
	' "$1"
}

{
	echo "{"
	echo "  \"workload\": \"$workload\","
	echo "  \"parent\": \"$parent_commit\","
	echo "  \"pairs\": $pairs,"
	echo "  \"runs\": ["
	n=$(wc -l <"$out/order")
	i=0
	while read -r pair side; do
		i=$((i + 1))
		echo "    {\"pair\": $pair, \"side\": \"$side\", \"result\":"
		sed 's/^/      /' "$out/$pair-$side.json"
		[ "$i" -lt "$n" ] && echo "    }," || echo "    }"
	done <"$out/order"
	echo "  ]"
	echo "}"
} >"$out/pairs.json"

# quartiles: q1 median q3 of the numbers on stdin.
quartiles() {
	sort -g | awk '{ v[NR] = $1 } END {
		q = int((NR + 3) / 4)
		printf "%g %g %g\n", v[q], (v[int((NR + 1) / 2)] + v[int(NR / 2) + 1]) / 2, v[NR + 1 - q]
	}'
}

echo
echo "$workload: $pairs pairs, parent $parent_commit"
printf '%-10s %-7s %12s %12s %12s   %s\n' metric side q1 median q3 "change better in"
for m in ops_per_s:higher p50_us:lower setup_s:lower; do
	name=${m%%:*} better=${m##*:}
	wins=0
	for pair in $(seq 1 "$pairs"); do
		p=$(metric "$out/$pair-parent.json" "$name")
		c=$(metric "$out/$pair-change.json" "$name")
		wins=$((wins + $(awk -v p="$p" -v c="$c" -v b="$better" 'BEGIN { print (((b == "higher" && c > p) || (b == "lower" && c < p)) ? 1 : 0) }')))
	done
	for side in parent change; do
		read -r q1 med q3 < <(for pair in $(seq 1 "$pairs"); do metric "$out/$pair-$side.json" "$name"; done | quartiles)
		note=""
		[ "$side" = change ] && note="$wins/$pairs pairs"
		printf '%-10s %-7s %12s %12s %12s   %s\n' "$name" "$side" "$q1" "$med" "$q3" "$note"
	done
done
echo
echo "every run: $out/pairs.json"
