#!/usr/bin/env bash
# Paired runs of one standing-benchmark workload: parent against this
# checkout, alternating which side runs first, which is the only
# comparison this box's drift allows (bench/README.md).
#
#   scripts/bench-pairs.sh <parent-ref> <workload> [pairs=10] [-- extra run.sh flags]
#
# Both sides are exported the same way — git archive into a throw-away
# directory next to the results: the parent from its ref, the change
# from the working tree as it stands (tracked and new files, staged or
# not, minus what .gitignore names), written as a tree through a scratch
# index — and each is built once, the way its own bench/run.sh builds,
# before the first pair runs. Every run is kept: <out>/<pair>-<side>.json
# is what `-out` wrote (metrics and host facts), and <out>/pairs.json
# collects them, both sides of every pair, in the order they ran. Printed
# at the end, per end-to-end metric of BENCHMARK.json: each side's median
# and quartiles, in how many pairs the change was the better and the
# worse one, and the verdict that follows from those and the metric's
# bound — better (ten pairs or more, at least 9/10 of them won and medians
# further apart than the parent's quartiles), worse (the change's median beyond the
# bound), unresolved (the parent's quartiles further apart than the
# bound, or a lean that is neither), else within bound — and beside it,
# not part of the verdict, the paired statistics: the median over pairs
# of ln(change/parent) with the ratio it stands for, the distribution-free
# interval for that median (the k-th smallest and k-th largest of the n
# paired ln ratios, k the largest whose coverage 1 - 2 P(Binomial(n, 1/2)
# < k) is at least 95 %, else 1; n = 6 gives min..max at 96.9 %, n = 10
# the 2nd..9th at 97.9 %) with its coverage, and the sign count, in k of
# n pairs the change was the better one — then, not judged,
# each side's median of every diagnostic named in DIAG, which is how a
# verdict gets its mechanism from the instrument ("rounds per read 1.00 ->
# 0.00") instead of from prose; pairs.json keeps those medians too — and
# `make loc` of both sides.
#
# OUT=<dir> chooses where results go (default: a fresh directory under
# ${TMPDIR:-/tmp}). DIAG="name ..." lists the diagnostics: any metric name
# a run's JSON has (default: window.raft.readindex_rounds_per_read p99_us);
# one a workload does not report reads n/a.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,38p' "$0" | sed 's/^# \{0,1\}//'
	exit 2
fi
DIAG="${DIAG:-window.raft.readindex_rounds_per_read p99_us}"
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
parent_commit="$(git -C "$root" rev-parse "$parent_ref")"
cp "$(git -C "$root" rev-parse --absolute-git-dir)/index" "$out/index"
change_tree="$(GIT_INDEX_FILE="$out/index" git -C "$root" add -A && GIT_INDEX_FILE="$out/index" git -C "$root" write-tree)"
trap 'rm -rf "$out/parent" "$out/change" "$out/index" "$out/diag"' EXIT

# checkout <side> <tree-ish>: the side's sources in <out>/<side>, and its
# benchmark built there with bench/run.sh's own settings.
checkout() {
	local dir="$out/$1" build="$out/$1/.bench_build"
	rm -rf "$dir"
	mkdir -p "$build/tmp"
	git -C "$root" archive "$2" | tar -x -C "$dir"
	(cd "$dir/bench" && GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
		GOPROXY=off GOTOOLCHAIN=local TMPDIR="$build/tmp" go build -o "$build/mochi-bench" .)
}
checkout parent "$parent_ref"
checkout change "$change_tree"

# run <side> <file>: one run of the side's binary, its JSON in <file>.
run() {
	echo "-- pair $pair: $1" >&2
	TMPDIR="$out/$1/.bench_build/tmp" "$out/$1/.bench_build/mochi-bench" -dir "$out/$1/bench" \
		--workload "$workload" -out "$2" "${@:3}" >"$2.log" 2>&1 ||
		{ echo "run failed, see $2.log" >&2; exit 1; }
}

: >"$out/order"
for pair in $(seq 1 "$pairs"); do
	first=parent second=change
	if [ $((pair % 2)) -eq 0 ]; then
		first=change second=parent
	fi
	for side in $first $second; do
		run "$side" "$out/$pair-$side.json" "$@"
		echo "$pair $side" >>"$out/order"
	done
done

# metric <file> <name>: a metric's value in a run's JSON,
# whose layout is one "name" line followed by one "value" line.
metric() {
	awk -v name="\"$2\"" '
		$1 == "\"name\":" && $2 == name"," { hit = 1; next }
		hit && $1 == "\"value\":" { gsub(",", "", $2); print $2; exit }
	' "$1"
}

# quartiles: q1 median q3 of the numbers on stdin.
quartiles() {
	sort -g | awk '{ v[NR] = $1 } END {
		q = int((NR + 3) / 4)
		printf "%g %g %g\n", v[q], (v[int((NR + 1) / 2)] + v[int(NR / 2) + 1]) / 2, v[NR + 1 - q]
	}'
}

# $out/diag: one line per diagnostic in DIAG — name, parent median, change
# median over all pairs; n/a for a side none of whose runs reports it.
for name in $DIAG; do
	line=$name
	for side in parent change; do
		vals=$(for pair in $(seq 1 "$pairs"); do metric "$out/$pair-$side.json" "$name"; done)
		if [ -z "$vals" ]; then
			line="$line n/a"
		else
			line="$line $(echo "$vals" | quartiles | cut -d' ' -f2)"
		fi
	done
	echo "$line"
done >"$out/diag"

{
	echo "{"
	echo "  \"workload\": \"$workload\","
	echo "  \"parent\": \"$parent_commit\","
	echo "  \"change_tree\": \"$change_tree\","
	echo "  \"pairs\": $pairs,"
	echo "  \"diag_medians\": {"
	sep=""
	while read -r name pm cm; do
		printf '%s    "%s": {"parent": "%s", "change": "%s"}' "$sep" "$name" "$pm" "$cm"
		sep=$',\n'
	done <"$out/diag"
	printf '\n  },\n'
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

# interval: the k-th smallest and k-th largest of the numbers on stdin
# and the coverage of that interval for their median, k as in the header.
interval() {
	sort -g | awk '{ v[NR] = $1 } END {
		n = NR
		if (n == 0) exit
		p = 0.5 ^ n # P(B = j), from j = 0
		cum = p     # P(B <= k - 1)
		k = 1
		cov = 1 - 2 * cum
		for (j = 1; j + 1 <= n + 1 - (j + 1); j++) {
			p = p * (n - j + 1) / j
			if (1 - 2 * (cum + p) < 0.95) break
			cum += p
			k = j + 1
			cov = 1 - 2 * cum
		}
		printf "%g %g %.1f %d\n", v[k], v[n + 1 - k], 100 * cov, k
	}'
}

# verdict <better> <wins> <losses> <parent q1 median q3> <change median> <bound>:
# the rules of the simplicity-review guide, applied mechanically. Ties
# count for neither side.
verdict() {
	awk -v b="$1" -v w="$2" -v l="$3" -v n="$pairs" -v q1="$4" -v pm="$5" -v q3="$6" -v cm="$7" -v bound="$8" 'BEGIN {
		iqr = q3 - q1
		gain = (b == "higher") ? cm - pm : pm - cm # above zero: the change is the better one
		if (n >= 10 && 10 * w >= 9 * n && gain > iqr) print "better"
		else if (-gain > bound * pm) print "worse"
		else if (iqr > bound * pm) print "unresolved (the parent\047s quartiles are further apart than the bound)"
		else if (10 * w >= 9 * n || 10 * l >= 9 * n) print "unresolved (a lean that is neither better nor worse)"
		else print "within bound"
	}'
}

# loc <side>: what `make loc` counts, in the side's export.
loc() {
	(cd "$out/$1" && find . -name '*.go' ! -path './bench/*' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)
}

echo
echo "$workload: $pairs pairs, parent $parent_commit"
printf '%-10s %-7s %12s %12s %12s   %s\n' metric side q1 median q3 "change better in"
# The end-to-end metrics, which way is better and the bound on each are
# BENCHMARK.json's.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on { gsub(/[",]/, "", $2) }
	on && $1 == "\"name\":" { name = $2 }
	on && $1 == "\"better\":" { better = $2 }
	on && $1 == "\"bound\":" { print name, better, $2 }' "$root/BENCHMARK.json" |
	while read -r name better bound; do
		wins=0 losses=0 ratios=""
		for pair in $(seq 1 "$pairs"); do
			p=$(metric "$out/$pair-parent.json" "$name")
			c=$(metric "$out/$pair-change.json" "$name")
			ratios="$ratios $(awk -v p="$p" -v c="$c" 'BEGIN { if (p > 0 && c > 0) printf "%.6f", log(c / p) }')"
			[ "$better" = lower ] && { t=$p p=$c c=$t; }
			wins=$((wins + $(awk -v p="$p" -v c="$c" 'BEGIN { print (c > p) ? 1 : 0 }')))
			losses=$((losses + $(awk -v p="$p" -v c="$c" 'BEGIN { print (c < p) ? 1 : 0 }')))
		done
		read -r pq1 pmed pq3 < <(for pair in $(seq 1 "$pairs"); do metric "$out/$pair-parent.json" "$name"; done | quartiles)
		read -r cq1 cmed cq3 < <(for pair in $(seq 1 "$pairs"); do metric "$out/$pair-change.json" "$name"; done | quartiles)
		printf '%-10s %-7s %12s %12s %12s\n' "$name" parent "$pq1" "$pmed" "$pq3"
		printf '%-10s %-7s %12s %12s %12s   %s\n' "$name" change "$cq1" "$cmed" "$cq3" "$wins/$pairs pairs, worse in $losses"
		printf '%-10s %-7s %s (bound %s)\n' "$name" verdict "$(verdict "$better" "$wins" "$losses" "$pq1" "$pmed" "$pq3" "$cmed" "$bound")" "$bound"
		lr=$(echo "$ratios" | tr ' ' '\n' | grep . | quartiles | cut -d' ' -f2 || true)
		read -r lo hi cov k < <(echo "$ratios" | tr ' ' '\n' | grep . | interval || true)
		printf '%-10s %-7s median ln(change/parent) %s (x%s), sign %s of %s pairs better\n' "$name" paired \
			"${lr:-n/a}" "$(awk -v r="${lr:-0}" 'BEGIN { printf "%.3f", exp(r) }')" "$wins" "$pairs"
		printf '%-10s %-7s interval for that median %s..%s (x%s..x%s), order statistic %s, coverage %s %%\n' "$name" paired \
			"${lo:-n/a}" "${hi:-n/a}" "$(awk -v r="${lo:-0}" 'BEGIN { printf "%.3f", exp(r) }')" \
			"$(awk -v r="${hi:-0}" 'BEGIN { printf "%.3f", exp(r) }')" "${k:-n/a}" "${cov:-n/a}"
	done
echo
echo "diagnostics, median per side (not judged):"
while read -r name pm cm; do
	printf '%-45s parent %12s   change %12s\n' "$name" "$pm" "$cm"
done <"$out/diag"
echo
echo "make loc: parent $(loc parent), change $(loc change)"
echo "every run: $out/pairs.json"
