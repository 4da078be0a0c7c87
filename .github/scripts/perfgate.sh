#!/usr/bin/env bash
# Same-runner performance gate. It runs two checks, both on this machine
# only, so that no number is compared across hosts:
#
#   compare   the repository benchmark (perfbench/run.sh) on a base
#             revision and on the current checkout, in alternating pairs;
#             fails if `perfbench -compare` calls any workload x
#             end-to-end metric worse, or if any perfbench run exits
#             nonzero (a failed operation, an output digest mismatch, or
#             a traced-run coverage or gap_frac gate).
#   workers   cmd/tables on the whole paper suite and on the ablation
#             studies (-ablations), each in the default configuration
#             (GOMAXPROCS benchmark workers) against -workers 1: fails if
#             the output bytes differ, or if the default median is more
#             than 10% slower. On a small host the two schedules can be
#             nearly the same, so an exact bound would fail on noise.
#
# Usage, from anywhere in the repository:
#
#   .github/scripts/perfgate.sh <base-rev> [compare] [workers]
#
# With no step named, both run. The compare step skips with a notice when
# the base is empty or all zeros (a push that created the branch), is not
# in the clone, or has no perfbench/run.sh. The base is checked out into
# a git worktree under $RUNNER_TEMP (a new temporary directory when
# unset), and every record, log and table lands in $RUNNER_TEMP/perfgate.
# The whole gate takes about 7 minutes on a 2-CPU host.
set -euo pipefail

pairs=3    # alternating base/head pairs of untraced runs
seconds=8  # measured seconds per workload per run
repeats=3  # runs of each side of the workers check

if [[ $# -lt 1 ]]; then
	echo "usage: $0 <base-rev> [compare] [workers]" >&2
	exit 2
fi
base=$1
shift
steps=("$@")
[[ ${#steps[@]} -gt 0 ]] || steps=(compare workers)

cd "$(git rev-parse --show-toplevel)"
head=$(pwd)
tmp=${RUNNER_TEMP:-$(mktemp -d)}
out=$tmp/perfgate
mkdir -p "$out"

notice() {
	if [[ ${GITHUB_ACTIONS:-} == true ]]; then echo "::notice::$*"; else echo "perfgate: $*"; fi
}
failures=()
fail() {
	if [[ ${GITHUB_ACTIONS:-} == true ]]; then echo "::error::$*"; else echo "perfgate: FAIL: $*" >&2; fi
	failures+=("$*")
}

# bench <tree> <log> <perfbench args...> runs perfbench/run.sh from its
# own tree; a nonzero exit is a gate failure, not an abort, so that every
# run still lands in the artifact.
bench() {
	local tree=$1 log=$2
	shift 2
	echo "== $(basename "$log" .log): perfbench $*"
	if ! (cd "$tree" && bash perfbench/run.sh "$@") >"$log" 2>&1; then
		tail -n 20 "$log" >&2
		fail "perfbench exited nonzero: $(basename "$log" .log) (log in $log)"
	fi
}

compare_step() {
	if [[ -z $base || $base =~ ^0+$ ]]; then
		notice "no base revision; skipping the perfbench comparison"
		return
	fi
	if ! git rev-parse -q --verify "$base^{commit}" >/dev/null; then
		notice "base $base is not in this clone; skipping the perfbench comparison"
		return
	fi
	if ! git cat-file -e "$base:perfbench/run.sh" 2>/dev/null; then
		notice "base $base has no perfbench/run.sh; skipping the perfbench comparison"
		return
	fi

	local tree=$tmp/perfgate-base
	git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
	git worktree prune
	git worktree add --detach -q "$tree" "$base"
	# shellcheck disable=SC2064 # expand the paths now; they are locals
	trap "git -C '$head' worktree remove --force '$tree'" EXIT
	echo "perfgate: base $(git rev-parse --short "$base") in $tree, head $(git rev-parse --short HEAD) in $head"

	rm -f "$out"/base.jsonl "$out"/head.jsonl "$out"/head-traced.jsonl
	local i side order
	for ((i = 1; i <= pairs; i++)); do
		order="base head"
		((i % 2 == 1)) || order="head base"
		for side in $order; do
			local dir=$head
			[[ $side == base ]] && dir=$tree
			bench "$dir" "$out/$side-seed$i.log" \
				-workload all -trace 0 -seconds "$seconds" -seed "$i" -o "$out/$side.jsonl"
		done
	done
	bench "$head" "$out/head-traced.log" \
		-workload all -trace 1 -seconds "$seconds" -seed 1 -o "$out/head-traced.jsonl"

	if [[ -s $out/base.jsonl && -s $out/head.jsonl ]]; then
		bash perfbench/run.sh -compare "$out/base.jsonl" "$out/head.jsonl" | tee "$out/compare.txt"
		local worse unresolved
		worse=$(awk '$NF == "worse" {print $1 " " $2}' "$out/compare.txt")
		unresolved=$(awk '$NF == "unresolved" {print $1 " " $2}' "$out/compare.txt")
		[[ -z $unresolved ]] || notice "spread above the bound, unresolved:" $unresolved
		[[ -z $worse ]] || fail "perfbench -compare calls these worse than the base:" $worse
	else
		fail "no run records to compare"
	fi
}

median() { sort -n | awk '{v[NR] = $1} END {print v[int((NR + 1) / 2)]}'; }

# workers_run <name> <tables args...> times tables at the defaults
# against -workers 1 on one run and compares their medians and bytes.
workers_run() {
	local name=$1
	shift
	local side i t0 t1 m1 md want log=$out/default-vs-workers-1-$name.txt
	: >"$log"
	for ((i = 1; i <= repeats; i++)); do
		local order="default 1"
		((i % 2 == 1)) || order="1 default"
		for side in $order; do
			local args=(-scale 0.1 -quiet "$@")
			[[ $side == 1 ]] && args+=(-workers 1)
			t0=$(date +%s%N)
			"$tmp/perfgate-tables" "${args[@]}" >"$out/tables-$name-$side.out"
			t1=$(date +%s%N)
			echo "$side $((t1 - t0)) $(sha256sum <"$out/tables-$name-$side.out" | cut -d' ' -f1)" |
				tee -a "$log"
		done
	done
	m1=$(awk '$1 == 1 {print $2}' "$log" | median)
	md=$(awk '$1 == "default" {print $2}' "$log" | median)
	echo "workers ($name): median $((md / 1000000)) ms at the defaults, $((m1 / 1000000)) ms at -workers 1"
	((md * 10 <= m1 * 11)) || fail "tables ($name) at the defaults is more than 10% slower than at -workers 1 (median $((md / 1000000)) ms vs $((m1 / 1000000)) ms)"
	want=$(awk 'NR == 1 {print $3}' "$log")
	if awk -v h="$want" '$3 != h {bad = 1} END {exit !bad}' "$log"; then
		fail "tables ($name) output differs between the defaults and -workers 1"
	fi
}

workers_step() {
	local n
	n=$(nproc)
	if ((n < 2)); then
		notice "nproc is $n; skipping the workers check"
		return
	fi
	go build -o "$tmp/perfgate-tables" ./cmd/tables
	workers_run paper
	workers_run ablations -ablations
}

for step in "${steps[@]}"; do
	case $step in
	compare) compare_step ;;
	workers) workers_step ;;
	*)
		echo "perfgate: unknown step $step (want compare or workers)" >&2
		exit 2
		;;
	esac
done

echo "perfgate: records and tables in $out"
if ((${#failures[@]} > 0)); then
	printf 'perfgate: FAIL: %s\n' "${failures[@]}" >&2
	exit 1
fi
echo "perfgate: ok"
