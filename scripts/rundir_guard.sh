#!/usr/bin/env bash
# Run-directory guard: solve a fixed set of instances with revision REV and
# with the working tree, and compare the run directories byte for byte.
#
#   scripts/rundir_guard.sh REV        # e.g. HEAD~ or a commit hash
#
# REV's files are unpacked with `git archive`, writing nothing to .git, into
# a temporary directory (mktemp, so under $TMPDIR) removed on exit. Every
# instance runs as `sphere-ot solve ... --out run` inside a directory of its
# own, so config.json records the same output_dir on both sides. After each
# solve, the re-analysis commands run on the run directory: `extract`
# re-analyses the stored plan and rewrites every analysis artifact in place,
# printing the check table, `diagnose` prints the recorded fits and constants,
# and `report` writes report.json into it. The stdout and exit code of every
# command are kept next to each run directory and compared too. The built-in
# densities carry cell-area weights and take the LP path, so one instance is
# an equal-weight warp on the assignment path: its two measure files are
# written once, with the working tree, and fed to both trees.
# Ends with `diff -r` and exits non-zero on any difference.
set -euo pipefail

rev=${1:?usage: scripts/rundir_guard.sh REV}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/checkout"
git -C "$repo" archive "$rev" | tar -x -C "$work/checkout"

# 300 atoms of the mesh against their push-forward under the gradient map
# x -> (x + 0.35 e_z) / |x + 0.35 e_z|, at weight 1/300 each (study.py's warp)
PYTHONPATH="$repo/src:$repo/scripts" python3 -c 'import sys, pathlib, study
study.warp_specs(2, 300, 0, 0.35, pathlib.Path(sys.argv[1]) / "warp")' "$work"

# name|solve arguments; the target is uniform but for the warp
instances=(
    "exact-cap-200|--mesh 200 --mu cap:0.98"
    "exact-band-200|--mesh 200 --mu band:0.5"
    "exact-uniform-200|--mesh 200 --mu uniform"
    "exact-cap-500|--mesh 500 --mu cap:0.98"
    "exact-band-500|--mesh 500 --mu band:0.5"
    "exact-uniform-500|--mesh 500 --mu uniform"
    "entropic-cap-200|--mesh 200 --mu cap:0.98 --solver entropic"
    "entropic-cap-500|--mesh 500 --mu cap:0.98 --solver entropic"
    "exact-cap-s1-300|--n 1 --mesh 300 --mu cap:0.98"
    "exact-cap-s3-300|--n 3 --mesh 300 --mu cap:0.98"
    "exact-warp-300|--mu $work/warp-mu.json --nu $work/warp-nu.json"
)

step() {  # $1: source tree, $2: instance directory, $3: file prefix, then the command
    local tree=$1 dir=$2 prefix=$3 code=0
    shift 3
    (cd "$dir" && PYTHONPATH="$tree/src" python3 -m sphere_ot.cli "$@" \
        >"${prefix}stdout.txt") || code=$?
    echo "$code" >"$dir/${prefix}exit_code"
    echo "  ${dir##*/}: $1 exit $code"
}

solve_all() {  # $1: source tree, $2: output root
    local entry dir command
    for entry in "${instances[@]}"; do
        dir="$2/${entry%%|*}"
        mkdir -p "$dir"
        # shellcheck disable=SC2086  # the arguments are meant to split
        step "$1" "$dir" "" solve ${entry#*|} --out run
        for command in extract diagnose report; do
            step "$1" "$dir" "${command}_" "$command" --run run
        done
    done
}

echo "solving with $rev"
solve_all "$work/checkout" "$work/rev"
echo "solving with the working tree"
solve_all "$repo" "$work/tree"
if diff -r "$work/rev" "$work/tree"; then
    echo "no difference on ${#instances[@]} instances"
else
    echo "run directories differ from $rev" >&2
    exit 1
fi
