#!/usr/bin/env bash
# Run-directory guard: solve a fixed set of instances with revision REV and
# with the working tree, and compare the run directories byte for byte.
#
#   scripts/rundir_guard.sh REV        # e.g. HEAD~ or a commit hash
#
# REV is checked out with `git worktree add --detach` into a temporary
# directory (mktemp, so under $TMPDIR) that is removed on exit. Every
# instance runs as `sphere-ot solve ... --out run` inside a directory of its
# own, so config.json records the same output_dir on both sides. After each
# solve, `sphere-ot extract --run run` rewrites the map artifacts in place, so
# the comparison covers what extract writes as well. The stdout and exit code
# of both commands are kept next to each run directory and compared too.
# Ends with `diff -r` and exits non-zero on any difference.
set -euo pipefail

rev=${1:?usage: scripts/rundir_guard.sh REV}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
    git -C "$repo" worktree remove --force "$work/checkout" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT
git -C "$repo" worktree add --quiet --detach "$work/checkout" "$rev"

# name|solve arguments; the target is uniform throughout
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
)

solve_all() {  # $1: source tree, $2: output root
    local entry name dir code
    for entry in "${instances[@]}"; do
        name=${entry%%|*}
        dir="$2/$name"
        mkdir -p "$dir"
        code=0
        # shellcheck disable=SC2086  # the arguments are meant to split
        (cd "$dir" && PYTHONPATH="$1/src" python3 -m sphere_ot.cli solve ${entry#*|} \
            --out run >stdout.txt) || code=$?
        echo "$code" >"$dir/exit_code"
        echo "  $name: exit $code"
        code=0
        (cd "$dir" && PYTHONPATH="$1/src" python3 -m sphere_ot.cli extract --run run \
            >extract_stdout.txt) || code=$?
        echo "$code" >"$dir/extract_exit_code"
        echo "  $name: extract exit $code"
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
