#!/bin/sh
# Diff the CLI's output contract between a base commit and this tree.
#
#   tools/contract_diff.sh BASE OUTDIR
#
# Checks BASE out into a temporary git worktree, runs this tree's
# tools/output_contract.sh against it (OUTDIR/base) and against this tree
# (OUTDIR/head), prints `diff -r OUTDIR/base OUTDIR/head` and exits with
# diff's status: 0 when both give the same answers, 1 when they differ.
# The worktree is removed however the script ends.
set -eu

base=${1:?usage: tools/contract_diff.sh BASE OUTDIR}
out=${2:?usage: tools/contract_diff.sh BASE OUTDIR}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
tree="$tmp/base"
trap 'git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
rm -rf "$tmp"
git -C "$root" worktree prune' EXIT

git -C "$root" worktree add --quiet --detach "$tree" "$base"
mkdir -p "$tree/tools"
cp "$root/tools/output_contract.sh" "$tree/tools/output_contract.sh"
rm -rf "$out/base" "$out/head"
sh "$tree/tools/output_contract.sh" "$out/base"
sh "$root/tools/output_contract.sh" "$out/head"
status=0
diff -r "$out/base" "$out/head" || status=$?
exit "$status"
