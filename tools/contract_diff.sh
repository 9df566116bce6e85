#!/bin/sh
# Diff the CLI's output contract between a base commit and this tree.
#
#   tools/contract_diff.sh BASE OUTDIR
#
# Extracts BASE's committed files into a temporary directory (git archive),
# runs this tree's tools/output_contract.sh against it (OUTDIR/base) and
# against this tree (OUTDIR/head), prints `diff -r OUTDIR/base OUTDIR/head`,
# then one line per differing file: whether it is identical once every
# number is masked, and the largest absolute change between the numbers
# paired by position.  A side whose verdict fails (BASE runs this tree's rows,
# so a row this tree adds may fail there) is named, and the diff is printed
# anyway.  Exits with diff's status: 0 when both give the same answers, 1 when
# they differ.  The temporary directory is removed however the script ends.
set -eu

base=${1:?usage: tools/contract_diff.sh BASE OUTDIR}
out=${2:?usage: tools/contract_diff.sh BASE OUTDIR}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
tree="$tmp/base"
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tree/tools"
git -C "$root" archive "$base" | tar -x -C "$tree"
cp "$root/tools/output_contract.sh" "$tree/tools/output_contract.sh"
rm -rf "$out/base" "$out/head"
sh "$tree/tools/output_contract.sh" "$out/base" || echo "base: the contract's verdict failed" >&2
sh "$root/tools/output_contract.sh" "$out/head" || echo "head: the contract's verdict failed" >&2
status=0
diff -r "$out/base" "$out/head" || status=$?
python3 - "$out/base" "$out/head" <<'EOF' || true
import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?\b(?:nan|inf|NaN|Infinity)\b")
base, head = map(Path, sys.argv[1:])
files = sorted({p.relative_to(d) for d in (base, head) for p in d.rglob("*") if p.is_file()})
for name in files:
    old, new = base / name, head / name
    if not old.exists() or not new.exists():
        print(f"{name}: only in {'head' if new.exists() else 'base'}")
        continue
    a, b = old.read_text(errors="replace"), new.read_text(errors="replace")
    if a == b:
        continue
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        print(f"{name}: differs beyond its numbers")
        continue
    change = max(abs(float(x) - float(y)) if math.isfinite(float(x)) and math.isfinite(float(y))
                 else (0.0 if x == y else math.inf)
                 for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)))
    print(f"{name}: identical once numbers are masked, largest change {change:.2g}")
EOF
exit "$status"
