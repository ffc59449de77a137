#!/bin/sh
# Regenerates the committed lock-order graph (docs/lock-order.dot) from
# the code.  Run after any change to lock acquisition structure, commit
# the result; the `lint` target (run in CI) diffs the committed file
# against a fresh extraction and fails on drift.
set -eu
root=$(CDPATH= cd -- "$(dirname -- "$0")/../.." && pwd)
exec python3 "$root/tools/analysis/pjsched_analysis.py" \
  --root "$root" --pass lock-order \
  --dot-out "$root/docs/lock-order.dot" "$@"
