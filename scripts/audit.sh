#!/usr/bin/env bash
# Workspace invariant audit: run the tahoma-audit linter (SAFETY.md lints
# A1-A7 plus A0 stale-allowlist detection) over every .rs file in the
# workspace, exactly as the CI audit job does. Exit status is the audit
# verdict: 0 clean, 1 violations (the report lists each one with file,
# line, and excerpt).
#
#   scripts/audit.sh              # human-readable table
#   scripts/audit.sh --json       # machine-readable report (CI artifact)
#   scripts/audit.sh --checked    # also run the test suite with every
#                                 # kernel invariant asserted at runtime
#                                 # (--features tahoma-nn/checked-kernels)
set -euo pipefail
cd "$(dirname "$0")/.."

checked=0
args=()
for a in "$@"; do
  if [ "$a" = "--checked" ]; then
    checked=1
  else
    args+=("$a")
  fi
done

cargo run -q -p tahoma-audit -- "${args[@]+"${args[@]}"}"

if [ "$checked" = 1 ]; then
  echo "== test suite under --features tahoma-nn/checked-kernels =="
  cargo test -q --workspace --features tahoma-nn/checked-kernels
fi
