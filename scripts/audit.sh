#!/usr/bin/env bash
# Workspace invariant audit: run the tahoma-audit linter (SAFETY.md lints
# A3 and A5-A7) over every .rs file in the workspace, as tier-1's
# real_workspace_audits_clean test does. Exit status is the audit verdict:
# 0 clean, 1 violations (the table lists each one with file, line, and
# excerpt). The rules rustc and clippy hold (SAFETY comments, unsafe
# operations inside `unsafe fn`, no panics in serve and core::exec) are
# checked by `cargo clippy --workspace --all-targets -- -D warnings`.
#
#   scripts/audit.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run -q -p tahoma-audit -- "$@"
