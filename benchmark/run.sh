#!/usr/bin/env bash
# Socket-level benchmark for tahoma-serve: build the server and the load
# generator from source, then run workloads against a real server process
# over TCP (see README.md).
#
#   benchmark/run.sh                                  # all four workloads
#   benchmark/run.sh --workload lookup --seed 2       # one workload, another seed
#   benchmark/run.sh --workload scan --trace 1        # per-layer metrics + out/trace.json
#   benchmark/run.sh --calibrate                      # rewrite NOISE.md (~20 min)
#
# The benchmark driver calls it as
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# and reads the last stdout line (one JSON object). Everything else is on
# stderr. Exit status is non-zero when a build fails or any op fails a check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Both packages build into one target directory: the caller's
# CARGO_TARGET_DIR (resolved against the caller's directory, because cargo
# is run from elsewhere below), else the root workspace's own target/.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Without the repository around it there is nothing to measure; say so
# instead of letting cargo fail on a missing path dependency.
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/serve" ]; then
  echo "benchmark/run.sh: $root is not the tahoma repository (no Cargo.toml / crates/serve)" >&2
  exit 3
fi

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p tahoma-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

tmp="$here/out/tmp-$$"
child=""
cleanup() {
  # The load generator kills its server children and removes $tmp itself
  # on every return and panic path; this covers it being killed.
  if [ -n "$child" ]; then
    kill -TERM -- "-$child" 2>/dev/null || true
    wait "$child" 2>/dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 143' TERM
trap 'exit 130' INT

# Job control gives the load generator (and the servers it spawns) a
# process group of their own, so one kill reaches all of them.
set -m
"$target/release/tahoma-loadgen" \
  --server-bin "$target/release/tahoma-serve" \
  --out-dir "$here/out" --tmp-dir "$tmp" "$@" &
child=$!
set +e
wait "$child"
status=$?
set -e
child=""
exit "$status"
