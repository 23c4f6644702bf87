#!/usr/bin/env bash
# Builds the `scfi` CLI and the benchmark from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload cli_analyze|temporal|certify|serve \
#        --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: target/); generated
# inputs and trace files go to $CARGO_TARGET_DIR/e2ebench/.
set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/cli" ]]; then
  echo "e2ebench: no scfi sources next to $bench_dir; run it from a full checkout" >&2
  exit 2
fi
target="${CARGO_TARGET_DIR:-$root/target}"
[[ "$target" = /* ]] || target="$PWD/$target"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p scfi-cli --bin scfi >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$target/release/scfi-e2ebench" --scfi "$target/release/scfi" --root "$root" \
  --out-dir "$target/e2ebench" "$@"
