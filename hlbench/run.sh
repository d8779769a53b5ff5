#!/usr/bin/env bash
# Runs the benchmark from the repository root, building it first when
# its binary is missing or older than any source it is built from:
#
#   bash hlbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# The binary lands in $CARGO_TARGET_DIR (default hlbench/target).
# Calling the binary directly, rather than `cargo run` every time,
# matters outside a git checkout: the server's build script then asks
# Cargo to rebuild it on every invocation.
set -euo pipefail
target="${CARGO_TARGET_DIR:-hlbench/target}"
bin="$target/release/hlbench"
if [[ ! -x "$bin" ]] ||
    [[ -n "$(find hlbench/src hlbench/Cargo.toml hlbench/Cargo.lock crates -newer "$bin" -print -quit 2>/dev/null)" ]]; then
    cargo build --quiet --release --offline --manifest-path hlbench/Cargo.toml >&2
fi
exec "$bin" "$@"
