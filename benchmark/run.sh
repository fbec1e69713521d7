#!/usr/bin/env bash
# The repo's benchmark, one command (README.md has the design):
#
#   benchmark/run.sh [--seed N] [--traced] [--quick]     every workload, fresh processes
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                        one workload, one JSON result line
#   benchmark/run.sh compare A.json B.json               verdict per (workload, metric)
#   benchmark/run.sh test                                the benchmark's own tests
#
# Builds the root release binaries and the benchmark package first
# (untimed), then measures. Whatever way it exits, no sdl-server it
# started survives and no WAL directory is left for the next run.
set -euo pipefail

START_DIR=$PWD
ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
# One target directory for both builds; a relative CARGO_TARGET_DIR
# means relative to where the caller stood.
case "${CARGO_TARGET_DIR:-}" in
    "") export CARGO_TARGET_DIR="$ROOT/target" ;;
    /*) ;;
    *) export CARGO_TARGET_DIR="$START_DIR/$CARGO_TARGET_DIR" ;;
esac
export SDL_SERVER_BIN="$CARGO_TARGET_DIR/release/sdl-server"
cd "$ROOT"

cleanup() {
    # The driver kills its own servers; this catches the ones orphaned
    # by a driver that was itself killed.
    for p in /proc/[0-9]*; do
        if [ "$(readlink "$p/exe" 2>/dev/null)" = "$SDL_SERVER_BIN" ]; then
            kill -9 "${p#/proc/}" 2>/dev/null || true
        fi
    done
    rm -rf "$ROOT"/benchmark/out/wal-*
}
trap cleanup EXIT
trap 'exit 130' INT TERM

cargo build --release --offline --quiet --manifest-path "$ROOT/Cargo.toml" --bin sdl-server
cargo build --release --offline --quiet --manifest-path "$ROOT/benchmark/Cargo.toml"
cleanup

case "${1:-}" in
    compare) "$CARGO_TARGET_DIR/release/sdl-benchmark" "$@" ;;
    test) cargo test --release --offline --manifest-path "$ROOT/benchmark/Cargo.toml" ;;
    *)
        case " $* " in
            *" --workload "*) "$CARGO_TARGET_DIR/release/sdl-benchmark" "$@" ;;
            *) "$CARGO_TARGET_DIR/release/sdl-benchmark" suite "$@" ;;
        esac
        ;;
esac
