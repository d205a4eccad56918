#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh --workload tpcw-browsing-mm3 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories, trace files) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the repository.
set -euo pipefail

[ -f go.mod ] && [ -d bench ] || { echo "run.sh: run from the repository root" >&2; exit 2; }

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$out/bench" .
exec "$out/bench" -workdir "$out" "$@"
