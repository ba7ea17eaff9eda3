#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build cache, binary, WAL directories and trace files all stay under
# .bench_build (or $CARGO_TARGET_DIR when set) inside the repository.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/mod
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out/work" "$@"
