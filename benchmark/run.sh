#!/usr/bin/env bash
# Builds the benchmark and cmd/drain from source, then runs the benchmark
# with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Every build product, Go cache and scratch file stays under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export GOTMPDIR=$out/tmp
export TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off

(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .)
go build -o "$out/bin/drain" ./cmd/drain

exec "$out/bin/benchmark" -drain-bin "$out/bin/drain" -work-dir "$out/work" -pkg-dir "$root/benchmark" "$@"
