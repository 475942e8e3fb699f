#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fedcdp-mnist --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes, the Go build
# cache and toolchain telemetry included, stays under .bench_build/ in the
# working directory. The build fails, and the script exits non-zero without
# a result, when the repository's own module is not beside perfbench/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
