#!/usr/bin/env bash
# Entry point of the AWARE serving benchmark. Run it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload explore_30k --seed 1 --seconds 10 --trace 0
#
# It builds awared and the benchmark driver from the checkout's sources into
# .bench_build/ (build cache and temporary files included, so nothing is
# written outside the checkout), then hands every argument to the driver.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/awared" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an aware checkout (go.mod, cmd/awared and perfbench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/awared" ./cmd/awared
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -awared "$out/awared" -work "$out/work" "$@"
