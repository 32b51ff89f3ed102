#!/usr/bin/env bash
# Builds cmd/rmserve and the benchmark driver from this checkout, then runs
# the driver with the given arguments. Run from the repository root:
#
#	bash _perfbench/run.sh --workload emb-flash --seed 1 --seconds 15 --trace 0
#
# Every build output, the Go build cache and Go's own config and telemetry
# files stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rmserve" ]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/rmserve here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/rmserve" ./cmd/rmserve
(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -rmserve "$out/rmserve" -out "$out" "$@"
