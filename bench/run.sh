#!/usr/bin/env bash
# Builds the benchmark driver from source and runs one workload:
#
#   bash bench/run.sh --workload <contract|cycles|suite|serve> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build artifact, temporary file
# and span dump goes under .bench_build/ in that root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

# Keep the toolchain's cache, temporaries and telemetry inside the
# checkout, and never let it reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/pandora-bench" .)
cd "$root"
exec "$out/pandora-bench" "$@"
