#!/usr/bin/env bash
# Builds the crashprone CLI and the serving benchmark from this checkout and
# runs the benchmark with the given arguments, for example
#
#   bash perfbench/run.sh --workload score-routed --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 5 --trace 0
#
# Build caches, binaries, exported models and span dumps all stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
# Unless telemetry is off, the first go command of the day starts a detached
# upload process that outlives this script. "go telemetry off" starts none.
go telemetry off

go build -o "$out/bin/crashprone" ./cmd/crashprone
(cd perfbench && go build -o "$out/bin/perfbench" .)

commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
exec "$out/bin/perfbench" --crashprone "$out/bin/crashprone" --out "$out/run" --commit "$commit" "$@"
