#!/usr/bin/env bash
# Builds bwgateway and the perfbench load generator from this checkout, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload rr-small --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout
# (the Go build cache included), so a fresh checkout builds from source.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
# The go command also keeps settings, telemetry counters and a module
# cache under the user's home; point those inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/bwgateway" ./cmd/bwgateway
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -gateway "$out/bwgateway" -out "$out" "$@"
