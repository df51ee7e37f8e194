#!/usr/bin/env bash
# Builds partminer, partserved and the perfbench harness from the source
# tree it is run in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload mine-batch --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache and scratch
# file goes under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/partminer" ] || [ ! -d "$root/cmd/partserved" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/ sources here)" >&2
	exit 2
fi

out=$root/.bench_build
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
mkdir -p "$GOCACHE" "$GOTMPDIR" "$GOPATH" "$XDG_CONFIG_HOME" "$XDG_CACHE_HOME" "$out/bin" "$out/work"

go build -o "$out/bin/partminer" ./cmd/partminer >&2
go build -o "$out/bin/partserved" ./cmd/partserved >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
