#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artefact stays
# under .bench_build/ there (or $CARGO_TARGET_DIR, when set); nothing is
# fetched from the network.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/serve" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/serve here)" >&2
	exit 1
fi
mkdir -p "$out"

export GOCACHE=$out/gocache GOTMPDIR=$out GOMODCACHE=$out/gomod
export GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
