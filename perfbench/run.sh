#!/usr/bin/env bash
# Builds the benchmark driver from source inside the checkout and runs it
# with the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload train-search --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, store
# files, spans, CPU profiles) stays under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
# The checkout may not be a git repository; never look above it for one.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -out "$out" -commit "$commit" "$@"
