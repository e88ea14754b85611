#!/usr/bin/env bash
# Builds the serving-path benchmark from this checkout and runs it with the
# given arguments, from the repository root:
#
#   bash servebench/run.sh --workload score_warm --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and every scratch file stay under
# .bench_build in the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
