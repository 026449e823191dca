#!/usr/bin/env bash
# Builds the benchmark (bench/, a Go module of its own that uses the
# repository through a replace directive) and runs it from the repository
# root with the given flags. The Go build cache, Go's own config and
# telemetry files, and every file the benchmark writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C bench -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
