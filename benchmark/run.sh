#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ of the checkout and runs it with the given flags. Go's build
# cache, temp files and per-user state (HOME) are pointed there too, so
# nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
	export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
	cd "$root/benchmark" && go build -o "$build/lobench" .
)
cd "$root"
exec "$build/lobench" "$@"
