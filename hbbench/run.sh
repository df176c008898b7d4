#!/usr/bin/env bash
# Builds hbbench from the checkout it sits in and runs it from the
# checkout root; every argument is passed through, e.g.
#
#   bash hbbench/run.sh --workload crawl-cold --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
b="$root/.bench_build"
mkdir -p "$b"
export GOCACHE="$b/gocache" GOMODCACHE="$b/gomodcache" GOPATH="$b/gopath"
export HOME="$b/home" XDG_CONFIG_HOME="$b/config" XDG_CACHE_HOME="$b/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd hbbench && go build -o "$b/hbbench" .)
exec "$b/hbbench" -out "$b/out" "$@"
