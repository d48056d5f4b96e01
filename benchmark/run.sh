#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout. Everything the build and the run write stays under
# .bench_build in the checkout: Go's build cache, its temporary and
# configuration directories, the binary and traces.
# In a directory without the repository's go.mod the build fails and
# this script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -C "$here" -o "$build/wormbench" .
exec "$build/wormbench" "$@"
