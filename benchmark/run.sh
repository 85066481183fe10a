#!/usr/bin/env bash
# Build snapmark once per checkout and run it. Timed work never goes through
# `go run`: the binary is built here, then exec'd. Every file the build writes
# (binary, build cache, the toolchain's own counters) stays under
# benchmark/bin/, which .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
(cd "$here" && GOCACHE="$here/bin/gocache" GOPATH="$here/bin/gopath" XDG_CONFIG_HOME="$here/bin/config" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	go build -ldflags "-X main.commit=$commit" -o bin/snapmark .) >&2
exec "$here/bin/snapmark" "$@"
