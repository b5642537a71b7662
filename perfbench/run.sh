#!/usr/bin/env bash
# Builds the FT-Cache benchmark from this checkout's sources and runs it.
# Every build artefact, cache and output stays under .bench_build/ at the
# checkout root.
#
#   bash perfbench/run.sh --workload zipf-tiered --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
  GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
