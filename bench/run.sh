#!/usr/bin/env bash
# Builds the benchmark program and cmd/atomd from source, then runs the
# program with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload trend -seed 7 -seconds 12 -trace 0
#
# Binaries, the Go build cache and JSON results go to .bench_build/ at
# the root, so a run writes nothing outside the checkout. Build output
# goes to stderr; the program's last stdout line is its JSON result.
set -euo pipefail

cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"

(cd bench && go build -o "$out/bin/" . repro/cmd/atomd) >&2
exec "$out/bin/bench" -atomd "$out/bin/atomd" -out "$out" "$@"
