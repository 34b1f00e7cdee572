#!/usr/bin/env bash
# Builds dplearn-serve and the servebench program from the checkout this
# is run in (from its root), then runs servebench once; every argument is
# passed on, e.g.
#
#   bash _servebench/run.sh --workload durable-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/dplearn-serve ] || [ ! -f _servebench/go.mod ]; then
  echo "servebench: run from the repository root (needs go.mod, cmd/dplearn-serve and _servebench/)" >&2
  exit 2
fi

out="$PWD/.bench_build/servebench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$out/bin" "$GOTMPDIR"
go build -o "$out/bin/dplearn-serve" ./cmd/dplearn-serve
(cd _servebench && go build -o "$out/bin/servebench" .)
exec "$out/bin/servebench" -serve-bin "$out/bin/dplearn-serve" -out "$out" "$@"
