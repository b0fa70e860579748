#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload evaluate --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and trace files go to $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/tmp"
(
	cd "$(dirname "$0")"
	GOCACHE=$out/go-cache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
		GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
