#!/usr/bin/env bash
# Builds kairosd and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload rm2-steady --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and traced runs' span files stay
# under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"

# Keep the toolchain's caches and temporary files inside the checkout, offline.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$here" && go build -o "$build/bin/kairosd" kairos/cmd/kairosd && go build -o "$build/bin/e2ebench" .) >&2

commit=unknown
if git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi

workload="" seed=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--workload) workload=${args[i + 1]:-} ;;
	--seed) seed=${args[i + 1]:-} ;;
	esac
done

exec "$build/bin/e2ebench" -kairosd "$build/bin/kairosd" -commit "$commit" \
	-spans "$build/spans/$workload-$seed.json" "$@"
