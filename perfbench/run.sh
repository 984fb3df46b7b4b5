#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it with the given flags:
#
#   bash perfbench/run.sh --workload monitor-serial --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and the benchmark's scratch stores
# all live under $CARGO_TARGET_DIR (default .bench_build at the checkout
# root), so the benchmark reads and writes nothing outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# The commit, or outside a git checkout a digest of the source files.
if ! commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	commit=sources-sha256:$(cd "$root" && find . \( -path "./.git" -o -path "./${out#"$root"/}" \) -prune -o -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
fi

(
	cd "$here"
	GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config \
		GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off \
		go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" --out "$out" --commit "$commit" "$@"
