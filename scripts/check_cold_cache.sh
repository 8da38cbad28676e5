#!/usr/bin/env bash
# Tier-1 from a cold and from a warm JIT cache, CI-friendly (exit
# nonzero on failure): run the ctest suite once with
# POLYMAGE_JIT_CACHE_DIR pointing at a fresh empty directory, so every
# pipeline the tests build goes through the compiler, then once more
# against the same directory, now populated, so every build is a cache
# hit.  A failure that only one cache state shows cannot hide behind
# the other.  Any change to the generated code changes every cache key,
# so such a change is exactly when the cold run matters.
#
# Usage: scripts/check_cold_cache.sh [ctest args...]
#
# Builds first.  The ctest args default to `-j <nproc>
# --output-on-failure`.  Honours POLYMAGE_BUILD_DIR (defaults to
# build).  POLYMAGE_JIT_CACHE is ignored: both runs use the cache.

set -eu
cd "$(dirname "$0")/.."

build_dir="${POLYMAGE_BUILD_DIR:-build}"
cmake -B "$build_dir" -S . >/dev/null
cmake --build "$build_dir" -j "$(nproc)" >/dev/null

cache=$(mktemp -d)
trap 'rm -rf "$cache"' EXIT
unset POLYMAGE_JIT_CACHE

if [ "$#" -eq 0 ]; then
    set -- -j "$(nproc)" --output-on-failure
fi

status=0
for run in cold warm; do
    echo "check_cold_cache: $run run (JIT cache $cache)"
    start=$(date +%s)
    if ! (cd "$build_dir" && POLYMAGE_JIT_CACHE_DIR="$cache" ctest "$@"); then
        echo "check_cold_cache: tier-1 failed from a $run JIT cache" >&2
        status=1
    fi
    echo "check_cold_cache: $run run took $(( $(date +%s) - start )) s"
done
if [ "$status" -eq 0 ]; then
    echo "check_cold_cache: OK (tier-1 green from a cold and a warm" \
         "JIT cache)"
fi
exit "$status"
