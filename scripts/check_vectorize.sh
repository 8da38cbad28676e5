#!/usr/bin/env bash
# Verify the vectorisation contract of the generated code, CI-friendly
# (exit nonzero on failure), in all three modes of
# CodegenOptions::vectorize (driven via the POLYMAGE_VECTORIZE env
# override that compilePipeline honours):
#
#   explicit (default) -- the dumped source must carry pm_v_ typedefs
#       and typed vector loop bodies, and the compiled object code must
#       contain wide SIMD register traffic (zmm/ymm, or xmm on narrow
#       hosts).  A silent fallback to scalar code fails the check.  The
#       scalar remainder loops (under `#pragma omp simd if(0)`) must
#       get no vectorisation report.
#   pragma -- `#pragma omp simd` on interior loops, no pm_v_ types, and
#       the host compiler's vectorisation report must confirm that the
#       interior loop of a representative stencil store (the first
#       Sobel pass of Harris, `scr_Ix`) auto-vectorised.
#   off -- neither pragmas nor vector types; still builds.
#
# Every build uses the JIT's own flags, as `polymage_dump_source
# --jit-flags` prints them, so the check covers the build that ships.
#
# Usage: scripts/check_vectorize.sh [app] [store-pattern]
#
# Defaults to `harris` / `scr_Ix[`.  Honours CXX (defaults to c++) and
# POLYMAGE_BUILD_DIR (defaults to build).

set -eu
cd "$(dirname "$0")/.."

app="${1:-harris}"
pattern="${2:-scr_Ix[}"
build_dir="${POLYMAGE_BUILD_DIR:-build}"
cxx="${CXX:-c++}"

cmake -B "$build_dir" -S . >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target polymage_dump_source \
    >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

dump="$build_dir/tools/polymage_dump_source"
# The flags the JIT builds every unit with (rt::jitFlags).
jit_flags=$("$dump" --jit-flags)
if [ -z "$jit_flags" ]; then
    echo "check_vectorize: polymage_dump_source printed no JIT flags" >&2
    exit 1
fi
flags="-shared $jit_flags"

# ---- explicit mode (the default) --------------------------------------
gen="$tmp/$app.explicit.cpp"
POLYMAGE_VECTORIZE=explicit "$dump" "$app" > "$gen"

if ! grep -q "typedef.*vector_size" "$gen"; then
    echo "check_vectorize: explicit mode emitted no vector typedefs" >&2
    exit 1
fi
nvec=$(grep -c "pm_v_" "$gen" || true)
if [ "$nvec" -lt 4 ]; then
    echo "check_vectorize: explicit mode barely uses vector types" \
         "($nvec mentions) -- silent scalar fallback?" >&2
    exit 1
fi

# The scalar remainder of every explicit nest is a loop under
# `#pragma omp simd if(0)`; the compiler must not vectorise it.  Lines
# of those loops: from the line after the pragma to its closing brace.
remainder_lines=$(awk '
    /#pragma omp simd if\(0\)/ { start = NR + 1; depth = 0; next }
    start && NR >= start {
        print NR
        depth += gsub(/\{/, "{") - gsub(/\}/, "}")
        if (depth <= 0 && NR > start) start = 0
    }' "$gen")
if [ -z "$remainder_lines" ]; then
    echo "check_vectorize: explicit mode emitted no scalar remainder" \
         "loops under omp simd if(0)" >&2
    exit 1
fi
log="$tmp/vec.explicit.log"
if "$cxx" --version | head -1 | grep -qi clang; then
    # shellcheck disable=SC2086
    "$cxx" $flags -Rpass=loop-vectorize -o "$tmp/$app.explicit.so" \
        "$gen" 2> "$log" || { cat "$log" >&2; exit 1; }
else
    # shellcheck disable=SC2086
    "$cxx" $flags "-fopt-info-vec-optimized=$log" \
        -o "$tmp/$app.explicit.so" "$gen"
fi
nrem=$(echo "$remainder_lines" | awk 'prev != $1 - 1 { n++ } { prev = $1 }
    END { print n }')
for l in $remainder_lines; do
    if grep -E ":$l:[0-9]+:.*(loop vectorized|vectorized loop)" "$log" \
        >/dev/null; then
        echo "check_vectorize: scalar remainder loop (line $l) was" \
             "vectorised in explicit mode; report follows" >&2
        grep -E ":$l:" "$log" >&2
        exit 1
    fi
done
asm="$tmp/$app.explicit.asm"
objdump -d "$tmp/$app.explicit.so" > "$asm"
wide=$(grep -cE '%(zmm|ymm)' "$asm" || true)
narrow=$(grep -cE '%xmm' "$asm" || true)
if [ "$wide" -eq 0 ] && [ "$narrow" -eq 0 ]; then
    echo "check_vectorize: no SIMD register traffic in explicit-mode" \
         "object code -- scalar fallback" >&2
    exit 1
fi
# If the generated source declares >=32-byte vectors, insist the object
# code actually uses wide (ymm/zmm) registers.
if grep -qE 'vector_size\((32|64)' "$gen" && [ "$wide" -eq 0 ]; then
    echo "check_vectorize: source declares wide vectors but object" \
         "code has no ymm/zmm instructions" >&2
    exit 1
fi

# ---- pragma mode ------------------------------------------------------
gen="$tmp/$app.pragma.cpp"
POLYMAGE_VECTORIZE=pragma "$dump" "$app" > "$gen"
if ! grep -q "#pragma omp simd" "$gen"; then
    echo "check_vectorize: pragma mode emitted no omp simd pragmas" >&2
    exit 1
fi
if grep -q "pm_v_" "$gen"; then
    echo "check_vectorize: pragma mode leaked explicit vector types" >&2
    exit 1
fi

# Line of the representative interior store (skip the declaration).
line=$(grep -nF "$pattern" "$gen" | grep "] = " | head -1 | cut -d: -f1)
if [ -z "$line" ]; then
    echo "check_vectorize: no store matching '$pattern' in generated" \
         "$app source" >&2
    exit 1
fi

log="$tmp/vec.log"
if "$cxx" --version | head -1 | grep -qi clang; then
    # shellcheck disable=SC2086
    "$cxx" $flags -Rpass=loop-vectorize -o "$tmp/$app.pragma.so" \
        "$gen" 2> "$log" || { cat "$log" >&2; exit 1; }
    ok=$(grep -c "vectorized loop" "$log" || true)
else
    # shellcheck disable=SC2086
    "$cxx" $flags "-fopt-info-vec-optimized=$log" \
        -o "$tmp/$app.pragma.so" "$gen"
    ok=$(grep -c "loop vectorized" "$log" || true)
fi
if [ "$ok" -eq 0 ]; then
    echo "check_vectorize: compiler vectorised no loops in pragma" \
         "mode" >&2
    exit 1
fi

# The report points into the loop body; accept the for-line, the store
# line, or the line after (compilers differ in the location they pick).
found=0
for l in $((line - 1)) "$line" $((line + 1)); do
    if grep -q ":$l:.*vectoriz" "$log"; then
        found=1
        break
    fi
done
if [ "$found" -eq 0 ]; then
    echo "check_vectorize: interior loop of '$pattern' stage (line" \
         "$line) did not auto-vectorise in pragma mode; report" \
         "follows" >&2
    cat "$log" >&2
    exit 1
fi

# ---- off mode ---------------------------------------------------------
gen="$tmp/$app.off.cpp"
POLYMAGE_VECTORIZE=off "$dump" "$app" > "$gen"
if grep -qE "#pragma omp simd|pm_v_" "$gen"; then
    echo "check_vectorize: off mode still emits vector pragmas or" \
         "types" >&2
    exit 1
fi
# shellcheck disable=SC2086
"$cxx" $flags -o "$tmp/$app.off.so" "$gen"

echo "check_vectorize: OK (flags: $jit_flags; explicit: $nvec pm_v_ mentions," \
     "$wide wide-register instrs, $nrem scalar remainders kept scalar;" \
     "pragma: '$pattern' interior loop" \
     "auto-vectorised, $ok loops total; off: scalar build clean)"
