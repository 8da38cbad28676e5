/**
 * @file
 * Dump the generated C++ of a paper app to stdout.  Used by
 * scripts/check_vectorize.sh to feed the emitted kernel through the
 * host compiler's vectorisation report, and handy for eyeballing what
 * the codegen produces:
 *
 *   ./polymage_dump_source harris [rows cols] > harris.gen.cpp
 *
 * `--jit-flags` prints the compiler flags the JIT builds every unit
 * with (rt::jitFlags), so a script compiles the dump as the JIT would.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apps/apps.hpp"
#include "driver/compiler.hpp"
#include "runtime/jit.hpp"

using namespace polymage;

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "harris";
    if (app == "--jit-flags") {
        std::string line;
        for (const auto &f : rt::jitFlags())
            line += (line.empty() ? "" : " ") + f;
        std::printf("%s\n", line.c_str());
        return 0;
    }
    const std::int64_t r = argc > 2 ? std::atoll(argv[2]) : 2048;
    const std::int64_t c = argc > 3 ? std::atoll(argv[3]) : 2048;

    dsl::PipelineSpec spec("unset");
    if (app == "harris")
        spec = apps::buildHarris(r, c);
    else if (app == "unsharp")
        spec = apps::buildUnsharpMask(r, c);
    else if (app == "bilateral")
        spec = apps::buildBilateralGrid(r, c);
    else if (app == "camera")
        spec = apps::buildCameraPipeline(r, c);
    else if (app == "pyramid")
        spec = apps::buildPyramidBlend(r, c, 4);
    else {
        std::fprintf(stderr,
                     "usage: %s {harris|unsharp|bilateral|camera|"
                     "pyramid} [rows cols]\n       %s --jit-flags\n",
                     argv[0], argv[0]);
        return 2;
    }

    auto compiled = compilePipeline(spec);
    const auto &code = compiled.code;

    // Vectorisation header: what the explicit emitter chose, so a dump
    // is self-describing (docs/VECTORIZATION.md).
    std::printf("// %s: vectorize=%s", app.c_str(),
                code.vectorizeMode.c_str());
    if (code.vectorizeMode == "explicit") {
        std::printf(" isa=%s bits=%d", code.vectorIsa.c_str(),
                    code.vectorBits);
        std::printf(" explicit_nests=%d/%d", code.explicitNests,
                    code.interiorNests);
        for (const auto &gv : code.groupVector)
            if (gv.lanes > 0)
                std::printf(" g%d=%sx%d", gv.group, gv.elem.c_str(),
                            gv.lanes);
    }
    std::printf("\n// narrowed:");
    if (code.narrowedStages.empty()) {
        std::printf(" none");
    } else {
        for (const auto &s : code.narrowedStages)
            std::printf(" %s", s.c_str());
    }
    std::printf("\n");
    std::fputs(code.source.c_str(), stdout);
    return 0;
}
