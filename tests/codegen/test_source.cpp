/**
 * @file
 * Structural checks on the generated C++ for Harris corner detection
 * against the shape of the paper's Figure 7: OpenMP-parallel tile
 * loops, thread-private scratchpads, clamped per-level bounds,
 * vectorisation pragmas, and a single full allocation for the
 * live-out.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <thread>

#include "apps/apps.hpp"
#include "driver/compiler.hpp"

#include "common/test_pipelines.hpp"

namespace polymage::cg {
namespace {

int
countOccurrences(const std::string &hay, const std::string &needle)
{
    int n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size())) {
        ++n;
    }
    return n;
}

class HarrisSource : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        compiled_ = new CompiledPipeline(
            compilePipeline(apps::buildHarris(2048, 2048)));
    }
    static void TearDownTestSuite()
    {
        delete compiled_;
        compiled_ = nullptr;
    }

    const std::string &src() const { return compiled_->code.source; }

    static CompiledPipeline *compiled_;
};

CompiledPipeline *HarrisSource::compiled_ = nullptr;

TEST_F(HarrisSource, EntrySymbolAndAbi)
{
    EXPECT_EQ(compiled_->code.entry, "polymage_harris");
    EXPECT_NE(src().find("extern \"C\" void polymage_harris(const long "
                         "long *params"),
              std::string::npos);
}

TEST_F(HarrisSource, ParallelTileLoop)
{
    // One fused group: exactly one parallel tile loop (Fig. 7's Ti).
    EXPECT_EQ(countOccurrences(src(), "#pragma omp parallel for"), 1);
    EXPECT_NE(src().find("for (long long T0 ="), std::string::npos);
    EXPECT_NE(src().find("for (long long T1 ="), std::string::npos);
}

TEST_F(HarrisSource, ScratchpadsAreThreadPrivateArrays)
{
    // Five scratchpads: Ix, Iy, Sxx, Syy, Sxy (Fig. 7).
    EXPECT_EQ(countOccurrences(src(), "float scr_"), 5);
    EXPECT_NE(src().find("float scr_Ix["), std::string::npos);
    EXPECT_NE(src().find("float scr_Sxx["), std::string::npos);
    // Relative indexing against per-tile origins.
    EXPECT_NE(src().find("ob_Ix_0"), std::string::npos);
    // The live-out is written through the full buffer.
    EXPECT_NE(src().find("buf_harris["), std::string::npos);
    // No heap allocation for intermediates (all scratchpads).
    EXPECT_EQ(src().find("std::malloc"), std::string::npos);
}

TEST_F(HarrisSource, ClampedBoundsLikeFigure7)
{
    // Bounds combine domain clamps with tile regions via min/max.
    EXPECT_GT(countOccurrences(src(), "pm_max_i"), 5);
    EXPECT_GT(countOccurrences(src(), "pm_min_i"), 5);
}

TEST_F(HarrisSource, VectorisationModes)
{
    // Explicit (the default): typed vector bodies on interior nests.
    EXPECT_GT(countOccurrences(src(), "pm_v_"), 0);
    EXPECT_GT(compiled_->code.explicitNests, 0);
    EXPECT_EQ(compiled_->code.vectorizeMode, "explicit");

    // Pragma: the pre-explicit path, `omp simd` and no vector types.
    CompileOptions pragma_mode;
    pragma_mode.grouping.autoTile = true;
    pragma_mode.codegen.vectorize = VectorizeMode::Pragma;
    auto p = compilePipeline(apps::buildHarris(256, 256), pragma_mode);
    EXPECT_GT(countOccurrences(p.code.source, "#pragma omp simd"), 0);
    EXPECT_EQ(countOccurrences(p.code.source, "pm_v_"), 0);

    // Off: scalar, neither pragmas nor vector types.
    CompileOptions novec = CompileOptions::optNoVec();
    auto c = compilePipeline(apps::buildHarris(256, 256), novec);
    EXPECT_EQ(countOccurrences(c.code.source, "#pragma omp simd"), 0);
    EXPECT_EQ(countOccurrences(c.code.source, "pm_v_"), 0);
}

TEST_F(HarrisSource, BaselineHasNoTilesOrScratchpads)
{
    auto c = compilePipeline(apps::buildHarris(256, 256),
                             CompileOptions::baseline(true));
    EXPECT_EQ(c.code.source.find("scr_"), std::string::npos);
    EXPECT_EQ(c.code.source.find("for (long long T0"),
              std::string::npos);
    // Six parallel loops: one per remaining stage case.
    EXPECT_GT(countOccurrences(c.code.source, "#pragma omp parallel"),
              5);
}

TEST_F(HarrisSource, InstrumentedEntryOnlyOnRequest)
{
    EXPECT_EQ(src().find("_pm_instr"), std::string::npos);
    CompileOptions opts;
    opts.codegen.instrument = true;
    auto c = compilePipeline(apps::buildHarris(256, 256), opts);
    EXPECT_EQ(c.code.instrEntry, "polymage_harris_pm_instr");
    EXPECT_NE(c.code.source.find("polymage_harris_pm_instr"),
              std::string::npos);
    EXPECT_NE(c.code.source.find("pm_record"), std::string::npos);
}

TEST_F(HarrisSource, ReportMentionsPhases)
{
    const std::string rep = compiled_->report();
    EXPECT_NE(rep.find("grouping"), std::string::npos);
    EXPECT_NE(rep.find("scratchpad"), std::string::npos);
    EXPECT_NE(rep.find("inlined"), std::string::npos);
}

} // namespace
} // namespace polymage::cg

namespace polymage::cg {
namespace {

TEST(CodegenFeatures, StorageOptOffSpillsToFullBuffers)
{
    CompileOptions opts;
    opts.codegen.storageOpt = false;
    auto c = compilePipeline(apps::buildHarris(256, 256), opts);
    // Tiling still happens, but no scratchpads: intermediates become
    // full buffers serviced by the executor's slot array.
    EXPECT_NE(c.code.source.find("for (long long T0"),
              std::string::npos);
    EXPECT_EQ(c.code.source.find("scr_"), std::string::npos);
    EXPECT_NE(c.code.source.find("pm_slots["), std::string::npos);
    EXPECT_EQ(c.code.source.find("std::malloc"), std::string::npos);
}

TEST(CodegenFeatures, HeapScratchHoistedOutOfTileLoop)
{
    // Forcing every scratchpad to the heap must not reintroduce
    // per-tile allocation: the arena is carved once per thread before
    // the tile loop and every allocation goes through the 64-byte
    // aligned pm_alloc helper.
    CompileOptions opts;
    opts.codegen.maxStackScratchBytes = 0;
    auto c = compilePipeline(apps::buildHarris(2048, 2048), opts);
    const std::string &src = c.code.source;
    EXPECT_EQ(src.find("std::malloc"), std::string::npos);
    const std::size_t arena = src.find("pm_arena_g");
    const std::size_t tile = src.find("for (long long T0");
    ASSERT_NE(arena, std::string::npos);
    ASSERT_NE(tile, std::string::npos);
    EXPECT_LT(arena, tile); // hoisted before the tile loop
    EXPECT_NE(src.find("pm_alloc("), std::string::npos);
    EXPECT_GT(c.code.heapArenaBytes, 0);
}

TEST(CodegenFeatures, StackScratchpadsAreCacheAligned)
{
    auto c = compilePipeline(apps::buildHarris(2048, 2048));
    EXPECT_NE(c.code.source.find("alignas(64) float scr_"),
              std::string::npos);
}

/** Entry-function body (the prelude helpers legitimately carry ifs). */
std::string
entryBodyOf(const CompiledPipeline &c)
{
    const std::size_t pos = c.code.source.find("extern \"C\"");
    EXPECT_NE(pos, std::string::npos);
    return c.code.source.substr(pos);
}

TEST(GoldenInterior, AppsEmitGuardFreeInnermostLoops)
{
    // Every case condition of these apps folds into loop bounds or
    // strided residue loops: the generated entries must contain no
    // per-point `if` -- the interior innermost loops are dense and
    // branch-free (ISSUE: guard-free interior codegen).  The only
    // branches permitted are the per-row masked-epilogue guards (one
    // `if` introducing each `pm_vskip` masked final vector iteration);
    // with the epilogue ablated the bodies must be entirely `if`-free.
    struct App
    {
        const char *name;
        dsl::PipelineSpec spec;
    };
    for (const App &a : {App{"harris", apps::buildHarris(1024, 1024)},
                   App{"unsharp", apps::buildUnsharpMask(512, 512)},
                   App{"pyramid", apps::buildPyramidBlend(512, 512, 3)}}) {
        SCOPED_TRACE(a.name);
        auto c = compilePipeline(a.spec);
        const std::string body = entryBodyOf(c);
        EXPECT_EQ(countOccurrences(body, "if ("),
                  countOccurrences(body, "const int pm_vskip"));
        // Each of those branches is the tagged per-row tail guard
        // (`if (pm_tail)`), distinguishable from per-point guards.
        EXPECT_EQ(countOccurrences(body, "if ("),
                  countOccurrences(body, "if (pm_tail)"));
        // The census counts every nest of the pipeline; the source
        // defines alpha-equivalent nests once.
        EXPECT_GT(countOccurrences(body, "const int pm_vskip"), 0);
        EXPECT_LE(countOccurrences(body, "const int pm_vskip"),
                  c.code.maskedEpilogues);
        EXPECT_EQ(c.code.guardedNests, 0);
        EXPECT_DOUBLE_EQ(c.code.interiorFraction(), 1.0);

        CompileOptions scalar_tail;
        scalar_tail.codegen.maskedEpilogue = false;
        auto s = compilePipeline(a.spec, scalar_tail);
        EXPECT_EQ(countOccurrences(entryBodyOf(s), "if ("), 0);
        EXPECT_EQ(s.code.maskedEpilogues, 0);
    }
}

TEST(GoldenInterior, StoresIndexOffHoistedBases)
{
    // With invariant hoisting on (the default), no store statement
    // re-multiplies a full row-major stride per point: the prefix
    // lives in a pm_base local declared before the innermost loop.
    struct App
    {
        const char *name;
        dsl::PipelineSpec spec;
    };
    for (const App &a : {App{"harris", apps::buildHarris(1024, 1024)},
                   App{"unsharp", apps::buildUnsharpMask(512, 512)},
                   App{"pyramid", apps::buildPyramidBlend(512, 512, 3)}}) {
        SCOPED_TRACE(a.name);
        auto c = compilePipeline(a.spec);
        const std::string body = entryBodyOf(c);
        EXPECT_NE(body.find("const long long pm_base"),
                  std::string::npos);
        std::size_t pos = 0;
        int stores = 0;
        while ((pos = body.find("] = (", pos)) != std::string::npos) {
            const std::size_t bol = body.rfind('\n', pos) + 1;
            const std::size_t eol = body.find('\n', pos);
            const std::string line = body.substr(bol, eol - bol);
            EXPECT_EQ(line.find("* st_"), std::string::npos) << line;
            ++stores;
            pos = eol;
        }
        EXPECT_GT(stores, 0);
    }
}

TEST(CodegenUnits, FunctionsPackedIntoUnitsWithEntriesInUnitZero)
{
    const std::size_t cores =
        std::max(1u, std::thread::hardware_concurrency());
    // Units follow the estimated compile cost, not the group count:
    // Unsharp's one fused group (three stage nests) uses a second core
    // when there is one.
    auto unsharp = compilePipeline(apps::buildUnsharpMask(2048, 2048));
    if (cores > 1) {
        EXPECT_GT(unsharp.code.units.size(), 1u);
    } else {
        EXPECT_EQ(unsharp.code.units.size(), 1u);
    }
    EXPECT_NE(unsharp.code.units[0].find("extern \"C\" void "
                                         "polymage_unsharp_mask("),
              std::string::npos);
    EXPECT_EQ(unsharp.code.unitCosts.size(), unsharp.code.units.size());

    // A many-group pipeline spreads over up to hardware_concurrency()
    // units; the entry lives in unit 0, every unit compiles alone
    // (prelude first), and each function is defined exactly once.
    auto c = compilePipeline(apps::buildPyramidBlend(2048, 2048, 4));
    const auto &units = c.code.units;
    EXPECT_LE(units.size(), cores);
    if (cores > 1)
        EXPECT_GT(units.size(), 1u);
    const std::string prelude = "// Generated by PolyMage-cpp.";
    int entries = 0;
    for (std::size_t u = 0; u < units.size(); ++u) {
        EXPECT_EQ(units[u].rfind(prelude, 0), 0u) << "unit " << u;
        EXPECT_EQ(units[u].find("#include <cmath>"), std::string::npos);
        entries += countOccurrences(units[u], "extern \"C\"");
        if (u == 0)
            EXPECT_EQ(entries, 1);
    }
    EXPECT_EQ(entries, 1);
    // Hidden functions: declared lines end in ';', definitions do not.
    auto hidden = [](const std::string &text, bool decls) {
        int n = 0;
        std::size_t bol = 0;
        while (bol < text.size()) {
            const std::size_t eol = text.find('\n', bol);
            const std::string line = text.substr(bol, eol - bol);
            if (line.rfind("PM_FN ", 0) == 0 &&
                (line.back() == ';') == decls)
                ++n;
            bol = eol == std::string::npos ? text.size() : eol + 1;
        }
        return n;
    };
    int defined = 0;
    for (const auto &unit : units)
        defined += hidden(unit, false);
    EXPECT_GT(defined, 20);
    EXPECT_EQ(defined, hidden(c.code.source, false));
    EXPECT_EQ(defined, hidden(c.code.source, true));
}

/** The lines of @p text, without their leading spaces. */
std::vector<std::string>
trimmedLines(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t bol = 0;
    while (bol < text.size()) {
        const std::size_t eol = std::min(text.find('\n', bol), text.size());
        std::string line = text.substr(bol, eol - bol);
        line.erase(0, line.find_first_not_of(' '));
        out.push_back(std::move(line));
        bol = eol + 1;
    }
    return out;
}

TEST(CodegenUnits, ExplicitRemaindersStayScalar)
{
    // Every explicit nest's scalar remainder is a canonical loop under
    // `omp simd if(0)`, so g++ does not vectorise it a second time.
    for (bool masked : {true, false}) {
        CompileOptions opts;
        opts.codegen.maskedEpilogue = masked;
        for (const auto &spec :
             {apps::buildHarris(1024, 1024), apps::buildUnsharpMask(512, 512),
              apps::buildPyramidBlend(512, 512, 3),
              apps::buildCameraPipeline(2528, 1920)}) {
            SCOPED_TRACE(spec.name() + (masked ? " masked" : " scalar"));
            const auto c = compilePipeline(spec, opts);
            const std::string &src = c.code.source;
            const int remainders =
                countOccurrences(src, "#pragma omp simd if(0)\n");
            EXPECT_GT(remainders, 0);
            // One remainder per explicit main loop (`for (; `).
            EXPECT_EQ(remainders, countOccurrences(src, "for (; "));
            EXPECT_EQ(remainders,
                      countOccurrences(src, "const int pm_rem = "));
            const auto lines = trimmedLines(src);
            for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
                if (lines[i] != "#pragma omp simd if(0)")
                    continue;
                EXPECT_EQ(lines[i + 1].rfind("for (int ", 0), 0u)
                    << lines[i + 1];
                EXPECT_NE(lines[i + 1].find(" = pm_rem; "),
                          std::string::npos)
                    << lines[i + 1];
            }
        }
    }
}

/** Each hidden function @p source defines, header to closing brace. */
std::vector<std::string>
hiddenDefinitions(const std::string &source)
{
    std::vector<std::string> out;
    for (std::size_t pos = source.find("\nPM_FN "); pos != std::string::npos;
         pos = source.find("\nPM_FN ", pos + 1)) {
        const std::size_t eol = source.find('\n', pos + 1);
        if (source[eol - 1] == ';')
            continue; // a declaration
        const std::size_t end = source.find("\n}\n", pos);
        out.push_back(source.substr(pos + 1, end + 2 - pos));
    }
    return out;
}

/**
 * @p fn without comments, with every name that is not a keyword, a
 * called name, a builtin or a vector type replaced by the order of its
 * first occurrence: equal for alpha-equivalent functions.
 */
std::string
alphaNormal(const std::string &fn)
{
    static const std::set<std::string> kept = {
        "alignas", "bool", "char", "const", "double", "else", "float",
        "for", "if", "int", "long", "return", "short", "signed",
        "unsigned", "void", "PM_FN", "std"};
    std::map<std::string, int> names;
    std::string out;
    for (std::size_t i = 0; i < fn.size();) {
        const char c = fn[i];
        if (c == '/' && fn.compare(i, 2, "//") == 0) {
            i = fn.find('\n', i);
            continue;
        }
        if (!std::isalpha(static_cast<unsigned char>(c)) && c != '_') {
            std::size_t j = i + 1;
            if (std::isdigit(static_cast<unsigned char>(c)))
                while (j < fn.size() &&
                       (std::isalnum(static_cast<unsigned char>(fn[j])) ||
                        fn[j] == '.' || fn[j] == '_'))
                    ++j;
            out += fn.substr(i, j - i);
            i = j;
            continue;
        }
        std::size_t j = i;
        while (j < fn.size() &&
               (std::isalnum(static_cast<unsigned char>(fn[j])) ||
                fn[j] == '_'))
            ++j;
        const std::string id = fn.substr(i, j - i);
        const bool called = j < fn.size() && fn[j] == '(';
        const bool own = out.rfind("PM_FN ", 0) == 0 && called &&
                         out.find('(') == std::string::npos;
        if (own)
            out += "@self";
        else if (called || kept.count(id) || id.rfind("__", 0) == 0 ||
                 id.rfind("pm_v_", 0) == 0)
            out += id;
        else
            out += "@" + std::to_string(
                             names.emplace(id, int(names.size()))
                                 .first->second);
        i = j;
    }
    return out;
}

TEST(CodegenUnits, AlphaEquivalentFunctionsDefinedOnce)
{
    // Pyramid Blending builds the same pyramid three times (A, B and
    // the mask): their nest functions differ only in names, so each is
    // defined once and called by all three groups.
    auto c = compilePipeline(apps::buildPyramidBlend(2048, 2048, 4));
    const auto defs = hiddenDefinitions(c.code.source);
    std::set<std::string> normal;
    for (const auto &d : defs)
        EXPECT_TRUE(normal.insert(alphaNormal(d)).second)
            << "defined twice:\n" << d;
    // 49 functions before deduplication: 12 groups, 37 stage nests.
    EXPECT_LE(defs.size(), 30u);
    EXPECT_GE(defs.size(), 12u);
    // Each group's function still exists (their buffers differ), and
    // the B pyramid's first level calls the A pyramid's nests.
    auto body = [&](const std::string &name) {
        for (const auto &d : defs)
            if (d.find("PM_FN void " + name + "(") == 0)
                return d;
        return std::string();
    };
    const std::string g0 = body("pm_g0"), g1 = body("pm_g1");
    ASSERT_FALSE(g0.empty());
    ASSERT_FALSE(g1.empty());
    const std::size_t call = g0.find("pm_g0_s");
    ASSERT_NE(call, std::string::npos);
    const std::string callee = g0.substr(call, g0.find('(', call) - call);
    EXPECT_NE(g1.find(callee + "("), std::string::npos) << callee;
}

TEST(CodegenUnits, TaskArenaDefinedOncePerModule)
{
    // The task entry's per-thread arena is one hidden definition in
    // unit 0, declared by every unit's prelude, however many units
    // call it.
    CompileOptions opts;
    opts.codegen.taskABI = true;
    auto c = compilePipeline(apps::buildLocalLaplacian(1024, 1024), opts);
    const auto &units = c.code.units;
    if (std::thread::hardware_concurrency() > 1) {
        EXPECT_GT(units.size(), 1u);
    }
    int defined = 0;
    for (std::size_t u = 0; u < units.size(); ++u) {
        SCOPED_TRACE(u);
        const int here =
            countOccurrences(units[u], "static thread_local PmArena");
        EXPECT_EQ(here, u == 0 ? 1 : 0);
        defined += here;
        EXPECT_EQ(countOccurrences(units[u], "void *pm_task_arena(long long "
                                             "bytes);"),
                  1);
    }
    EXPECT_EQ(defined, 1);
    EXPECT_EQ(countOccurrences(c.code.source, "thread_local"), 1);
    // Without the task entry there is no arena at all.
    auto plain = compilePipeline(apps::buildLocalLaplacian(1024, 1024));
    EXPECT_EQ(plain.code.source.find("pm_task_arena"), std::string::npos);
}

TEST(CodegenUnits, FusedTileStagesAreOutlinedPerTile)
{
    // Harris's fused group: one tile loop calling one nest function per
    // stage, with scratchpads passed as restrict pointers.
    auto c = compilePipeline(apps::buildHarris(2048, 2048));
    const std::string &src = c.code.source;
    const std::size_t tile = src.find("for (long long T1 =");
    ASSERT_NE(tile, std::string::npos);
    const std::string loop =
        src.substr(tile, src.find("\n    }", tile) - tile);
    EXPECT_EQ(countOccurrences(loop, "pm_g0_s"),
              int(c.graph.stages().size()));
    EXPECT_NE(src.find("float *__restrict scr_Ix"), std::string::npos);
}

TEST(CodegenUnits, OuterSelectsSpecialisedPerChannelAndParity)
{
    // Camera's `processed` selects on the channel c, and the demosaic
    // stages on the row parity x % 2: each outlined nest is split per
    // value so no such select is left for the compiler to unswitch.
    auto c = compilePipeline(apps::buildCameraPipeline(2528, 1920),
                             CompileOptions{});
    EXPECT_EQ(c.code.source.find("(c == "), std::string::npos);
    // Neither parity form is left: the general floor modulo nor the
    // mask a power-of-two modulus renders as.
    EXPECT_EQ(c.code.source.find("pm_floormod((long long)x"),
              std::string::npos);
    EXPECT_EQ(c.code.source.find("(x & 1)"), std::string::npos);
    EXPECT_NE(c.code.source.find("x += 2)"), std::string::npos);
}

TEST(CodegenFeatures, ParityCasesBecomeStridedLoops)
{
    auto c = compilePipeline(apps::buildPyramidBlend(512, 512, 3));
    // Upsampling stages iterate even/odd residue classes with stride-2
    // loops instead of per-point guards.
    EXPECT_NE(c.code.source.find("+= 2)"), std::string::npos);
    EXPECT_EQ(c.code.source.find("pm_floormod((long long)y, (long "
                                 "long)2) == 0"),
              std::string::npos);
    EXPECT_EQ(c.code.source.find("(y & 1) == 0"), std::string::npos);
}

TEST(CodegenFeatures, PowerOfTwoDivModEmitShiftsAndMasks)
{
    // Floor division and modulo by a power-of-two literal are a shift
    // and a mask; other divisors keep the general helpers.
    auto t = polymage::testing::makeFloorDivMod(64, 4);
    auto c = compilePipeline(t.spec);
    EXPECT_NE(c.code.source.find("((x - 7) >> 2)"), std::string::npos);
    EXPECT_NE(c.code.source.find("((x - 7) & 3)"), std::string::npos);
    EXPECT_EQ(c.code.source.find("pm_floordiv((long long)"),
              std::string::npos);
    EXPECT_EQ(c.code.source.find("pm_floormod((long long)"),
              std::string::npos);
    auto odd =
        compilePipeline(polymage::testing::makeFloorDivMod(64, 3).spec);
    EXPECT_NE(odd.code.source.find("pm_floordiv((long long)"),
              std::string::npos);
    EXPECT_NE(odd.code.source.find("pm_floormod((long long)"),
              std::string::npos);
}

/** The line of @p src holding position @p pos, without its indent. */
std::string
lineAt(const std::string &src, std::size_t pos)
{
    const std::size_t begin = src.rfind('\n', pos) + 1; // npos + 1 == 0
    const std::size_t first = src.find_first_not_of(' ', begin);
    return src.substr(first, src.find('\n', first) - first);
}

TEST(CodegenFeatures, ShortLiteralInnerLoopsAreUnrolled)
{
    // Bilateral's grid blurs end in the 2-wide channel axis `cc`:
    // literal bounds, so the generator writes one statement per
    // channel, folds the `cc == 0` selects and vectorises the `gz`
    // loop around them instead.
    auto c = compilePipeline(apps::buildBilateralGrid(1024, 1024));
    const std::string &src = c.code.source;
    for (const char *blur : {"blurz", "blurx", "blury"}) {
        SCOPED_TRACE(blur);
        const std::size_t fn = src.find(std::string("// ") + blur + ",");
        ASSERT_NE(fn, std::string::npos);
        const std::string body = src.substr(fn, src.find("\n}", fn) - fn);
        EXPECT_EQ(body.find("for (int cc "), std::string::npos);
        EXPECT_EQ(body.find("cc == "), std::string::npos);
        const std::size_t gz = body.find("for (int gz ");
        ASSERT_NE(gz, std::string::npos);
        EXPECT_EQ(lineAt(body, body.rfind('\n', gz) - 1),
                  "#pragma omp simd");
        EXPECT_EQ(countOccurrences(body, "buf_" + std::string(blur) + "["),
                  2);
    }
}

TEST(CodegenFeatures, PrivatisedInitAndMergeLoopsAreSimd)
{
    // The private copy's init loop and the merge under `omp critical`
    // are element-wise, so both are vector loops.
    auto t = polymage::testing::makeHistogram(512);
    auto c = compilePipeline(t.spec);
    const std::string &src = c.code.source;
    const std::string loop = "for (long long pm_i = 0;";
    std::vector<std::size_t> at;
    for (std::size_t pos = src.find(loop); pos != std::string::npos;
         pos = src.find(loop, pos + 1)) {
        EXPECT_EQ(lineAt(src, src.rfind('\n', pos) - 1), "#pragma omp simd");
        at.push_back(pos);
    }
    ASSERT_EQ(at.size(), 2u); // init, merge
    const std::size_t critical = src.find("#pragma omp critical");
    EXPECT_LT(at[0], critical);
    EXPECT_GT(at[1], critical);
}

TEST(CodegenFeatures, ReductionsPrivatisedUnderOpenMP)
{
    auto t = polymage::testing::makeHistogram(512);
    auto c = compilePipeline(t.spec);
    EXPECT_NE(c.code.source.find("pm_priv"), std::string::npos);
    EXPECT_NE(c.code.source.find("#pragma omp critical"),
              std::string::npos);

    // Without parallelisation the loop stays sequential and direct.
    CompileOptions serial;
    serial.codegen.parallelize = false;
    auto c2 = compilePipeline(t.spec, serial);
    EXPECT_EQ(c2.code.source.find("pm_priv"), std::string::npos);
}

TEST(CodegenFeatures, SelfRecurrentScanStaysSequentialAndDirect)
{
    auto spec = apps::buildHistogramEq(512, 512);
    auto c = compilePipeline(spec);
    // The cdf scan (self-recurrent) must not be parallelised; the
    // histogram before it is privatised.
    EXPECT_NE(c.code.source.find("pm_priv"), std::string::npos);
    const auto cdf_pos = c.code.source.find("// ---- group");
    EXPECT_NE(cdf_pos, std::string::npos);
}

} // namespace
} // namespace polymage::cg
