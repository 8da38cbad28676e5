#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "apps/apps.hpp"
#include "machine/machine.hpp"
#include "runtime/executor.hpp"
#include "runtime/synth.hpp"

namespace polymage::rt {
namespace {

/** Build + profile unsharp mask at a small size, instrumented. */
Executable
buildInstrumentedUnsharp(std::int64_t n)
{
    auto spec = apps::buildUnsharpMask(n, n);
    CompileOptions opts;
    opts.codegen.instrument = true;
    return Executable::build(spec, opts);
}

TEST(Profile, OneEntryPerGroupWithNonzeroTime)
{
    const std::int64_t n = 256;
    Executable exe = buildInstrumentedUnsharp(n);
    Buffer in = synth::photoRgb(n + 4, n + 4);
    TaskProfile prof = exe.profile({n, n}, {&in});

    const auto &groups = exe.info().grouping.groups;
    ASSERT_GT(groups.size(), 0u);
    ASSERT_EQ(prof.groups.size(), groups.size());

    double attributed = 0.0;
    long long tasks = 0;
    for (std::size_t gi = 0; gi < prof.groups.size(); ++gi) {
        const auto &gp = prof.groups[gi];
        EXPECT_EQ(gp.group, int(gi));
        EXPECT_FALSE(gp.stages.empty());
        // Unsharp has no serial stages: every group records parallel
        // tasks and a strictly positive wall time.
        EXPECT_GT(gp.tasks, 0) << "group " << gi << " (" << gp.stages
                               << ")";
        EXPECT_GT(gp.seconds, 0.0) << "group " << gi;
        attributed += gp.seconds;
        tasks += gp.tasks;
    }
    // The rollup is a partition of the flat task stream.
    EXPECT_EQ(tasks, (long long)prof.costs.size());
    EXPECT_NEAR(attributed, prof.totalSeconds() - prof.serialSeconds,
                1e-9 + 0.01 * prof.totalSeconds());

    // The group labels name real (post-inlining) stages.
    const auto &g = exe.info().graph;
    std::set<std::string> stage_names;
    for (std::size_t s = 0; s < g.stages().size(); ++s)
        stage_names.insert(g.stage(int(s)).name());
    for (const auto &gp : prof.groups) {
        std::istringstream is(gp.stages);
        std::string name;
        while (is >> name)
            EXPECT_TRUE(stage_names.count(name)) << name;
    }
}

TEST(Profile, RuntimeJsonFollowsSchema)
{
    const std::int64_t n = 128;
    Executable exe = buildInstrumentedUnsharp(n);
    Buffer in = synth::photoRgb(n + 4, n + 4);
    TaskProfile prof = exe.profile({n, n}, {&in});

    const std::string json = prof.toJson();
    EXPECT_NE(json.find("\"schema\":\"polymage-runtime-v1\""),
              std::string::npos);
    // serial_seconds is optional: unsharp has no serial stages, so the
    // zero-valued field is omitted rather than reporting a misleading
    // measured 0.
    EXPECT_EQ(prof.serialSeconds, 0.0);
    EXPECT_EQ(json.find("\"serial_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"groups\":["), std::string::npos);
    EXPECT_NE(json.find("\"stages\""), std::string::npos);
}

TEST(Profile, ExecutableTraceIncludesCompileAndJitSpans)
{
    Executable exe = buildInstrumentedUnsharp(64);
    std::set<std::string> names;
    for (const auto &s : exe.trace())
        names.insert(s.name);
    for (const char *phase : {"graph_build", "grouping", "storage",
                              "codegen", "jit"}) {
        EXPECT_TRUE(names.count(phase)) << "missing span " << phase;
    }
    // The driver-only view on info() excludes the jit span.
    std::set<std::string> driver_names;
    for (const auto &s : exe.info().trace)
        driver_names.insert(s.name);
    EXPECT_FALSE(driver_names.count("jit"));
    EXPECT_TRUE(driver_names.count("codegen"));
}

TEST(Profile, TileModelRecordNamesTheMachineOnlyWhenTheModelRan)
{
    // Auto-tiling off: the model never ran, so its record carries no
    // machine (it used to hold a default-constructed one).
    CompileOptions fixed;
    fixed.grouping.autoTile = false;
    const auto off = compilePipeline(apps::buildHarris(256, 256), fixed);
    const std::string none = off.tileModel.toJson();
    EXPECT_NE(none.find("\"applied\":false"), std::string::npos) << none;
    EXPECT_EQ(none.find("\"machine\""), std::string::npos) << none;

    // Auto-tiling on: the probed machine the model sized for.
    const auto on = compilePipeline(apps::buildHarris(256, 256),
                                    CompileOptions::optimized());
    const std::string probed = on.tileModel.toJson();
    EXPECT_NE(probed.find("\"machine\":" + machine::machineInfo().toJson()),
              std::string::npos)
        << probed;
}

} // namespace
} // namespace polymage::rt
