/**
 * @file
 * End-to-end correctness of generated code: every pipeline is
 * compiled through the full stack (inline, group, tile, storage-map,
 * generate, JIT) under several option sets and compared against the
 * reference interpreter.
 */
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "common/test_pipelines.hpp"
#include "driver/compiler.hpp"
#include "interp/interpreter.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"

namespace polymage::rt {
namespace {

using namespace dsl;

Buffer
randomBuffer(DType t, const std::vector<std::int64_t> &dims,
             std::uint64_t seed)
{
    Buffer b(t, dims);
    Rng rng(seed);
    for (std::int64_t i = 0; i < b.numel(); ++i) {
        if (dtypeIsFloat(t))
            b.storeFromDouble(i, rng.uniformReal(0.0, 1.0));
        else
            b.storeFromDouble(i, double(rng.uniformInt(0, 255)));
    }
    return b;
}

/** Compile+run under opts and compare all outputs to the interpreter. */
void
checkAgainstInterpreter(const PipelineSpec &spec,
                        const std::vector<std::int64_t> &params,
                        const std::vector<const Buffer *> &inputs,
                        const CompileOptions &opts, double tol,
                        const char *label)
{
    SCOPED_TRACE(label);
    auto g = pg::PipelineGraph::build(spec);
    auto ref = interp::evaluate(g, params, inputs);

    Executable exe = Executable::build(spec, opts);
    auto outs = exe.run(params, inputs);
    ASSERT_EQ(outs.size(), ref.outputs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
        ASSERT_EQ(outs[i].dims(), ref.outputs[i].dims());
        EXPECT_LE(outs[i].maxAbsDiff(ref.outputs[i]), tol)
            << "output " << i;
    }
}

struct OptCase
{
    const char *name;
    CompileOptions opts;
};

std::vector<OptCase>
standardVariants()
{
    return {
        {"base", CompileOptions::baseline(false)},
        {"base+vec", CompileOptions::baseline(true)},
        {"opt", CompileOptions::optNoVec()},
        {"opt+vec", CompileOptions::optimized()},
    };
}

class ExecVariants : public ::testing::TestWithParam<int>
{
  protected:
    OptCase variant() const { return standardVariants()[GetParam()]; }
};

TEST_P(ExecVariants, Pointwise)
{
    auto t = testing::makePointwise(48);
    Buffer in = randomBuffer(DType::Float, {48, 40}, 1);
    checkAgainstInterpreter(t.spec, {48, 40}, {&in}, variant().opts,
                            1e-5, variant().name);
}

TEST_P(ExecVariants, BlurChain)
{
    auto t = testing::makeBlurChain(64);
    Buffer in = randomBuffer(DType::Float, {64, 56}, 2);
    checkAgainstInterpreter(t.spec, {64, 56}, {&in}, variant().opts,
                            1e-4, variant().name);
}

TEST_P(ExecVariants, Harris)
{
    auto spec = apps::buildHarris(56, 72);
    Buffer in = randomBuffer(DType::Float, {58, 74}, 3);
    checkAgainstInterpreter(spec, {56, 72}, {&in}, variant().opts, 1e-3,
                            variant().name);
}

TEST_P(ExecVariants, Upsample)
{
    auto t = testing::makeUpsample(70);
    Buffer in = randomBuffer(DType::Float, {70}, 4);
    checkAgainstInterpreter(t.spec, {70}, {&in}, variant().opts, 1e-5,
                            variant().name);
}

TEST_P(ExecVariants, Downsample)
{
    auto t = testing::makeDownsample(70);
    Buffer in = randomBuffer(DType::Float, {70}, 5);
    checkAgainstInterpreter(t.spec, {70}, {&in}, variant().opts, 1e-5,
                            variant().name);
}

TEST_P(ExecVariants, Histogram)
{
    auto t = testing::makeHistogram(40);
    Buffer in = randomBuffer(DType::UChar, {40, 40}, 6);
    checkAgainstInterpreter(t.spec, {40, 40}, {&in}, variant().opts, 0,
                            variant().name);
}

TEST_P(ExecVariants, TimeIterated)
{
    auto t = testing::makeTimeIterated(48, 4);
    Buffer in = randomBuffer(DType::Float, {48}, 7);
    checkAgainstInterpreter(t.spec, {48}, {&in}, variant().opts, 1e-4,
                            variant().name);
}

TEST_P(ExecVariants, FloorDivModNegativeNumerators)
{
    // x - 7 spans -7..56: the power-of-two shift and mask must floor
    // exactly below zero, as the general helpers do for divisor 3.
    for (std::int64_t d : {4, 3}) {
        auto t = testing::makeFloorDivMod(64, d);
        Buffer in = randomBuffer(DType::Float, {64}, 8);
        checkAgainstInterpreter(t.spec, {64}, {&in}, variant().opts, 0,
                                variant().name);
    }
}

std::string
variantName(const ::testing::TestParamInfo<int> &info)
{
    return std::string(standardVariants()[info.param].name) == "base"
               ? "base"
           : info.param == 1 ? "base_vec"
           : info.param == 2 ? "opt"
                             : "opt_vec";
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ExecVariants,
                         ::testing::Range(0, 4), variantName);

/** Parameter independence: one build runs at many sizes correctly. */
TEST(Exec, GeneratedCodeValidForAllSizes)
{
    auto spec = apps::buildHarris(512, 512); // estimates != run sizes
    Executable exe = Executable::build(spec);
    for (std::int64_t n : {17, 33, 64, 100}) {
        Buffer in = randomBuffer(DType::Float, {n + 2, n + 2},
                                 std::uint64_t(n));
        auto g = pg::PipelineGraph::build(spec);
        auto ref = interp::evaluate(g, {n, n}, {&in});
        auto outs = exe.run({n, n}, {&in});
        EXPECT_LE(outs[0].maxAbsDiff(ref.outputs[0]), 1e-3) << n;
    }
}

/** Tile-size sweep: odd sizes, tiny tiles, giant tiles. */
TEST(Exec, TileSizeSweepStaysCorrect)
{
    auto spec = apps::buildHarris(48, 48);
    Buffer in = randomBuffer(DType::Float, {50, 50}, 11);
    auto g = pg::PipelineGraph::build(spec);
    auto ref = interp::evaluate(g, {48, 48}, {&in});
    for (std::int64_t tile : {8, 13, 32, 128}) {
        CompileOptions opts;
        opts.grouping.tileSizes = {tile, tile};
        Executable exe = Executable::build(spec, opts);
        auto outs = exe.run({48, 48}, {&in});
        EXPECT_LE(outs[0].maxAbsDiff(ref.outputs[0]), 1e-3)
            << "tile " << tile;
    }
}

/** The instrumented entry produces a usable profile. */
TEST(Exec, InstrumentedProfile)
{
    auto spec = apps::buildHarris(64, 64);
    CompileOptions opts;
    opts.codegen.instrument = true;
    Executable exe = Executable::build(spec, opts);
    Buffer in = randomBuffer(DType::Float, {66, 66}, 12);
    TaskProfile prof = exe.profile({64, 64}, {&in});
    EXPECT_FALSE(prof.costs.empty());
    EXPECT_GT(prof.totalSeconds(), 0.0);
    // Instrumented and normal entries compute the same result.
    auto outs = exe.run({64, 64}, {&in});
    auto g = pg::PipelineGraph::build(spec);
    auto ref = interp::evaluate(g, {64, 64}, {&in});
    EXPECT_LE(outs[0].maxAbsDiff(ref.outputs[0]), 1e-3);
}

/** Heap-scratchpad fallback (huge tiles exceed the stack budget). */
TEST(Exec, HeapScratchpads)
{
    auto spec = apps::buildHarris(64, 64);
    CompileOptions opts;
    opts.grouping.tileSizes = {64, 64};
    opts.codegen.maxStackScratchBytes = 1024; // force heap path
    Executable exe = Executable::build(spec, opts);
    Buffer in = randomBuffer(DType::Float, {66, 66}, 13);
    auto g = pg::PipelineGraph::build(spec);
    auto ref = interp::evaluate(g, {64, 64}, {&in});
    auto outs = exe.run({64, 64}, {&in});
    EXPECT_LE(outs[0].maxAbsDiff(ref.outputs[0]), 1e-3);
}

} // namespace
} // namespace polymage::rt

namespace polymage::rt {
namespace {

using namespace dsl;

/**
 * Summed-area table (paper §2: "patterns like ... summed area
 * tables"): a 2-D self-recurrence evaluated sequentially, checked
 * against the closed-form prefix sums through the full JIT path.
 */
TEST(Exec, SummedAreaTable)
{
    Parameter R("R"), C("C");
    Variable x("x"), y("y");
    Image I("I", DType::Float, {Expr(R), Expr(C)});
    Function sat("sat", {x, y},
                 {Interval(Expr(0), Expr(R) - 1),
                  Interval(Expr(0), Expr(C) - 1)},
                 DType::Float);
    Condition corner = (Expr(x) == 0) & (Expr(y) == 0);
    Condition top = (Expr(x) == 0) & (Expr(y) >= 1);
    Condition left = (Expr(x) >= 1) & (Expr(y) == 0);
    Condition inner = (Expr(x) >= 1) & (Expr(y) >= 1);
    sat.define({
        Case(corner, I(x, y)),
        Case(top, I(x, y) + sat(x, Expr(y) - 1)),
        Case(left, I(x, y) + sat(Expr(x) - 1, y)),
        Case(inner, I(x, y) + sat(x, Expr(y) - 1) +
                        sat(Expr(x) - 1, y) -
                        sat(Expr(x) - 1, Expr(y) - 1)),
    });
    PipelineSpec spec("sat");
    spec.addParam(R);
    spec.addParam(C);
    spec.addInput(I);
    spec.addOutput(sat);
    spec.estimate(R, 32);
    spec.estimate(C, 32);

    const std::int64_t n = 24;
    Buffer in = randomBuffer(DType::Float, {n, n}, 42);
    Executable exe = Executable::build(spec);
    auto outs = exe.run({n, n}, {&in});

    // Identity: sat(i, j) = rowsum(i, 0..j) + sat(i-1, j).
    const float *ip = in.dataAs<const float>();
    const float *op = outs[0].dataAs<const float>();
    for (std::int64_t i = 0; i < n; ++i) {
        double row = 0;
        for (std::int64_t j = 0; j < n; ++j) {
            row += ip[i * n + j];
            double expect = row;
            if (i > 0)
                expect += op[(i - 1) * n + j];
            EXPECT_NEAR(op[i * n + j], expect, 1e-3) << i << "," << j;
        }
    }
}

/** Identical specs generate byte-identical source (determinism). */
TEST(Exec, CodegenIsDeterministic)
{
    auto a = compilePipeline(apps::buildHarris(777, 555));
    auto b = compilePipeline(apps::buildHarris(777, 555));
    // Names embed entity ids only when colliding; the structure and
    // schedule must match exactly.
    EXPECT_EQ(a.code.source, b.code.source);
    EXPECT_EQ(a.grouping.groups.size(), b.grouping.groups.size());
}

} // namespace
} // namespace polymage::rt
