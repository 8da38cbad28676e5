/**
 * @file
 * Small pipeline builders shared across test suites: each returns a
 * complete PipelineSpec exercising one computation pattern from the
 * paper's Table 1 or a structural corner case.
 */
#ifndef POLYMAGE_TESTS_COMMON_TEST_PIPELINES_HPP
#define POLYMAGE_TESTS_COMMON_TEST_PIPELINES_HPP

#include <cstdint>

#include "dsl/dsl.hpp"

namespace polymage::testing {

/** Handles shared by the small builders. */
struct TinyPipeline
{
    dsl::PipelineSpec spec{"tiny"};
    dsl::Parameter R{"R"}, C{"C"};
};

/** out(x, y) = 2*I(x, y) + 1 (point-wise). */
inline TinyPipeline
makePointwise(std::int64_t est = 64)
{
    TinyPipeline t;
    using namespace dsl;
    Image I("I", DType::Float, {Expr(t.R), Expr(t.C)});
    Variable x("x"), y("y");
    Function out("out", {x, y},
                 {Interval(Expr(0), Expr(t.R) - 1),
                  Interval(Expr(0), Expr(t.C) - 1)},
                 DType::Float);
    out.define(Expr(2.0) * I(x, y) + Expr(1.0));
    t.spec = PipelineSpec("pointwise");
    t.spec.addParam(t.R);
    t.spec.addParam(t.C);
    t.spec.addInput(I);
    t.spec.addOutput(out);
    t.spec.estimate(t.R, est);
    t.spec.estimate(t.C, est);
    return t;
}

/**
 * Two chained 3x3 box blurs with interior cases (stencil chain):
 * blur1 on [1, R-2], blur2 on [2, R-3].
 */
inline TinyPipeline
makeBlurChain(std::int64_t est = 64)
{
    TinyPipeline t;
    using namespace dsl;
    Image I("I", DType::Float, {Expr(t.R), Expr(t.C)});
    Variable x("x"), y("y");
    Interval rows(Expr(0), Expr(t.R) - 1), cols(Expr(0), Expr(t.C) - 1);

    Condition c1 = (Expr(x) >= 1) & (Expr(x) <= Expr(t.R) - 2) &
                   (Expr(y) >= 1) & (Expr(y) <= Expr(t.C) - 2);
    Condition c2 = (Expr(x) >= 2) & (Expr(x) <= Expr(t.R) - 3) &
                   (Expr(y) >= 2) & (Expr(y) <= Expr(t.C) - 3);

    Function blur1("blur1", {x, y}, {rows, cols}, DType::Float);
    blur1.define({Case(c1, stencil([&](Expr i, Expr j) { return I(i, j); },
                                   x, y,
                                   {{1, 1, 1}, {1, 1, 1}, {1, 1, 1}},
                                   1.0 / 9))});

    Function blur2("blur2", {x, y}, {rows, cols}, DType::Float);
    blur2.define({Case(
        c2, stencil([&](Expr i, Expr j) { return blur1(i, j); }, x, y,
                    {{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}, 1.0 / 9))});

    t.spec = PipelineSpec("blur_chain");
    t.spec.addParam(t.R);
    t.spec.addParam(t.C);
    t.spec.addInput(I);
    t.spec.addOutput(blur2);
    t.spec.estimate(t.R, est);
    t.spec.estimate(t.C, est);
    return t;
}

/**
 * Floor division and modulo with numerators of both signs:
 * out(x) = I(x) + 10 * ((x - 7) / d) + (x - 7) % d on [0, R-1].
 */
inline TinyPipeline
makeFloorDivMod(std::int64_t est = 64, std::int64_t d = 4)
{
    TinyPipeline t;
    using namespace dsl;
    Image I("I", DType::Float, {Expr(t.R)});
    Variable x("x");
    Function out("out", {x}, {Interval(Expr(0), Expr(t.R) - 1)},
                 DType::Float);
    // Two separate numerator trees, so neither becomes a shared
    // temporary and both operators render inline.
    const Expr q = (Expr(x) - 7) / Expr(int(d));
    const Expr r = (Expr(x) - 7) % Expr(int(d));
    out.define(I(x) + cast(DType::Float, q * 10 + r));
    t.spec = PipelineSpec("floor_div_mod");
    t.spec.addParam(t.R);
    t.spec.addInput(I);
    t.spec.addOutput(out);
    t.spec.estimate(t.R, est);
    return t;
}

/** 1-D upsample: up(x) = base(x/2), base(x) = I(x)*0.5. */
inline TinyPipeline
makeUpsample(std::int64_t est = 64)
{
    TinyPipeline t;
    using namespace dsl;
    Image I("I", DType::Float, {Expr(t.R)});
    Variable x("x");
    Function base("base", {x}, {Interval(Expr(0), Expr(t.R) - 1)},
                  DType::Float);
    base.define(I(x) * Expr(0.5));
    Function up("up", {x}, {Interval(Expr(0), Expr(t.R) * 2 - 2)},
                DType::Float);
    up.define(base(Expr(x) / 2));
    t.spec = PipelineSpec("upsample");
    t.spec.addParam(t.R);
    t.spec.addInput(I);
    t.spec.addOutput(up);
    t.spec.estimate(t.R, est);
    return t;
}

/** 1-D downsample: down(x) = (base(2x) + base(2x+1)) / 2. */
inline TinyPipeline
makeDownsample(std::int64_t est = 64)
{
    TinyPipeline t;
    using namespace dsl;
    Image I("I", DType::Float, {Expr(t.R)});
    Variable x("x");
    Function base("base", {x}, {Interval(Expr(0), Expr(t.R) - 1)},
                  DType::Float);
    base.define(I(x) + Expr(1.0));
    Function down("down", {x},
                  {Interval(Expr(0), Expr(t.R) / 2 - 1)}, DType::Float);
    down.define((base(Expr(x) * 2) + base(Expr(x) * 2 + 1)) * Expr(0.5));
    t.spec = PipelineSpec("downsample");
    t.spec.addParam(t.R);
    t.spec.addInput(I);
    t.spec.addOutput(down);
    t.spec.estimate(t.R, est);
    return t;
}

/** Grayscale histogram over a UChar image (paper Fig. 3). */
inline TinyPipeline
makeHistogram(std::int64_t est = 64)
{
    TinyPipeline t;
    using namespace dsl;
    Image I("I", DType::UChar, {Expr(t.R), Expr(t.C)});
    Variable x("x"), y("y"), b("b");
    Accumulator hist("hist", {b}, {Interval(Expr(0), Expr(255))},
                     {x, y},
                     {Interval(Expr(0), Expr(t.R) - 1),
                      Interval(Expr(0), Expr(t.C) - 1)},
                     DType::Int);
    hist.accumulate({I(x, y)}, Expr(1));
    t.spec = PipelineSpec("histogram");
    t.spec.addParam(t.R);
    t.spec.addParam(t.C);
    t.spec.addInput(I);
    t.spec.addOutput(hist);
    t.spec.estimate(t.R, est);
    t.spec.estimate(t.C, est);
    return t;
}

/**
 * Time-iterated 1-D heat smoothing: f(0, x) = I(x); for t >= 1,
 * f(t, x) averages f(t-1) with clamped neighbours (Table 1 pattern).
 */
inline TinyPipeline
makeTimeIterated(std::int64_t est = 64, std::int64_t steps = 4)
{
    TinyPipeline t;
    using namespace dsl;
    Image I("I", DType::Float, {Expr(t.R)});
    Variable tt("t"), x("x");
    Function f("f", {tt, x},
               {Interval(Expr(0), Expr(steps)),
                Interval(Expr(0), Expr(t.R) - 1)},
               DType::Float);
    Expr xm = max(Expr(x) - 1, Expr(0));
    Expr xp = min(Expr(x) + 1, Expr(t.R) - 1);
    f.define({Case(Expr(tt) == 0, I(x)),
              Case(Expr(tt) >= 1,
                   (f(Expr(tt) - 1, xm) + f(Expr(tt) - 1, x) +
                    f(Expr(tt) - 1, xp)) *
                       Expr(1.0 / 3))});
    t.spec = PipelineSpec("time_iterated");
    t.spec.addParam(t.R);
    t.spec.addInput(I);
    t.spec.addOutput(f);
    t.spec.estimate(t.R, est);
    return t;
}

/**
 * Boundary-copy stencil (paper-style explicit boundary handling): the
 * border ring copies the input, the interior averages a 3x3
 * neighbourhood.  The border condition is a union of four half-planes
 * (`x <= 0 || x >= R-1 || ...`) -- the disjunctive pattern that
 * exercises boundary/interior loop partitioning; without it the border
 * case is a full-domain sweep with a per-point `if`.
 */
inline TinyPipeline
makeBoundaryStencil(std::int64_t est = 64)
{
    TinyPipeline t;
    using namespace dsl;
    Image I("I", DType::Float, {Expr(t.R), Expr(t.C)});
    Variable x("x"), y("y");
    Interval rows(Expr(0), Expr(t.R) - 1), cols(Expr(0), Expr(t.C) - 1);
    Condition border = (Expr(x) <= 0) | (Expr(x) >= Expr(t.R) - 1) |
                       (Expr(y) <= 0) | (Expr(y) >= Expr(t.C) - 1);
    Condition interior = (Expr(x) >= 1) & (Expr(x) <= Expr(t.R) - 2) &
                         (Expr(y) >= 1) & (Expr(y) <= Expr(t.C) - 2);
    Function out("edge", {x, y}, {rows, cols}, DType::Float);
    out.define({Case(border, I(x, y)),
                Case(interior,
                     stencil([&](Expr i, Expr j) { return I(i, j); }, x,
                             y, {{1, 1, 1}, {1, 1, 1}, {1, 1, 1}},
                             1.0 / 9))});
    t.spec = PipelineSpec("boundary_stencil");
    t.spec.addParam(t.R);
    t.spec.addParam(t.C);
    t.spec.addInput(I);
    t.spec.addOutput(out);
    t.spec.estimate(t.R, est);
    t.spec.estimate(t.C, est);
    return t;
}

/**
 * Two-stage version of makeBoundaryStencil whose stages fuse into an
 * overlapped-tile group: a point-wise producer followed by a consumer
 * with the disjunctive border case.  Exercises partitioning inside the
 * tiled per-stage nests (scratchpad indexing included).
 */
inline TinyPipeline
makeBoundaryChain(std::int64_t est = 64)
{
    TinyPipeline t;
    using namespace dsl;
    Image I("I", DType::Float, {Expr(t.R), Expr(t.C)});
    Variable x("x"), y("y");
    Interval rows(Expr(0), Expr(t.R) - 1), cols(Expr(0), Expr(t.C) - 1);

    // Two taps keep `pre` out of the pointwise inliner's reach so the
    // chain really fuses into an overlapped-tile group.
    Function pre("pre", {x, y}, {rows, cols}, DType::Float);
    pre.define((I(x, y) + I(min(Expr(x) + 1, Expr(t.R) - 1), y)) *
               Expr(0.5));

    Condition border = (Expr(x) <= 0) | (Expr(x) >= Expr(t.R) - 1) |
                       (Expr(y) <= 0) | (Expr(y) >= Expr(t.C) - 1);
    Condition interior = (Expr(x) >= 1) & (Expr(x) <= Expr(t.R) - 2) &
                         (Expr(y) >= 1) & (Expr(y) <= Expr(t.C) - 2);
    Function out("edge2", {x, y}, {rows, cols}, DType::Float);
    out.define({Case(border, pre(x, y)),
                Case(interior,
                     stencil([&](Expr i, Expr j) { return pre(i, j); },
                             x, y, {{1, 1, 1}, {1, 1, 1}, {1, 1, 1}},
                             1.0 / 9))});

    t.spec = PipelineSpec("boundary_chain");
    t.spec.addParam(t.R);
    t.spec.addParam(t.C);
    t.spec.addInput(I);
    t.spec.addOutput(out);
    t.spec.estimate(t.R, est);
    t.spec.estimate(t.C, est);
    return t;
}

} // namespace polymage::testing

#endif // POLYMAGE_TESTS_COMMON_TEST_PIPELINES_HPP
