/**
 * @file
 * Unit tests of the CSE-aware assignment emitter: shared AST nodes
 * (expression DAGs) must be emitted once into typed temporaries, in
 * dependency order, preserving semantics.
 */
#include <gtest/gtest.h>

#include "codegen/cexpr.hpp"
#include "dsl/dsl.hpp"
#include "dsl/transform.hpp"

namespace polymage::cg {
namespace {

using namespace dsl;

class CseTest : public ::testing::Test
{
  protected:
    Parameter R{"R"};
    Image I{"I", DType::Float, {Expr(R)}};
    Variable x{"x"};

    EmitEnv
    env()
    {
        EmitEnv e;
        e.varName[x.id()] = "x";
        e.paramName[R.id()] = "R";
        e.access = [](const CallNode &c,
                      const std::vector<std::string> &idx) {
            return c.callee->name() + "[" + idx[0] + "]";
        };
        return e;
    }

    static int
    count(const std::vector<std::string> &lines, const std::string &s)
    {
        int n = 0;
        for (const auto &l : lines) {
            for (std::size_t p = l.find(s); p != std::string::npos;
                 p = l.find(s, p + s.size())) {
                ++n;
            }
        }
        return n;
    }
};

TEST_F(CseTest, SharedIndexEmittedOnce)
{
    Expr g0 = Expr(x) / 2 + 1; // shared by both reads
    Expr a = I(g0), b = I(g0 + 1);
    Expr t = a + (b - a) * Expr(0.5);
    auto lines = emitAssignWithCSE(t, "out[x]", DType::Float, env());
    // g0 bound once (x / 2 is a shift); `a` bound once (used twice in
    // the lerp).
    EXPECT_EQ(count(lines, "(x >> 1)"), 1);
    ASSERT_GE(lines.size(), 3u);
    EXPECT_NE(lines[0].find("const int pm_cse0"), std::string::npos);
}

TEST_F(CseTest, NoSharingMeansNoTemporaries)
{
    Expr t = I(Expr(x)) + I(Expr(x) + 1);
    auto lines = emitAssignWithCSE(t, "out[x]", DType::Float, env());
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].find("pm_cse"), std::string::npos);
}

TEST_F(CseTest, TemporariesAreTyped)
{
    Expr idx = Expr(x) * 2 + 1; // int node shared
    Expr v = I(idx) * I(idx);   // note: two distinct Call nodes
    auto lines = emitAssignWithCSE(v, "out[x]", DType::Float, env());
    // idx shared -> one int temp; the calls are distinct nodes.
    EXPECT_EQ(count(lines, "const int pm_cse"), 1);
}

TEST_F(CseTest, SharedThroughSelectConditions)
{
    Expr load = I(Expr(x));
    Expr t = select(load > Expr(0.5), load * Expr(2.0), load);
    auto lines = emitAssignWithCSE(t, "out[x]", DType::Float, env());
    // The load appears in the condition and both branches: bound once.
    EXPECT_EQ(count(lines, "I[x]"), 1);
}

TEST_F(CseTest, RewritePreservesSharing)
{
    // After a no-op rewrite (e.g. what inlining does to untouched
    // stages), shared nodes must still be shared.
    Expr g0 = Expr(x) / 2;
    Expr t = I(g0) + I(g0 + 1) + I(g0 + 2);
    Expr r = rewriteExpr(t, [](const ExprNode &) {
        return std::optional<Expr>();
    });
    auto lines = emitAssignWithCSE(r, "out[x]", DType::Float, env());
    EXPECT_EQ(count(lines, "(x >> 1)"), 1);
}

} // namespace
} // namespace polymage::cg
