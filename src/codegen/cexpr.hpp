/**
 * @file
 * Rendering of DSL expressions and conditions as C++ expressions.
 * Access rewriting (full buffer vs scratchpad vs image indexing) is
 * delegated to a callback so one emitter serves all storage schemes.
 */
#ifndef POLYMAGE_CODEGEN_CEXPR_HPP
#define POLYMAGE_CODEGEN_CEXPR_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dsl/expr.hpp"

namespace polymage::cg {

/**
 * Collector for loop-invariant address arithmetic.  While a loop body
 * is rendered, every flat-index prefix that does not involve the
 * innermost loop variable is bound to a `pm_base*` local recorded in
 * `lines`; the loop-nest emitter then declares those locals once per
 * row, right before opening the innermost loop, so the steady-state
 * loop adds a single offset instead of re-multiplying full row-major
 * strides at every point.  Identical prefixes share one local via
 * `memo` (e.g. the five taps of a stencil row).
 */
struct HoistSink
{
    /** C name of the innermost loop variable (terms mentioning it
     * cannot be hoisted). */
    std::string innerVar;
    /** Hoisted declarations, in emission order. */
    std::vector<std::string> lines;
    /** Hoisted expression -> local name (dedup across accesses). */
    std::map<std::string, std::string> memo;
    /** Unique-name source for `pm_base<n>`. */
    int counter = 0;
    /**
     * CSE temporaries whose defining expression was itself invariant
     * and therefore hoisted into `lines` (e.g. the `x/2` source row of
     * an upsample).  Index terms referencing only these stay hoistable;
     * terms referencing a body-resident temporary must stay inline.
     */
    std::set<std::string> invariantLocals;
    /** Unique-name source for `pm_cse<n>` (shared so hoisted
     * temporaries from sibling nests never collide in one scope). */
    int cseCounter = 0;
};

/** Environment for expression emission. */
struct EmitEnv
{
    /** C name per variable entity id. */
    std::map<int, std::string> varName;
    /** Already-bound subexpressions (CSE temporaries), by node. */
    std::map<const dsl::ExprNode *, std::string> bound;
    /** C name per parameter entity id. */
    std::map<int, std::string> paramName;
    /**
     * Renders an access: receives the call and the already-rendered
     * index strings; returns the C lvalue/rvalue.
     */
    std::function<std::string(const dsl::CallNode &,
                              const std::vector<std::string> &)>
        access;
};

/**
 * True when @p code contains @p name as a whole identifier token
 * (not as a substring of a longer identifier).
 */
bool mentionsIdentifier(const std::string &code, const std::string &name);

/**
 * Join rendered flat-index @p terms with `+`, hoisting the
 * loop-invariant prefix into @p sink.  Terms that mention the sink's
 * innermost variable -- or a per-point CSE temporary -- stay inline;
 * the rest are summed once into a `pm_base*` local when doing so
 * saves work (a stride multiplication or the addition of several
 * terms).  With a null @p sink every term stays inline (the
 * unhoisted baseline).
 */
std::string joinHoistedIndex(const std::vector<std::string> &terms,
                             HoistSink *sink);

/** Render an expression.  The result is a parenthesised C expression. */
std::string emitExpr(const dsl::Expr &e, const EmitEnv &env);

/**
 * Render `target = (store_type)(value);` with common-subexpression
 * bindings: AST nodes referenced more than once (expression DAGs are
 * shared, e.g. the corner samples of a trilinear interpolation) are
 * emitted once into typed temporaries.  Returns the statement lines
 * for the innermost loop body.  With a non-null @p sink, temporaries
 * whose definition is loop-invariant (no innermost-variable mention,
 * no dependence on a body-resident temporary) move into the sink and
 * are declared once before the innermost loop instead of per point.
 */
std::vector<std::string> emitAssignWithCSE(const dsl::Expr &value,
                                           const std::string &target,
                                           dsl::DType store_type,
                                           const EmitEnv &env,
                                           HoistSink *sink = nullptr);

/** Render a condition as a C boolean expression. */
std::string emitCond(const dsl::Condition &c, const EmitEnv &env);

/**
 * Floor division, ceiling division and floor modulo of the integer C
 * expression @p num by the positive literal @p den.  A power of two
 * becomes a shift or a mask: an arithmetic right shift floors and a
 * two's-complement mask is the non-negative residue, so both are
 * exact for negative numerators too, and they need no optimiser to
 * strength-reduce a division.  Other divisors call the prelude's
 * pm_floordiv/pm_floormod.  @p num must bind at least as tightly as an
 * additive expression (every emitExpr result does).
 */
std::string floorDivLiteral(const std::string &num, std::int64_t den);
std::string ceilDivLiteral(const std::string &num, std::int64_t den);
std::string floorModLiteral(const std::string &num, std::int64_t den);

/** C literal for a floating constant of the given type. */
std::string floatLiteral(double v, dsl::DType t);

} // namespace polymage::cg

#endif // POLYMAGE_CODEGEN_CEXPR_HPP
