#include "codegen/generate.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <optional>
#include <set>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "codegen/cexpr.hpp"
#include "codegen/vexpr.hpp"
#include "codegen/writer.hpp"
#include "dsl/transform.hpp"
#include "machine/machine.hpp"
#include "poly/cond_box.hpp"
#include "poly/range.hpp"
#include "support/intmath.hpp"

namespace polymage::cg {

using core::GroupSchedule;
using core::StageMapping;
using core::StorageKind;
using dsl::DType;
using dsl::Expr;
using poly::AffineExpr;

namespace {

std::string
sanitize(const std::string &name)
{
    std::string out;
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_')
            out += c;
        else
            out += '_';
    }
    if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])))
        out = "v_" + out;
    return out;
}

/** A set of identifiers, viewing strings that outlive it. */
using Names = std::unordered_set<std::string_view>;

/**
 * Call @p out with each identifier a chunk of generated C++ mentions
 * (numbers skipped).
 */
template <typename Out>
void
forEachIdentifier(std::string_view code, Out out)
{
    auto word = [&](std::size_t j) {
        return j < code.size() &&
               (std::isalnum(static_cast<unsigned char>(code[j])) ||
                code[j] == '_');
    };
    for (std::size_t i = 0; i < code.size();) {
        const unsigned char c = code[i];
        if (std::isalpha(c) || c == '_') {
            std::size_t j = i + 1;
            while (word(j))
                ++j;
            out(code.substr(i, j - i));
            i = j;
        } else if (std::isdigit(c)) {
            while (word(i) || (i < code.size() && code[i] == '.'))
                ++i;
        } else {
            ++i;
        }
    }
}

/** Identifier characters, by byte. */
constexpr auto kNameChar = [] {
    std::array<bool, 256> t{};
    for (int c = 0; c < 256; ++c)
        t[std::size_t(c)] = (c >= 'a' && c <= 'z') ||
                            (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '_';
    return t;
}();

/** Whether @p c is an identifier character. */
bool
isNameChar(char c)
{
    return kNameChar[static_cast<unsigned char>(c)];
}

/** Whether @p id is a C++ keyword (or `std`): never a local's name. */
bool
isKeyword(std::string_view id)
{
    static constexpr std::string_view keywords[] = {
        "alignas", "alignof", "asm", "auto", "bool", "break", "case",
        "catch", "char", "class", "const", "constexpr", "const_cast",
        "continue", "decltype", "default", "delete", "do", "double",
        "dynamic_cast", "else", "enum", "explicit", "extern", "false",
        "float", "for", "goto", "if", "inline", "int", "long", "new",
        "noexcept", "nullptr", "operator", "register", "reinterpret_cast",
        "return", "short", "signed", "sizeof", "static", "static_cast",
        "struct", "switch", "template", "this", "thread_local", "true",
        "typedef", "typename", "union", "unsigned", "void", "volatile",
        "while", "std"};
    if (id.size() > 16 || id[0] < 'a' || id[0] > 'w')
        return false;
    for (const std::string_view k : keywords) {
        if (k.size() == id.size() && k[0] == id[0] && k == id)
            return true;
    }
    return false;
}

/**
 * The alpha-equivalence key of generated function @p text named
 * @p self: the text without comments, with @p self replaced by a
 * marker and every other name that can only be a parameter or local
 * renamed by first occurrence.  Kept verbatim: keywords, called names
 * (followed by `(`: prelude helpers, builtins, other functions),
 * `__`-prefixed names, the prelude's `pm_v_` vector types and
 * preprocessor lines.  Two functions with one key differ only in the
 * names of their parameters and locals, so one definition serves both
 * callers, each passing its own arguments.
 */
std::string
alphaKey(std::string_view text, std::string_view self)
{
    std::string key;
    key.reserve(text.size());
    // Local index by name.
    std::unordered_map<std::string_view, int> names;
    for (std::size_t i = 0; i < text.size();) {
        const std::size_t eol = std::min(text.find('\n', i), text.size());
        const std::size_t first = text.find_first_not_of(' ', i);
        if (first < eol && text[first] == '#') {
            key.append(text.substr(i, eol + 1 - i));
            i = eol + 1;
            continue;
        }
        while (i < eol) {
            const char c = text[i];
            if (c == '/' && i + 1 < eol && text[i + 1] == '/')
                break; // a comment, to the end of the line
            std::size_t j = i + 1;
            if (!isNameChar(c)) {
                while (j < eol && !isNameChar(text[j]) && text[j] != '/')
                    ++j;
                key.append(text.substr(i, j - i));
                i = j;
                continue;
            }
            const bool number = c >= '0' && c <= '9';
            while (j < eol &&
                   (isNameChar(text[j]) || (number && text[j] == '.')))
                ++j;
            const std::string_view id = text.substr(i, j - i);
            i = j;
            if (id == self) {
                key += "@self";
                continue;
            }
            if (number || (j < eol && (text[j] == '(' || text[j] == ':')) ||
                isKeyword(id) || id.rfind("__", 0) == 0 ||
                id.rfind("pm_v_", 0) == 0) {
                key.append(id);
                continue;
            }
            const int index =
                names.emplace(id, int(names.size())).first->second;
            // '@' and the index as a varint: self-delimiting, and '@'
            // never occurs in generated code.
            key += '@';
            unsigned v = unsigned(index);
            for (; v >= 0x80; v >>= 7)
                key += char(0x80 | (v & 0x7f));
            key += char(v);
        }
        key += '\n';
        i = eol + 1;
    }
    return key;
}

/**
 * A hash of @p text with comments dropped and every name (a run of
 * identifier characters not starting with a digit) reduced to one
 * marker: functions with equal alphaKey() have equal shapes.  One pass
 * without lookups, so every function gets one, and alphaKey() runs
 * only on the functions whose shapes match (codegen runs on every warm
 * build).
 */
std::uint64_t
alphaShape(std::string_view text)
{
    std::uint64_t h = 14695981039346656037ull; // FNV-1a
    for (std::size_t i = 0; i < text.size();) {
        const unsigned char c = static_cast<unsigned char>(text[i]);
        if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
            i = std::min(text.find('\n', i), text.size());
            continue;
        }
        ++i;
        if (isNameChar(char(c)) && !(c >= '0' && c <= '9')) {
            while (i < text.size() && isNameChar(text[i]))
                ++i;
            h = (h ^ '@') * 1099511628211ull;
        } else {
            h = (h ^ c) * 1099511628211ull;
        }
    }
    return h;
}

/**
 * One function-scope local of the generated code (a parameter, tile
 * size, image or buffer pointer, extent, stride or scratchpad origin):
 * its name, its declaration, and the identifiers the declaration
 * reads.
 */
struct LocalDef
{
    std::string name;
    std::string text;
    std::vector<std::string> uses;

    LocalDef(std::string n, std::string t)
        : name(std::move(n)), text(std::move(t))
    {
        forEachIdentifier(text, [&](std::string_view id) {
            if (id != name)
                uses.emplace_back(id);
        });
    }
};

/** LocalDef positions by name. */
using LocalIndex = std::unordered_map<std::string_view, std::size_t>;

LocalIndex
indexLocals(const std::vector<LocalDef> &defs)
{
    LocalIndex index;
    for (std::size_t i = 0; i < defs.size(); ++i)
        index.emplace(defs[i].name, i);
    return index;
}

/**
 * The declarations among @p defs (in dependency order, indexed by
 * @p index) that code mentioning @p needed requires, transitively, in
 * declaration order.  Names in @p args are function arguments: never
 * declared, and @p needed ends up holding every one the function reads.
 */
std::vector<std::string>
neededLocals(const std::vector<LocalDef> &defs, const LocalIndex &index,
             Names &needed, const Names &args)
{
    std::vector<std::string_view> work(needed.begin(), needed.end());
    std::vector<bool> keep(defs.size(), false);
    while (!work.empty()) {
        const std::string_view n = work.back();
        work.pop_back();
        const auto it = index.find(n);
        if (it == index.end() || keep[it->second] || args.count(n))
            continue;
        keep[it->second] = true;
        for (const std::string &u : defs[it->second].uses) {
            if (needed.insert(u).second)
                work.push_back(u);
        }
    }
    std::vector<std::string> out;
    for (std::size_t i = 0; i < defs.size(); ++i) {
        if (keep[i])
            out.push_back(defs[i].text);
    }
    return out;
}

/** Render an integer affine expression over parameters. */
std::string
emitAffineInt(const AffineExpr &e,
              const std::map<int, std::string> &names)
{
    std::string s;
    bool first = true;
    for (const auto &[id, c] : e.terms()) {
        PM_ASSERT(c.isInteger(), "fractional coefficient in bound");
        auto it = names.find(id);
        PM_ASSERT(it != names.end(), "unknown symbol in bound");
        const std::int64_t k = c.asInteger();
        if (!first)
            s += " + ";
        first = false;
        if (k == 1)
            s += it->second;
        else
            s += std::to_string(k) + "*" + it->second;
    }
    PM_ASSERT(e.constant().isInteger(), "fractional constant in bound");
    const std::int64_t c0 = e.constant().asInteger();
    if (first)
        return std::to_string(c0);
    if (c0 != 0)
        s += " + " + std::to_string(c0);
    return "(" + s + ")";
}

/**
 * Evaluate an affine bound under the parameter estimates; nullopt when
 * a symbol has no estimate (per-clause extents then stay unknown).
 */
std::optional<std::int64_t>
evalAffineParams(const AffineExpr &e, const poly::RangeEnv &env)
{
    Rational sum = e.constant();
    for (const auto &[id, c] : e.terms()) {
        auto it = env.params.find(id);
        if (it == env.params.end())
            return std::nullopt;
        sum += c * Rational(it->second);
    }
    if (!sum.isInteger())
        return std::nullopt;
    return sum.asInteger();
}

/** One generated loop dimension of a stage instance. */
struct LoopDim
{
    std::string var;             // loop variable C name
    std::vector<std::string> lb; // max of these
    std::vector<std::string> ub; // min of these
    /**
     * Loop stride; > 1 when a case condition pins the variable to a
     * residue class (var % step == phase), e.g. the even/odd rows of
     * an upsampling stage.  Replaces a per-point guard with a strided
     * loop (the paper's domain splitting, section 3.7).
     */
    std::int64_t step = 1;
    std::int64_t phase = 0;
    /** Estimated extent (-1 unknown); picks the parallel dimension. */
    std::int64_t estExtent = -1;
    /** Estimated inclusive range backing estExtent (valid when >= 0). */
    std::int64_t estLo = 0;
    std::int64_t estHi = -1;
};

/**
 * One loop nest implementing (part of) a case: its refined dimensions
 * plus the residual guards that must stay per-point `if`s.  Boundary
 * partitioning turns one guarded nest into several guard-free ones.
 */
struct CaseNest
{
    std::vector<LoopDim> dims;
    std::vector<std::string> guards;
    /** The case value specialised to this nest by specializeSelects;
     * undefined means the case's own value. */
    dsl::Expr value;
};

/**
 * Estimated g++ cost of a generated function, in units of one loop:
 * three for the function, one per loop and one more per loop g++ is
 * asked to vectorise (`omp simd` without `if(0)`).  A least-squares
 * fit of g++ CPU time over the 138 functions of the seven paper apps
 * at scale 0.5 (each compiled alone at the JIT's flags, g++ 12 -O1,
 * AVX-512 host) gave 15 ms per function, 5.4 ms per loop and 4.3 ms
 * more per `omp simd` loop; g++ time correlates 0.87 with the
 * estimate, 0.85 with the loop count and 0.70 with the source bytes.
 */
long long
compileCost(std::string_view text)
{
    // Generated loops and pragmas each open a line.
    long long cost = 3;
    for (std::size_t i = 0; i < text.size();) {
        const std::size_t eol = std::min(text.find('\n', i), text.size());
        const std::string_view line = text.substr(i, eol - i);
        const std::size_t first = line.find_first_not_of(' ');
        if (first != std::string_view::npos) {
            const std::string_view code = line.substr(first);
            if (code.rfind("for (", 0) == 0)
                cost += 1;
            else if (code.rfind("#pragma omp ", 0) == 0 &&
                     code.find("simd") != std::string_view::npos &&
                     code.find("if(0)") == std::string_view::npos)
                cost += 1;
        }
        i = eol + 1;
    }
    return cost;
}

/**
 * Estimated cost (compileCost) that pays for a unit of its own: its
 * compiler process, prelude parse and share of the link take about
 * 0.05 s, some 10 cost units at 5 ms each.  Unsharp (cost 34, largest
 * function 15) then compiles as three units, a four-core machine runs
 * the pyramid apps as four.
 */
constexpr long long kUnitCost = 10;

/** The task entry's per-thread scratch arena (emitTaskArena). */
constexpr const char *kTaskArenaDecl =
    "__attribute__((visibility(\"hidden\"))) void *pm_task_arena(long "
    "long bytes)";

/** Most nests specializeSelects makes out of one loop dimension. */
constexpr std::int64_t kMaxSelectSplit = 4;

/** Whether the bound terms @p b are one integer literal, stored in @p v. */
bool
literalBound(const std::vector<std::string> &b, std::int64_t &v)
{
    if (b.size() != 1 || b[0].empty())
        return false;
    char *end = nullptr;
    v = std::strtoll(b[0].c_str(), &end, 10);
    return *end == '\0';
}

/**
 * The values of @p nest's innermost loop when emitCaseNests unrolls it:
 * a guard-free unit-step loop with literal bounds, 2..kMaxSelectSplit
 * iterations, inside another loop.  Empty otherwise.
 */
std::vector<std::int64_t>
shortInnerValues(const CaseNest &nest)
{
    std::int64_t lo = 0, hi = -1;
    if (nest.dims.size() < 2 || !nest.guards.empty() ||
        nest.dims.back().step != 1 ||
        !literalBound(nest.dims.back().lb, lo) ||
        !literalBound(nest.dims.back().ub, hi) || hi <= lo ||
        hi - lo >= kMaxSelectSplit)
        return {};
    std::vector<std::int64_t> values;
    for (std::int64_t v = lo; v <= hi; ++v)
        values.push_back(v);
    return values;
}

/** Whether a select condition in @p value reads loop variable @p var. */
bool
selectsOn(const dsl::Expr &value, int var)
{
    bool hit = false;
    dsl::forEachNode(value, [&](const dsl::ExprNode &n) {
        if (hit || n.kind() != dsl::ExprKind::Select)
            return;
        dsl::forEachNode(
            static_cast<const dsl::SelectNode &>(n).cond,
            [&](const dsl::ExprNode &m) {
                hit |= m.kind() == dsl::ExprKind::VarRef &&
                       static_cast<const dsl::VarRefNode &>(m).var->id ==
                           var;
            });
    });
    return hit;
}

/** The literal modulus of a `var % m` node, or 0 when @p n is not one. */
std::int64_t
modulusOf(const dsl::ExprNode &n, int var)
{
    if (n.kind() != dsl::ExprKind::BinOp)
        return 0;
    const auto &b = static_cast<const dsl::BinOpNode &>(n);
    if (b.op != dsl::BinOpKind::Mod ||
        b.a.node().kind() != dsl::ExprKind::VarRef ||
        b.b.node().kind() != dsl::ExprKind::ConstInt ||
        static_cast<const dsl::VarRefNode &>(b.a.node()).var->id != var)
        return 0;
    return static_cast<const dsl::ConstIntNode &>(b.b.node()).value;
}

/**
 * The modulus m (2..kMaxSelectSplit) of a `var % m` that a select
 * condition in @p value tests (`x % 2 == 0 ? ... : ...`), or 0.
 */
std::int64_t
selectModulus(const dsl::Expr &value, int var)
{
    std::int64_t m = 0;
    dsl::forEachNode(value, [&](const dsl::ExprNode &n) {
        if (m != 0 || n.kind() != dsl::ExprKind::Select)
            return;
        dsl::forEachNode(
            static_cast<const dsl::SelectNode &>(n).cond,
            [&](const dsl::ExprNode &c) {
                const std::int64_t k = modulusOf(c, var);
                if (m == 0 && k >= 2 && k <= kMaxSelectSplit)
                    m = k;
            });
    });
    return m;
}

/**
 * A condition's value when every comparison it needs compares two
 * integer literals (a tested loop variable specialised away), else
 * nullopt.
 */
std::optional<bool>
constCondition(const dsl::CondNode &c)
{
    using K = dsl::CondNode::Kind;
    if (c.kind == K::Cmp) {
        if (c.lhs.node().kind() != dsl::ExprKind::ConstInt ||
            c.rhs.node().kind() != dsl::ExprKind::ConstInt)
            return std::nullopt;
        const std::int64_t a =
            static_cast<const dsl::ConstIntNode &>(c.lhs.node()).value;
        const std::int64_t b =
            static_cast<const dsl::ConstIntNode &>(c.rhs.node()).value;
        switch (c.op) {
          case dsl::CmpOp::LT: return a < b;
          case dsl::CmpOp::LE: return a <= b;
          case dsl::CmpOp::GT: return a > b;
          case dsl::CmpOp::GE: return a >= b;
          case dsl::CmpOp::EQ: return a == b;
          case dsl::CmpOp::NE: return a != b;
        }
        return std::nullopt;
    }
    const std::optional<bool> x = constCondition(*c.a);
    const std::optional<bool> y = constCondition(*c.b);
    const bool dominant = c.kind == K::Or; // decides alone
    if ((x && *x == dominant) || (y && *y == dominant))
        return dominant;
    if (x && y)
        return !dominant;
    return std::nullopt;
}

/** @p value with each select whose condition is constant replaced by
 * the arm it takes. */
dsl::Expr
foldSelects(const dsl::Expr &value)
{
    return dsl::rewriteExpr(
        value, [](const dsl::ExprNode &n) -> std::optional<dsl::Expr> {
            if (n.kind() != dsl::ExprKind::Select)
                return std::nullopt;
            const auto &s = static_cast<const dsl::SelectNode &>(n);
            const std::optional<bool> taken = constCondition(s.cond.node());
            if (!taken)
                return std::nullopt;
            const dsl::Expr &arm = *taken ? s.t : s.f;
            return arm.type() == n.dtype() ? arm : dsl::cast(n.dtype(), arm);
        });
}

/** Match `v % step == phase` (either operand order) on a loop var. */
bool
matchResidue(const dsl::Condition &cond,
             const std::map<int, std::string> &var_names, int &var_id,
             std::int64_t &step, std::int64_t &phase)
{
    const dsl::CondNode &n = cond.node();
    if (n.kind != dsl::CondNode::Kind::Cmp || n.op != dsl::CmpOp::EQ)
        return false;
    auto parse_mod = [&](const dsl::Expr &e, const dsl::Expr &other) {
        if (e.node().kind() != dsl::ExprKind::BinOp)
            return false;
        const auto &b = static_cast<const dsl::BinOpNode &>(e.node());
        if (b.op != dsl::BinOpKind::Mod)
            return false;
        if (b.a.node().kind() != dsl::ExprKind::VarRef ||
            b.b.node().kind() != dsl::ExprKind::ConstInt ||
            other.node().kind() != dsl::ExprKind::ConstInt) {
            return false;
        }
        const int id =
            static_cast<const dsl::VarRefNode &>(b.a.node()).var->id;
        if (!var_names.count(id))
            return false;
        const std::int64_t c =
            static_cast<const dsl::ConstIntNode &>(b.b.node()).value;
        const std::int64_t k =
            static_cast<const dsl::ConstIntNode &>(other.node()).value;
        if (c <= 1 || k < 0 || k >= c)
            return false;
        var_id = id;
        step = c;
        phase = k;
        return true;
    };
    return parse_mod(n.lhs, n.rhs) || parse_mod(n.rhs, n.lhs);
}

class Generator
{
  public:
    Generator(const pg::PipelineGraph &g,
              const core::GroupingResult &grouping,
              const core::GroupingOptions &gopts,
              const core::StoragePlan &storage,
              const CodegenOptions &opts,
              const core::RangeAnalysis *ranges)
        : g_(g), grouping_(grouping), gopts_(gopts), storage_(storage),
          opts_(opts), ranges_(ranges)
    {}

    GeneratedCode run();

  private:
    //------------------------------------------------------------------
    // Naming
    //------------------------------------------------------------------
    std::string
    claim(std::string want)
    {
        std::string name = want;
        int n = 1;
        while (!used_.insert(name).second)
            name = want + "_" + std::to_string(n++);
        return name;
    }

    const std::string &stageName(int s) { return stageName_.at(s); }

    //------------------------------------------------------------------
    // Emission helpers
    //------------------------------------------------------------------
    void emitPrelude();
    void emitEntry(bool instrumented);
    void emitTaskEntry();
    /**
     * Define pm_task_arena, once per module (unit 0; the prelude
     * declares it): task entries are invoked once per chunk of tiles,
     * so a heap scratch arena allocated inside the call would be paid
     * on every chunk.  Each thread caches one instead, grown
     * monotonically, reused across calls and groups, released at
     * thread exit.
     */
    void emitTaskArena();
    /** Entry-scope locals every group function draws from (locals_). */
    void buildLocals();
    /**
     * Pack fns_ into translation units (docs/INTERNALS.md, "JIT
     * units") by estimated compile cost: one per kUnitCost, but no
     * more than the largest function leaves room for and at most one
     * per hardware thread, filled costliest function first into the
     * cheapest unit, with the unit-0 definitions in unit 0.  Each unit
     * is @p prelude, declarations of the hidden functions its functions
     * call, and its functions; @p cost receives each unit's estimate.
     */
    std::vector<std::string> packUnits(const std::string &prelude,
                                       std::vector<long long> &cost) const;

    /** A group function's call and the phases it owns. */
    struct GroupCall
    {
        std::string name;
        std::string call;
        int phaseEnd = 0;
    };
    /** One function per group for the current entry mode, in order. */
    std::vector<GroupCall> emitGroups();
    /**
     * Render group @p gi as its own hidden function (declaring just the
     * entry-scope locals its body reads); returns its name and call.
     */
    std::pair<std::string, std::string> emitGroupFunction(int gi);
    void emitGroup(int gi);
    void emitTiledGroup(int gi);
    /** One stage's case nests for the current tile (T0, T1, ...). */
    void emitTiledStage(int gi, int s, const std::vector<int> &tiled,
                        const std::vector<std::int64_t> &tau);
    /**
     * Emit the per-tile call of stage @p s's outlined nest function,
     * rendering the function on first use: tile indices, parameters
     * and tile sizes by value, buffer and scratchpad pointers as
     * __restrict arguments; extents, strides and scratchpad origins
     * are recomputed inside, so literal bounds stay literal.
     */
    void emitTiledStageCall(int gi, int s, const std::vector<int> &tiled,
                            const std::vector<std::int64_t> &tau);
    /** Scratchpad origins (ob_*) of group @p gi's current tile. */
    std::vector<LocalDef>
    scratchOrigins(int gi, const std::vector<int> &tiled,
                   const std::vector<std::int64_t> &tau);
    /**
     * Split nests on the outer loop variables their select conditions
     * test, so each piece's selects fold to one arm without relying on
     * the compiler to unswitch the outlined nest: a short literal loop
     * (the channel axis of `c == 0 ? ... : ...`) becomes one nest per
     * value, and a `x % m` test one strided nest per residue; each
     * nest's value has the variable (or the modulus) substituted and
     * the selects that became constant folded.
     */
    std::vector<CaseNest> specializeSelects(const pg::Stage &stage,
                                            const dsl::Case &cs,
                                            std::vector<CaseNest> nests);
    void emitUntiledStage(int gi, int s);
    void emitAccumulator(int gi, int s);
    void emitSelfRecurrent(int gi, int s);

    /**
     * Loop nest emission with bound locals, pragmas, and the body.
     * @p hoisted lines (loop-invariant `pm_base*` declarations) are
     * placed right before the innermost loop opens.
     */
    /**
     * @p vec_lines, when non-null, is an explicit vector body for the
     * innermost loop: it is split into a main loop advancing by
     * @p vec_lanes running the vector body and a scalar tail running
     * @p body_lines (the caller guarantees step 1, no guards, and that
     * the innermost dimension hosts neither the parallel pragma nor
     * the instrumented task timer).
     */
    void emitLoopNest(const std::vector<LoopDim> &dims,
                      const std::vector<std::string> &guards,
                      const std::vector<std::string> &body_lines,
                      bool parallel_outer, bool task_outer, int phase,
                      const std::vector<std::string> &hoisted = {},
                      const std::vector<std::string> *vec_lines = nullptr,
                      int vec_lanes = 0,
                      const std::vector<std::string> *masked_lines =
                          nullptr);

    /** Apply one analysed box's bounds and residues to a nest. */
    void applyBox(const poly::CondBox &box, const pg::Stage &stage,
                  const EmitEnv &env, std::vector<LoopDim> &dims,
                  std::vector<std::string> &guards);

    /**
     * Case condition -> the loop nests implementing it.  Normally one
     * nest (bounds folded in, residues strided, leftovers guarded);
     * when residual guards survive and partitioning is on, the
     * condition is split into a union of boxes and each clause becomes
     * its own guard-free nest (dense interior + narrow boundary
     * strips).
     */
    std::vector<CaseNest> caseNests(const pg::Stage &stage,
                                    const dsl::Case &cs,
                                    const EmitEnv &env,
                                    const std::vector<LoopDim> &base_dims);

    /**
     * Emit the loop nests of one function case: hoist sink setup, the
     * per-nest body rendering, and nest-census bookkeeping.  Shared by
     * the untiled and tiled stage emitters.
     */
    void emitCaseNests(int gi, int s, const dsl::Case &cs,
                       const EmitEnv &env,
                       const std::vector<std::string> &idx,
                       const std::vector<LoopDim> &base_dims,
                       bool parallel_outer, bool task_outer);

    /**
     * Attempt explicit vector emission for one guard-free nest
     * (docs/VECTORIZATION.md).  Must run while the hoist sink is still
     * active so vector loads share the scalar tail's pm_base locals.
     * Returns nullopt whenever the nest or the expression disqualifies
     * itself; the caller then keeps the pragma path.
     */
    std::optional<VecResult>
    tryVectorizeNest(int gi, int s, const dsl::Expr &value,
                     const EmitEnv &env, const CaseNest &nest,
                     const std::string &target, bool parallel_outer,
                     bool task_outer);

    /** The worksharing clause of every parallel loop. */
    std::string
    scheduleClause() const
    {
        return opts_.tileSchedule == OmpSchedule::Dynamic
                   ? "schedule(dynamic)"
                   : "schedule(static)";
    }

    EmitEnv makeEnv(const std::map<int, std::string> &var_names, int gi);

    /**
     * Vectorising the innermost loop only pays when it is long enough
     * (the paper defers this call to icc's cost model; omp simd is a
     * demand, so we gate it on the estimated extent).  @p d is the
     * innermost loop's dimension: the last one, or the one before it
     * when emitCaseNests unrolls the last.
     */
    bool
    innermostVectorizable(const pg::Stage &stage, std::size_t d)
    {
        const auto &dom = stage.loopDom();
        if (d >= dom.size())
            return false;
        auto lo = poly::evalConstant(dom[d].lower(), g_.estimateEnv());
        auto hi = poly::evalConstant(dom[d].upper(), g_.estimateEnv());
        if (!lo || !hi)
            return true; // unknown: assume long
        return *hi - *lo + 1 >= 8;
    }

    std::string flatIndexStr(const std::string &strides_base,
                             const std::vector<std::string> &idx);
    std::string fullIndex(int s_or_img, bool is_image,
                          const std::vector<std::string> &idx);
    std::string scratchIndex(int gi, int s,
                             const std::vector<std::string> &idx);

    std::string lenName(const std::string &base, int d);
    std::string strideName(const std::string &base, int d);

    std::string storeTarget(int gi, int s,
                            const std::vector<std::string> &idx);

    //------------------------------------------------------------------
    // State
    //------------------------------------------------------------------
    const pg::PipelineGraph &g_;
    const core::GroupingResult &grouping_;
    const core::GroupingOptions &gopts_;
    const core::StoragePlan &storage_;
    const CodegenOptions &opts_;
    const core::RangeAnalysis *ranges_;

    CodeWriter w_;
    /** Declarations of the entry-scope locals (buildLocals). */
    std::vector<LocalDef> locals_;
    LocalIndex localIndex_;
    /** One emitted function of the generated code. */
    struct Fn
    {
        std::string name;
        /** Signature, without body or semicolon. */
        std::string header;
        std::string text;
        /** Estimated compile cost (compileCost). */
        long long cost = 0;
        /**
         * Defined in unit 0 and not declared with the hidden functions:
         * an extern "C" entry (a driver) or the task arena, which the
         * prelude declares.
         */
        bool entry = false;
        /** The hidden functions it calls. */
        std::vector<std::string> callees;
    };
    /** Every emitted function: each group's function, then its nests. */
    std::vector<Fn> fns_;
    /** The defined hidden functions' names by alphaShape(). */
    std::unordered_multimap<std::uint64_t, std::string> fnByShape_;
    /** alphaKey() of the defined functions that needed one, by name. */
    std::unordered_map<std::string, std::string> fnKey_;

    /**
     * Insert @p fn into fns_ at @p pos and return its name, unless an
     * alpha-equivalent function is already defined: then return that
     * one's name and drop @p fn.
     */
    std::string
    define(Fn fn, std::size_t pos)
    {
        const std::uint64_t shape = alphaShape(fn.text);
        const auto [lo, hi] = fnByShape_.equal_range(shape);
        if (lo != hi) {
            std::string key = alphaKey(fn.text, fn.name);
            for (auto it = lo; it != hi; ++it) {
                auto [known, fresh] = fnKey_.try_emplace(it->second);
                if (fresh) {
                    const Fn &f = *std::find_if(
                        fns_.begin(), fns_.end(),
                        [&](const Fn &g) { return g.name == it->second; });
                    known->second = alphaKey(f.text, f.name);
                }
                if (known->second == key)
                    return it->second;
            }
            fnKey_.emplace(fn.name, std::move(key));
        }
        fnByShape_.emplace(shape, fn.name);
        std::string name = fn.name;
        fn.cost = compileCost(fn.text);
        fns_.insert(fns_.begin() + std::ptrdiff_t(pos), std::move(fn));
        return name;
    }
    /**
     * Name, call statement and argument names of each outlined
     * tiled-stage nest by (group, stage).  The nests are rendered on the primary pass; the
     * instrumented and task entries call the same functions.
     */
    struct NestCall
    {
        std::string name;
        std::string call;
        std::vector<std::string> args;
    };
    std::map<std::pair<int, int>, NestCall> nestCalls_;
    /** Scratchpad origins by group, with their index (scratchOrigins). */
    std::map<int, std::pair<std::vector<LocalDef>, LocalIndex>> origins_;
    /** Where emitTiledStageCall records the nests a group calls. */
    std::vector<std::string> *callees_ = nullptr;
    /**
     * Buffer, image, scratchpad, extent, stride and origin names the
     * function being rendered reads (recorded by use()); with the
     * parameters and tile sizes its text mentions, they select its
     * arguments and the entry-scope locals it declares.
     */
    std::set<std::string> *uses_ = nullptr;

    /** Record that the code being rendered reads @p name. */
    const std::string &
    use(const std::string &name)
    {
        if (uses_ != nullptr)
            uses_->insert(name);
        return name;
    }

    /**
     * The names a rendered function reads: its use() records plus the
     * parameters and tile sizes @p body mentions (matched as text; a
     * spurious match only adds an unused local or argument).
     */
    Names
    readNames(const std::set<std::string> &uses, const std::string &body)
    {
        Names names(uses.begin(), uses.end());
        const std::size_t scalars = g_.params().size() + tauDefault_.size();
        for (std::size_t i = 0; i < scalars; ++i) {
            const std::string &n = nestArgs_[i].first;
            if (body.find(n) != std::string::npos)
                names.insert(n);
        }
        return names;
    }
    /**
     * Entry-scope names a nest function takes as arguments, in
     * signature order, with their declarations: parameters and tile
     * sizes by value (first), image, buffer and scratchpad pointers
     * __restrict (buildLocals).
     */
    std::vector<std::pair<std::string, std::string>> nestArgs_;
    Names nestArgNames_;
    std::set<std::string> used_;
    std::map<int, std::string> stageName_; // stage idx -> unique name
    std::map<int, std::string> imageName_; // image entity id -> name
    std::map<int, std::string> paramName_; // param entity id -> name

    bool instr_ = false; // currently emitting the instrumented body
    bool task_ = false;  // currently emitting the task-ABI body
    bool vec_ = false;   // simd/ivdep pragmas currently enabled
    bool ompForOnly_ = false; // emit `omp for` (inside a parallel region)
    int phase_ = 0;      // parallel-phase counter (instrumented body)
    int tmp_ = 0;        // unique counter for bound locals
    /**
     * Active invariant-hoist collector; flatIndexStr/scratchIndex
     * route their terms through it while a loop body renders.  Null
     * outside function-stage bodies (reductions, bound expressions).
     */
    HoistSink *hoist_ = nullptr;
    int hoistTmp_ = 0; // unique counter for pm_base locals, per entry
    int cseTmp_ = 0;   // unique counter for hoistable pm_cse locals
    /** phase id -> owning group, filled on the first emission pass. */
    std::vector<int> phaseGroup_;
    /** Largest padded per-thread heap scratch arena emitted. */
    std::int64_t heapArenaBytes_ = 0;
    /** Nest census of the primary entry (GeneratedCode observability). */
    int interiorNests_ = 0;
    int guardedNests_ = 0;
    int partitionedCases_ = 0;
    /** Vector typedefs requested while bodies rendered (prepended to
     * the prelude afterwards). */
    VecTypes vtypes_;
    /** Per-group explicit-vectorisation census of the primary entry. */
    std::map<int, GeneratedCode::GroupVectorInfo> groupVec_;
    int explicitNests_ = 0;
    int maskedEpilogues_ = 0;
    /**
     * Shape-generic mode: compile-time tile sizes, one per runtime
     * tile parameter (max tiled-dim count over the tiled groups).
     * Empty when tile sizes are folded as literal constants.
     */
    std::vector<std::int64_t> tauDefault_;

    /** Tile-size term for tiled dim @p ti of a group: the `pm_tau<k>`
     * local in shape-generic mode, the literal otherwise. */
    std::string
    tauTerm(std::size_t ti, std::int64_t literal) const
    {
        if (tauDefault_.empty())
            return std::to_string(literal);
        const std::size_t k = std::min(ti, tauDefault_.size() - 1);
        return "pm_tau" + std::to_string(k);
    }

    /** Same, as a long long multiplicand (`32LL` vs `pm_tau0`). */
    std::string
    tauTermLL(std::size_t ti, std::int64_t literal) const
    {
        if (tauDefault_.empty())
            return std::to_string(literal) + "LL";
        return tauTerm(ti, literal);
    }
};

std::string
Generator::lenName(const std::string &base, int d)
{
    return use("len_" + base + "_" + std::to_string(d));
}

std::string
Generator::strideName(const std::string &base, int d)
{
    return use("st_" + base + "_" + std::to_string(d));
}

void
Generator::emitPrelude()
{
    w_.line("// Generated by PolyMage-cpp. Do not edit.");
    w_.line("#include <cstdlib>");
    w_.line("#include <ctime>");
    w_.blank();
    // Group and nest functions: hidden (direct calls across the units
    // of one shared object) and never inlined back into their caller,
    // which would rebuild the one giant function the split avoids.
    w_.line("#define PM_FN __attribute__((visibility(\"hidden\"), "
            "noinline))");
    w_.line("static inline long long pm_floordiv(long long a, long long "
            "b)");
    w_.open("");
    w_.line("long long q = a / b, r = a % b;");
    w_.line("if (r != 0 && ((r < 0) != (b < 0))) --q;");
    w_.line("return q;");
    w_.close();
    w_.line("static inline long long pm_floormod(long long a, long long "
            "b)");
    w_.open("");
    w_.line("return a - pm_floordiv(a, b) * b;");
    w_.close();
    w_.line("static inline long long pm_min_i(long long a, long long b) "
            "{ return a < b ? a : b; }");
    w_.line("static inline long long pm_max_i(long long a, long long b) "
            "{ return a > b ? a : b; }");
    w_.line("static inline float pm_min_f(float a, float b) "
            "{ return a < b ? a : b; }");
    w_.line("static inline float pm_max_f(float a, float b) "
            "{ return a > b ? a : b; }");
    w_.line("static inline double pm_min_d(double a, double b) "
            "{ return a < b ? a : b; }");
    w_.line("static inline double pm_max_d(double a, double b) "
            "{ return a > b ? a : b; }");
    // All heap blocks the generated code allocates itself (per-thread
    // scratch arenas, privatised reduction copies) are 64-byte aligned
    // so vector loads/stores never split cache lines.
    w_.line("static inline void *pm_alloc(long long bytes)");
    w_.open("");
    w_.line("if (bytes < 64) bytes = 64;");
    w_.line("bytes = (bytes + 63) & ~63LL;");
    w_.line("return std::aligned_alloc(64, (unsigned long)bytes);");
    w_.close();
    if (opts_.taskABI)
        w_.line(std::string(kTaskArenaDecl) + ";");
    w_.line("static inline double pm_now()");
    w_.open("");
    w_.line("struct timespec ts;");
    w_.line("clock_gettime(CLOCK_MONOTONIC, &ts);");
    w_.line("return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);");
    w_.close();
    w_.line("static inline void pm_record(double *costs, long long "
            "*gids, long long cap, long long *n, long long gid, double "
            "dt)");
    w_.open("");
    w_.line("if (*n < cap) { costs[*n] = dt; gids[*n] = gid; }");
    w_.line("++*n;");
    w_.close();
    w_.blank();
}

EmitEnv
Generator::makeEnv(const std::map<int, std::string> &var_names, int gi)
{
    EmitEnv env;
    env.varName = var_names;
    env.paramName = paramName_;
    env.access = [this, gi](const dsl::CallNode &call,
                            const std::vector<std::string> &idx) {
        if (call.callee->kind() == dsl::CallableData::Kind::Image) {
            return fullIndex(call.callee->id(), true, idx);
        }
        const int p = g_.stageIndexOf(call.callee->id());
        PM_ASSERT(p >= 0, "call to unknown stage");
        if (storage_.isScratch(p))
            return scratchIndex(gi, p, idx);
        return fullIndex(p, false, idx);
    };
    return env;
}

std::string
Generator::flatIndexStr(const std::string &strides_base,
                        const std::vector<std::string> &idx)
{
    std::vector<std::string> terms;
    for (std::size_t d = 0; d < idx.size(); ++d) {
        if (d + 1 == idx.size())
            terms.push_back("(" + idx[d] + ")");
        else
            terms.push_back("(long long)(" + idx[d] + ") * " +
                            strideName(strides_base, int(d)));
    }
    return joinHoistedIndex(terms, hoist_);
}

std::string
Generator::fullIndex(int s_or_img, bool is_image,
                     const std::vector<std::string> &idx)
{
    const std::string base = use(is_image ? imageName_.at(s_or_img)
                                          : "buf_" + stageName(s_or_img));
    const std::string strides_base =
        is_image ? imageName_.at(s_or_img) : stageName(s_or_img);
    return base + "[" + flatIndexStr(strides_base, idx) + "]";
}

std::string
Generator::scratchIndex(int gi, int s, const std::vector<std::string> &idx)
{
    const GroupSchedule &grp = grouping_.groups[gi];
    const StageMapping &m = grp.mapping.at(s);
    const auto &ext = storage_.stages.at(s).scratchExtent;
    const auto tiled = core::tiledDimsFor(grp, g_, gopts_);

    // Row-major strides over the compile-time extents.
    std::vector<std::int64_t> strides(ext.size(), 1);
    for (int d = int(ext.size()) - 2; d >= 0; --d)
        strides[d] = strides[d + 1] * ext[d + 1];

    std::vector<std::string> terms;
    for (std::size_t d = 0; d < idx.size(); ++d) {
        auto pos = std::find(tiled.begin(), tiled.end(), m.groupDim[d]);
        std::string term;
        if (pos != tiled.end()) {
            const int ti = int(pos - tiled.begin());
            term = "((" + idx[d] + ") - " +
                   use("ob_" + stageName(s) + "_" + std::to_string(ti)) +
                   ")";
        } else {
            term = "(" + idx[d] + ")";
        }
        if (strides[d] != 1)
            term += " * " + std::to_string(strides[d]);
        terms.push_back(std::move(term));
    }
    return use("scr_" + stageName(s)) + "[" +
           joinHoistedIndex(terms, hoist_) + "]";
}

std::string
Generator::storeTarget(int gi, int s, const std::vector<std::string> &idx)
{
    if (storage_.isScratch(s))
        return scratchIndex(gi, s, idx);
    return fullIndex(s, false, idx);
}

void
Generator::applyBox(const poly::CondBox &box, const pg::Stage &stage,
                    const EmitEnv &env, std::vector<LoopDim> &dims,
                    std::vector<std::string> &guards)
{
    const auto &vars = stage.loopVars();
    for (std::size_t d = 0; d < vars.size(); ++d) {
        auto it = box.bounds.find(vars[d].id());
        if (it == box.bounds.end())
            continue;
        for (const auto &lo : it->second.lowers) {
            dims[d].lb.push_back(emitAffineInt(lo, paramName_));
            // Refine the extent estimate so a 2-wide boundary strip
            // never hosts the parallel pragma.
            if (dims[d].estExtent >= 0) {
                if (auto v = evalAffineParams(lo, g_.estimateEnv()))
                    dims[d].estLo = std::max(dims[d].estLo, *v);
            }
        }
        for (const auto &hi : it->second.uppers) {
            dims[d].ub.push_back(emitAffineInt(hi, paramName_));
            if (dims[d].estExtent >= 0) {
                if (auto v = evalAffineParams(hi, g_.estimateEnv()))
                    dims[d].estHi = std::min(dims[d].estHi, *v);
            }
        }
        if (dims[d].estExtent >= 0) {
            dims[d].estExtent =
                std::max<std::int64_t>(0,
                                       dims[d].estHi - dims[d].estLo + 1);
        }
    }
    for (const auto &res : box.residual) {
        int var_id = -1;
        std::int64_t step = 1, phase = 0;
        if (matchResidue(res, env.varName, var_id, step, phase)) {
            for (std::size_t d = 0; d < vars.size(); ++d) {
                if (vars[d].id() == var_id && dims[d].step == 1) {
                    dims[d].step = step;
                    dims[d].phase = phase;
                    var_id = -1; // consumed
                    break;
                }
            }
            if (var_id == -1)
                continue;
        }
        guards.push_back(emitCond(res, env));
    }
}

std::optional<VecResult>
Generator::tryVectorizeNest(int gi, int s, const dsl::Expr &value,
                            const EmitEnv &env, const CaseNest &nest,
                            const std::string &target,
                            bool parallel_outer, bool task_outer)
{
    if (opts_.vectorize != VectorizeMode::Explicit || !vec_ ||
        !nest.guards.empty() || nest.dims.empty() ||
        nest.dims.back().step != 1)
        return std::nullopt;
    // The innermost loop cannot both host the parallel pragma (or the
    // instrumented task timer) and be split into main + tail.
    if (parallel_outer || task_outer) {
        std::size_t pd = 0;
        for (std::size_t d = 0; d < nest.dims.size(); ++d) {
            pd = d;
            if (nest.dims[d].estExtent < 0 ||
                nest.dims[d].estExtent >= opts_.minParallelExtent)
                break;
        }
        if (pd + 1 == nest.dims.size())
            return std::nullopt;
    }

    const pg::Stage &stage = g_.stage(s);
    const auto &vars = stage.loopVars();
    const auto &dom = stage.loopDom();
    if (vars.empty() || vars.size() != nest.dims.size())
        return std::nullopt;

    // Interval evaluator with every loop variable bound to its domain
    // (parameter bounds feed in through ParamRef; anything unbounded
    // only widens, failing proofs conservatively).
    core::ExprRangeEval ev(ranges_, g_);
    for (std::size_t d = 0; d < vars.size() && d < dom.size(); ++d) {
        const core::ValueInterval lo = ev.eval(dom[d].lower());
        const core::ValueInterval hi = ev.eval(dom[d].upper());
        ev.bindVar(vars[d].id(), {lo.lo, hi.hi, true});
    }

    VecRequest req;
    req.value = value;
    req.declared = stage.func().dtype();
    req.storeType = storage_.elemType(s, g_);
    req.target = target;
    req.env = &env;
    req.innerVarId = vars.back().id();
    req.innerVarName = nest.dims.back().var;
    req.vectorBits = machine::machineInfo().vectorBits;
    req.loadType = [this](const dsl::CallNode &call) {
        if (call.callee->kind() == dsl::CallableData::Kind::Image)
            return call.callee->dtype();
        const int p = g_.stageIndexOf(call.callee->id());
        return storage_.elemType(p, g_);
    };
    req.rangeEval = &ev;
    return tryVectorize(req, vtypes_);
}

std::vector<CaseNest>
Generator::caseNests(const pg::Stage &stage, const dsl::Case &cs,
                     const EmitEnv &env,
                     const std::vector<LoopDim> &base_dims)
{
    std::vector<CaseNest> nests;
    if (!cs.hasCondition()) {
        nests.push_back({base_dims, {}, {}});
        return nests;
    }
    std::set<int> var_ids;
    for (const auto &v : stage.loopVars())
        var_ids.insert(v.id());

    CaseNest single;
    single.dims = base_dims;
    applyBox(poly::analyzeCondition(cs.condition(), var_ids), stage, env,
             single.dims, single.guards);
    if (single.guards.empty() || !opts_.partition) {
        nests.push_back(std::move(single));
        return nests;
    }

    // Residual guards survived: split the condition into a union of
    // boxes and give each clause its own nest with the clause bounds
    // folded in -- the interior clause becomes the dense guard-free
    // steady-state loop, boundary clauses narrow strips.  Overlapping
    // clauses are safe here because function cases are idempotent pure
    // assignments (accumulators and self-recurrent stages never reach
    // this path).
    auto clauses = poly::analyzeUnion(cs.condition(), var_ids);
    if (clauses && clauses->size() > 1) {
        std::vector<CaseNest> split;
        bool any_clean = false;
        for (const auto &box : *clauses) {
            CaseNest n;
            n.dims = base_dims;
            applyBox(box, stage, env, n.dims, n.guards);
            any_clean |= n.guards.empty();
            split.push_back(std::move(n));
        }
        // Only worth emitting when at least one clause dropped its
        // guard; otherwise the split just duplicates guarded sweeps.
        if (any_clean) {
            if (!instr_ && !task_)
                ++partitionedCases_;
            return split;
        }
    }
    nests.push_back(std::move(single));
    return nests;
}

std::vector<CaseNest>
Generator::specializeSelects(const pg::Stage &stage, const dsl::Case &cs,
                             std::vector<CaseNest> nests)
{
    if (!vec_)
        return nests;
    const auto &vars = stage.loopVars();
    std::vector<CaseNest> out;
    std::reverse(nests.begin(), nests.end()); // a stack, front on top
    while (!nests.empty()) {
        CaseNest nest = std::move(nests.back());
        nests.pop_back();
        const dsl::Expr value =
            nest.value.defined() ? nest.value : cs.value();
        // The outermost splittable dimension; the pieces go back on the
        // work list, where an inner dimension may split them again.
        std::vector<CaseNest> pieces;
        for (std::size_t d = 0;
             d + 1 < nest.dims.size() && d < vars.size() && pieces.empty();
             ++d) {
            const LoopDim &ld = nest.dims[d];
            if (ld.step != 1)
                continue;
            const int var = vars[d].id();
            std::int64_t lo = 0, hi = -1;
            if (literalBound(ld.lb, lo) && literalBound(ld.ub, hi) &&
                hi > lo && hi - lo < kMaxSelectSplit &&
                selectsOn(value, var)) {
                // A short literal loop (a channel axis): one nest per
                // value, pinned in the bounds and in the value.
                for (std::int64_t v = lo; v <= hi; ++v) {
                    CaseNest one = nest;
                    LoopDim &od = one.dims[d];
                    od.lb = {std::to_string(v)};
                    od.ub = {std::to_string(v)};
                    od.estLo = od.estHi = v;
                    od.estExtent = 1;
                    one.value = foldSelects(
                        dsl::substituteVars(value, {{var, Expr(int(v))}}));
                    pieces.push_back(std::move(one));
                }
            } else if (const std::int64_t m = selectModulus(value, var)) {
                // A parity-style test on an outer variable: one strided
                // nest per residue, with `var % m` folded to it.
                for (std::int64_t p = 0; p < m; ++p) {
                    CaseNest one = nest;
                    LoopDim &od = one.dims[d];
                    od.step = m;
                    od.phase = p;
                    one.value = foldSelects(dsl::rewriteExpr(
                        value,
                        [&](const dsl::ExprNode &n) -> std::optional<Expr> {
                            if (modulusOf(n, var) != m)
                                return std::nullopt;
                            return Expr(std::make_shared<dsl::ConstIntNode>(
                                p, n.dtype()));
                        }));
                    pieces.push_back(std::move(one));
                }
            }
        }
        if (pieces.empty()) {
            out.push_back(std::move(nest));
            continue;
        }
        for (auto it = pieces.rbegin(); it != pieces.rend(); ++it)
            nests.push_back(std::move(*it));
    }
    return out;
}

void
Generator::emitCaseNests(int gi, int s, const dsl::Case &cs,
                         const EmitEnv &env,
                         const std::vector<std::string> &idx,
                         const std::vector<LoopDim> &base_dims,
                         bool parallel_outer, bool task_outer)
{
    const pg::Stage &stage = g_.stage(s);
    const auto &f = stage.func();
    std::vector<CaseNest> nests = caseNests(stage, cs, env, base_dims);
    // Per-tile nests are outlined (emitTiledStageCall), where the
    // compiler no longer unswitches their outer-variable selects.
    if (!task_outer)
        nests = specializeSelects(stage, cs, std::move(nests));
    const bool stage_vec = vec_;
    for (CaseNest &nest : nests) {
        // A short literal innermost loop (bilateral's 2-wide channel
        // axis `cc`) is unrolled here: one statement per value, with
        // the variable substituted and the selects that became
        // constant folded.  The loop around it is then the innermost
        // one and vectorises under `omp simd`, the vector code g++ -O3
        // found by unrolling and SLP, which -O1 does not run.
        const std::vector<std::int64_t> unrolled = shortInnerValues(nest);
        if (!unrolled.empty()) {
            nest.dims.pop_back();
            vec_ = opts_.vectorize != VectorizeMode::Off &&
                   innermostVectorizable(stage, nest.dims.size() - 1);
        }
        // Render the body with the invariant-hoist sink active: every
        // flat-index prefix not involving the innermost loop variable
        // lands in sink.lines as a pm_base local, declared by
        // emitLoopNest right before the innermost loop opens.
        HoistSink sink;
        HoistSink *saved = hoist_;
        if (opts_.hoistBases && !nest.dims.empty()) {
            sink.innerVar = nest.dims.back().var;
            sink.counter = hoistTmp_;
            sink.cseCounter = cseTmp_;
            hoist_ = &sink;
        } else {
            hoist_ = nullptr;
        }
        const dsl::Expr &value =
            nest.value.defined() ? nest.value : cs.value();
        std::vector<std::string> body;
        std::optional<VecResult> vres;
        if (unrolled.empty()) {
            const std::string target = storeTarget(gi, s, idx);
            body = emitAssignWithCSE(value, target, f.dtype(), env, hoist_);
            // Attempt the explicit vector body while the hoist sink is
            // still active: vector loads route through the same pm_base
            // locals the scalar tail uses.
            vres = tryVectorizeNest(gi, s, value, env, nest, target,
                                    parallel_outer, task_outer);
        }
        const std::size_t inner = nest.dims.size(); // the unrolled dim
        for (const std::int64_t v : unrolled) {
            std::vector<std::string> at = idx;
            at[inner] = std::to_string(v);
            std::vector<std::string> lines = emitAssignWithCSE(
                foldSelects(dsl::substituteVars(
                    value, {{stage.loopVars()[inner].id(), Expr(int(v))}})),
                storeTarget(gi, s, at), f.dtype(), env, hoist_);
            // Without the sink every statement numbers its temporaries
            // from 0: give each its own scope.
            if (hoist_ == nullptr) {
                lines.insert(lines.begin(), "{");
                lines.push_back("}");
            }
            body.insert(body.end(), lines.begin(), lines.end());
        }
        hoistTmp_ = std::max(hoistTmp_, sink.counter);
        cseTmp_ = std::max(cseTmp_, sink.cseCounter);
        hoist_ = saved;
        const bool masked = opts_.maskedEpilogue && vres &&
                            !vres->maskedLines.empty();
        if (!instr_ && !task_) {
            if (nest.guards.empty())
                ++interiorNests_;
            else
                ++guardedNests_;
            if (opts_.vectorize == VectorizeMode::Explicit &&
                nest.guards.empty()) {
                GeneratedCode::GroupVectorInfo &gv = groupVec_[gi];
                gv.group = gi;
                ++gv.interiorNests;
                if (vres) {
                    ++gv.vectorNests;
                    ++explicitNests_;
                    if (masked)
                        ++maskedEpilogues_;
                    if (vres->lanes > gv.lanes) {
                        gv.lanes = vres->lanes;
                        gv.elem = vres->elemTag;
                    }
                }
            }
        }
        // Task mode: each untiled nest is its own dispatch phase; the
        // guard block scopes the phase's task-count locals.
        if (task_ && task_outer) {
            w_.open("if (pm_phase == " + std::to_string(phase_) + ")");
        }
        emitLoopNest(nest.dims, nest.guards, body, parallel_outer,
                     task_outer, phase_, sink.lines,
                     vres ? &vres->lines : nullptr,
                     vres ? vres->lanes : 0,
                     masked ? &vres->maskedLines : nullptr);
        if (task_ && task_outer) {
            w_.line("return 0;");
            w_.close();
        }
        // Untiled nests each own a parallel phase; inside a tiled
        // group the surrounding tile loop owns the (single) phase.
        if (task_outer)
            ++phase_;
        vec_ = stage_vec;
    }
}

namespace {

std::string
foldMinMax(const std::vector<std::string> &terms, const char *fn)
{
    PM_ASSERT(!terms.empty(), "no bound terms");
    std::string s = terms.back();
    for (int i = int(terms.size()) - 2; i >= 0; --i)
        s = std::string(fn) + "(" + terms[i] + ", " + s + ")";
    return s;
}

} // namespace

void
Generator::emitLoopNest(const std::vector<LoopDim> &dims,
                        const std::vector<std::string> &guards,
                        const std::vector<std::string> &body_lines,
                        bool parallel_outer, bool task_outer, int phase,
                        const std::vector<std::string> &hoisted,
                        const std::vector<std::string> *vec_lines,
                        int vec_lanes,
                        const std::vector<std::string> *masked_lines)
{
    // The parallel loop: the first dimension long enough to feed the
    // worker pool (a 3-wide channel axis outermost must not cap the
    // parallelism; the paper's baselines parallelise rows).
    std::size_t par_d = 0;
    for (std::size_t d = 0; d < dims.size(); ++d) {
        par_d = d;
        if (dims[d].estExtent < 0 ||
            dims[d].estExtent >= opts_.minParallelExtent)
            break;
    }

    // Bound locals, then nested loops.
    int opened = 0;
    const std::string sched = scheduleClause();
    std::size_t d0 = 0;
    if (task_ && task_outer && !dims.empty()) {
        // Task-ABI root: the dimensions up to and including the
        // parallel one flatten into one closed task index; the caller
        // executes [pm_lo, pm_hi] of them.  Every bound here is
        // loop-invariant (function-stage domains are rectangular over
        // the parameters), so the counts resolve before any loop opens.
        std::vector<std::string> starts, counts;
        for (std::size_t d = 0; d <= par_d; ++d) {
            const std::string lb = "lb" + std::to_string(tmp_);
            const std::string ub = "ub" + std::to_string(tmp_);
            w_.line("const int " + lb + " = (int)" +
                    foldMinMax(dims[d].lb, "pm_max_i") + ";");
            w_.line("const int " + ub + " = (int)" +
                    foldMinMax(dims[d].ub, "pm_min_i") + ";");
            std::string start = lb;
            if (dims[d].step > 1) {
                const std::string aligned = lb + "a";
                w_.line("const int " + aligned + " = " + lb + " + (int)" +
                        floorModLiteral("(" +
                                            std::to_string(dims[d].phase) +
                                            " - " + lb + ")",
                                        dims[d].step) +
                        ";");
                start = aligned;
            }
            const std::string cnt = "pm_c" + std::to_string(tmp_);
            w_.line("const long long " + cnt + " = " + ub + " >= " +
                    start + " ? ((long long)(" + ub + " - " + start +
                    ") / " + std::to_string(dims[d].step) +
                    " + 1) : 0;");
            ++tmp_;
            starts.push_back(std::move(start));
            counts.push_back(cnt);
        }
        std::string prod = counts[0];
        for (std::size_t i = 1; i < counts.size(); ++i)
            prod += " * " + counts[i];
        w_.line("const long long pm_n = " + prod + ";");
        w_.line("if (pm_lo < 0) return pm_n;");
        w_.line("const long long pm_te = pm_min_i(pm_hi, pm_n - 1);");
        w_.open("for (long long pm_t = pm_lo; pm_t <= pm_te; ++pm_t)");
        ++opened;
        if (par_d > 0)
            w_.line("long long pm_tr = pm_t;");
        // Decompose the flat index, the parallel dimension fastest so
        // adjacent tasks touch adjacent rows.
        for (std::size_t i = par_d + 1; i-- > 0;) {
            const std::string idx =
                par_d == 0 ? "pm_t"
                           : (i == 0 ? "pm_tr"
                                     : "(pm_tr % " + counts[i] + ")");
            std::string term = "(int)" + idx;
            if (dims[i].step > 1)
                term = "(int)(" + idx + " * " +
                       std::to_string(dims[i].step) + ")";
            w_.line("const int " + dims[i].var + " = " + starts[i] +
                    " + " + term + ";");
            if (par_d > 0 && i != 0)
                w_.line("pm_tr /= " + counts[i] + ";");
        }
        d0 = par_d + 1;
        if (d0 == dims.size()) {
            for (const auto &l : hoisted)
                w_.line(l);
        }
    }
    for (std::size_t d = d0; d < dims.size(); ++d) {
        // Loop-invariant address bases: declared once per iteration of
        // the enclosing loop, right before the innermost loop opens.
        if (d + 1 == dims.size()) {
            for (const auto &l : hoisted)
                w_.line(l);
        }
        const std::string lb = "lb" + std::to_string(tmp_);
        const std::string ub = "ub" + std::to_string(tmp_);
        ++tmp_;
        w_.line("const int " + lb + " = (int)" +
                foldMinMax(dims[d].lb, "pm_max_i") + ";");
        w_.line("const int " + ub + " = (int)" +
                foldMinMax(dims[d].ub, "pm_min_i") + ";");
        std::string start = lb;
        std::string inc = "++" + dims[d].var;
        if (dims[d].step > 1) {
            // Align the lower bound to the residue class and stride.
            const std::string aligned = lb + "a";
            w_.line("const int " + aligned + " = " + lb + " + (int)" +
                    floorModLiteral("(" + std::to_string(dims[d].phase) +
                                        " - " + lb + ")",
                                    dims[d].step) +
                    ";");
            start = aligned;
            inc = dims[d].var + " += " + std::to_string(dims[d].step);
        }
        if (d + 1 == dims.size() && vec_lines != nullptr) {
            // Explicit vector split: a main loop advancing by the lane
            // count running the vector body, then a scalar tail.  The
            // extra block scopes the shared induction variable so
            // sibling nests can reuse the claimed name.
            const std::string lanes1 = std::to_string(vec_lanes - 1);
            w_.open("");
            w_.line("int " + dims[d].var + " = " + start + ";");
            w_.open("for (; " + dims[d].var + " + " + lanes1 + " <= " +
                    ub + "; " + dims[d].var + " += " +
                    std::to_string(vec_lanes) + ")");
            for (const auto &l : *vec_lines)
                w_.line(l);
            w_.close();
            if (masked_lines != nullptr) {
                // Masked epilogue: when a remainder exists and the row
                // holds at least one full vector, back the final
                // iteration up to end exactly at the bound and blend
                // the store so the pm_vskip already-written leading
                // lanes keep their values.  Rows shorter than one
                // vector fall through to the scalar tail.  The guard
                // condition lives in a named pm_tail local so source
                // inspection (and the partition tests) can tell this
                // single per-row branch apart from per-point guards.
                const std::string back = ub + " - " + lanes1;
                w_.line("const bool pm_tail = " + dims[d].var +
                        " <= " + ub + " && " + back + " >= " + start +
                        ";");
                w_.open("if (pm_tail)");
                w_.line("const int pm_vskip = " + dims[d].var + " - (" +
                        back + ");");
                w_.line(dims[d].var + " = " + back + ";");
                for (const auto &l : *masked_lines)
                    w_.line(l);
                w_.line(dims[d].var + " = " + ub + " + 1;");
                w_.close();
            }
            // The scalar remainder runs fewer than one vector's worth of
            // iterations (with the masked epilogue, only on rows
            // shorter than a vector), so it stays scalar: `if(0)`
            // keeps g++'s loop vectoriser, where flags turn it on, from
            // vectorising it a second time (GCC 12 has no novector
            // pragma), and the clause needs the canonical loop form,
            // hence the fresh induction variable.
            w_.line("const int pm_rem = " + dims[d].var + ";");
            w_.line("#pragma omp simd if(0)");
            w_.open("for (int " + dims[d].var + " = pm_rem; " +
                    dims[d].var + " <= " + ub + "; ++" + dims[d].var +
                    ")");
            opened += 2; // wrapper block + tail loop
            continue;
        }
        const bool outer_par = d == par_d && parallel_outer && !instr_;
        // A nest that kept a residual guard has per-point control flow
        // in its body; keep `omp simd` off it and let the compiler
        // decide (the partitioned interior nests are the ones that
        // must vectorise).
        const bool inner_vec =
            d + 1 == dims.size() && vec_ && guards.empty();
        if (outer_par && inner_vec) {
            w_.line(ompForOnly_
                        ? "#pragma omp for simd " + sched + " nowait"
                        : "#pragma omp parallel for simd " + sched);
        } else if (outer_par) {
            w_.line(ompForOnly_
                        ? "#pragma omp for " + sched + " nowait"
                        : "#pragma omp parallel for " + sched);
        } else if (inner_vec) {
            // omp simd carries the no-loop-carried-dependence promise
            // the paper expresses with icc's ivdep.
            w_.line("#pragma omp simd");
        }
        w_.open("for (int " + dims[d].var + " = " + start + "; " +
                dims[d].var + " <= " + ub + "; " + inc + ")");
        ++opened;
        if (d == par_d && task_outer && instr_)
            w_.line("const double pm_t0 = pm_now();");
    }
    int guard_blocks = 0;
    for (const auto &gd : guards) {
        w_.open("if (" + gd + ")");
        ++guard_blocks;
    }
    for (const auto &l : body_lines)
        w_.line(l);
    for (int i = 0; i < guard_blocks; ++i)
        w_.close();
    for (int i = 0; i < opened; ++i) {
        // Closing from the innermost out: record the task when leaving
        // the parallel dimension's body.
        if (i == opened - 1 - int(par_d) && task_outer && instr_) {
            w_.line("pm_record(pm_costs, pm_gids, pm_cap, &pm_task, " +
                    std::to_string(phase) + ", pm_now() - pm_t0);");
        }
        w_.close();
    }
}

void
Generator::emitUntiledStage(int gi, int s)
{
    const pg::Stage &stage = g_.stage(s);
    const auto &f = stage.func();
    const auto &vars = f.vars();

    const bool saved_vec = vec_;
    vec_ = vec_ &&
           innermostVectorizable(stage, stage.loopDom().size() - 1);
    for (const auto &cs : f.cases()) {
        std::map<int, std::string> var_names;
        std::vector<LoopDim> dims(vars.size());
        for (std::size_t d = 0; d < vars.size(); ++d) {
            var_names[vars[d].id()] = claim(sanitize(vars[d].name()));
            dims[d].var = var_names[vars[d].id()];
        }
        EmitEnv env = makeEnv(var_names, gi);
        for (std::size_t d = 0; d < vars.size(); ++d) {
            dims[d].lb.push_back(emitExpr(f.dom()[d].lower(), env));
            dims[d].ub.push_back(emitExpr(f.dom()[d].upper(), env));
            auto lo = poly::evalConstant(f.dom()[d].lower(),
                                         g_.estimateEnv());
            auto hi = poly::evalConstant(f.dom()[d].upper(),
                                         g_.estimateEnv());
            if (lo && hi) {
                dims[d].estLo = *lo;
                dims[d].estHi = *hi;
                dims[d].estExtent = *hi - *lo + 1;
            }
        }
        std::vector<std::string> idx;
        for (const auto &v : vars)
            idx.push_back(var_names[v.id()]);
        emitCaseNests(gi, s, cs, env, idx, dims,
                      /*parallel_outer=*/opts_.parallelize,
                      /*task_outer=*/true);
        // Free the claimed loop-variable names for reuse elsewhere.
        for (const auto &[id, nm] : var_names) {
            (void)id;
            used_.erase(nm);
        }
    }
    vec_ = saved_vec;
}

void
Generator::emitTiledGroup(int gi)
{
    const GroupSchedule &grp = grouping_.groups[gi];
    const auto tiled = core::tiledDimsFor(grp, g_, gopts_);
    PM_ASSERT(!tiled.empty(), "tiled group without tiled dims");

    // Tile sizes per tiled dim.
    std::vector<std::int64_t> tau;
    for (std::size_t i = 0; i < tiled.size(); ++i)
        tau.push_back(core::tileSizeFor(gopts_, int(i)));

    EmitEnv param_env = makeEnv({}, gi);

    // Task mode: the whole tiled group is one phase whose tasks are
    // the outer-tile (T0) iterations; the guard block scopes the
    // tile-range and task-count locals.
    if (task_)
        w_.open("if (pm_phase == " + std::to_string(phase_) + ")");

    // Tile index ranges covering every stage's domain in group coords.
    std::vector<std::string> tlo(tiled.size()), thi(tiled.size());
    for (std::size_t ti = 0; ti < tiled.size(); ++ti) {
        const int gd = tiled[ti];
        std::vector<std::string> glo_terms, ghi_terms;
        for (int s : grp.stages) {
            const StageMapping &m = grp.mapping.at(s);
            const auto &dom = g_.stage(s).func().dom();
            for (std::size_t d = 0; d < m.groupDim.size(); ++d) {
                if (m.groupDim[d] != gd)
                    continue;
                const std::string k =
                    m.scale[d] == 1
                        ? ""
                        : std::to_string(m.scale[d]) + "LL * ";
                glo_terms.push_back(
                    "(" + k + "(long long)" +
                    emitExpr(dom[d].lower(), param_env) + ")");
                ghi_terms.push_back(
                    "(" + k + "(long long)" +
                    emitExpr(dom[d].upper(), param_env) + ")");
            }
        }
        const std::string glo = foldMinMax(glo_terms, "pm_min_i");
        const std::string ghi = foldMinMax(ghi_terms, "pm_max_i");
        const std::string t = std::to_string(ti);
        // Literal tile sizes divide like any literal; a runtime
        // `pm_tau` needs the general floor division.
        auto tile_of = [&](const std::string &g) {
            return tauDefault_.empty()
                       ? floorDivLiteral(g, tau[ti])
                       : "pm_floordiv(" + g + ", " + tauTerm(ti, tau[ti]) +
                             ")";
        };
        w_.line("const long long tlo" + t + "_g" + std::to_string(gi) +
                " = " + tile_of(glo) + ";");
        w_.line("const long long thi" + t + "_g" + std::to_string(gi) +
                " = " + tile_of(ghi) + ";");
        tlo[ti] = "tlo" + t + "_g" + std::to_string(gi);
        thi[ti] = "thi" + t + "_g" + std::to_string(gi);
    }

    const bool heap_scratch =
        grouping_.groups.size() &&
        storage_.groupScratchBytes.count(gi) &&
        storage_.groupScratchBytes.at(gi) > opts_.maxStackScratchBytes;
    const bool par_tiles = opts_.parallelize && !instr_ && !task_;

    if (task_) {
        // Task count resolves before the heap arena (if any) is
        // allocated, so count queries stay allocation-free.
        w_.line("const long long pm_n = " + thi[0] + " >= " + tlo[0] +
                " ? " + thi[0] + " - " + tlo[0] + " + 1 : 0;");
        w_.line("if (pm_lo < 0) return pm_n;");
    }

    // Heap scratch: one 64-byte-aligned thread-private arena per call,
    // hoisted out of the tile loop (an explicit parallel region with
    // the worksharing `omp for` inside), carved into per-stage
    // scratchpads at padded offsets.  Per-tile work then touches only
    // warm, thread-local pages -- no allocator traffic inside the loop.
    bool parallel_region = false;
    if (heap_scratch) {
        const std::string arena =
            "pm_arena_g" + std::to_string(gi);
        std::int64_t arena_bytes = 0;
        std::vector<std::pair<int, std::int64_t>> arena_off;
        for (int s : grp.stages) {
            if (!storage_.isScratch(s))
                continue;
            arena_off.emplace_back(s, arena_bytes);
            const auto &st = storage_.stages.at(s);
            arena_bytes += (st.scratchBytes + 63) & ~std::int64_t(63);
        }
        heapArenaBytes_ = std::max(heapArenaBytes_, arena_bytes);
        if (par_tiles) {
            w_.line("#pragma omp parallel");
            w_.open("");
            parallel_region = true;
        }
        if (task_) {
            // Chunk calls are frequent and thread-bound: reuse the
            // thread-local arena instead of alloc/free per call.
            w_.line("char *" + arena + " = (char *)pm_task_arena(" +
                    std::to_string(arena_bytes) + ");");
        } else {
            w_.line("char *" + arena + " = (char *)pm_alloc(" +
                    std::to_string(arena_bytes) + ");");
        }
        for (const auto &[s, off] : arena_off) {
            const std::string ty =
                dsl::dtypeCName(storage_.stages.at(s).dtype);
            w_.line(std::string(ty) + " *scr_" + stageName(s) + " = (" +
                    ty + " *)(" + arena + " + " + std::to_string(off) +
                    ");");
        }
        if (par_tiles)
            w_.line("#pragma omp for " + scheduleClause());
    } else if (par_tiles) {
        w_.line("#pragma omp parallel for " + scheduleClause());
    }

    // Tile loops.
    if (task_) {
        w_.line("const long long pm_te = pm_min_i(pm_hi, pm_n - 1);");
        w_.open("for (long long pm_t = pm_lo; pm_t <= pm_te; ++pm_t)");
        w_.line("const long long T0 = " + tlo[0] + " + pm_t;");
    } else {
        w_.open("for (long long T0 = " + tlo[0] + "; T0 <= " + thi[0] +
                "; ++T0)");
    }
    if (instr_)
        w_.line("const double pm_t0 = pm_now();");

    // Stack scratchpads: thread-private, reused across inner tiles.
    if (!heap_scratch) {
        for (int s : grp.stages) {
            if (!storage_.isScratch(s))
                continue;
            const auto &st = storage_.stages.at(s);
            std::int64_t total = 1;
            for (auto e : st.scratchExtent)
                total *= e;
            const std::string ty =
                dsl::dtypeCName(storage_.stages.at(s).dtype);
            w_.line("alignas(64) " + std::string(ty) + " scr_" +
                    stageName(s) + "[" + std::to_string(total) + "];");
        }
    }

    for (std::size_t ti = 1; ti < tiled.size(); ++ti) {
        w_.open("for (long long T" + std::to_string(ti) + " = " +
                tlo[ti] + "; T" + std::to_string(ti) + " <= " + thi[ti] +
                "; ++T" + std::to_string(ti) + ")");
    }

    // Stages in level order, one outlined nest function each.
    std::vector<int> order = grp.stages;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return grp.localLevel.at(a) < grp.localLevel.at(b);
    });
    for (int s : order)
        emitTiledStageCall(gi, s, tiled, tau);

    for (std::size_t ti = 1; ti < tiled.size(); ++ti)
        w_.close();
    if (instr_) {
        w_.line("pm_record(pm_costs, pm_gids, pm_cap, &pm_task, " +
                std::to_string(phase_) + ", pm_now() - pm_t0);");
    }
    w_.close(); // T0 / task loop
    if (heap_scratch && !task_)
        w_.line("std::free(pm_arena_g" + std::to_string(gi) + ");");
    if (parallel_region)
        w_.close();
    if (task_) {
        w_.line("return 0;");
        w_.close(); // phase guard
    }
    ++phase_;
}

std::vector<LocalDef>
Generator::scratchOrigins(int gi, const std::vector<int> &tiled,
                          const std::vector<std::int64_t> &tau)
{
    // ceil((tau*T - extLeft[level]) / scale) per scratchpad and tiled
    // dimension.
    const GroupSchedule &grp = grouping_.groups[gi];
    std::vector<LocalDef> defs;
    for (int s : grp.stages) {
        if (!storage_.isScratch(s))
            continue;
        const StageMapping &m = grp.mapping.at(s);
        const int lvl = grp.localLevel.at(s);
        for (std::size_t ti = 0; ti < tiled.size(); ++ti) {
            const int gd = tiled[ti];
            for (std::size_t d = 0; d < m.groupDim.size(); ++d) {
                if (m.groupDim[d] != gd)
                    continue;
                const std::string raw =
                    "(" + tauTermLL(ti, tau[ti]) + " * T" +
                    std::to_string(ti) + " - " +
                    std::to_string(grp.dims[gd].extLeft[lvl]) + ")";
                const std::string name =
                    "ob_" + stageName(s) + "_" + std::to_string(ti);
                defs.emplace_back(name, "const int " + name + " = (int)" +
                                            ceilDivLiteral(raw, m.scale[d]) +
                                            ";");
            }
        }
    }
    return defs;
}

void
Generator::emitTiledStageCall(int gi, int s, const std::vector<int> &tiled,
                              const std::vector<std::int64_t> &tau)
{
    auto it = nestCalls_.find({gi, s});
    if (it == nestCalls_.end()) {
        CodeWriter outer = std::move(w_);
        w_ = CodeWriter(1);
        std::set<std::string> uses;
        std::set<std::string> *outer_uses = uses_;
        uses_ = &uses;
        emitTiledStage(gi, s, tiled, tau);
        uses_ = outer_uses;
        const std::string body = w_.str();
        w_ = std::move(outer);

        // Scratchpad origins read only arguments, so they resolve
        // first; the entry-scope locals declare ahead of them.
        auto org = origins_.find(gi);
        if (org == origins_.end()) {
            std::vector<LocalDef> defs = scratchOrigins(gi, tiled, tau);
            LocalIndex index = indexLocals(defs);
            org = origins_
                      .emplace(gi, std::make_pair(std::move(defs),
                                                  std::move(index)))
                      .first;
        }
        Names needed = readNames(uses, body);
        const std::vector<std::string> origin_decls = neededLocals(
            org->second.first, org->second.second, needed, nestArgNames_);
        std::vector<std::string> decls =
            neededLocals(locals_, localIndex_, needed, nestArgNames_);
        decls.insert(decls.end(), origin_decls.begin(), origin_decls.end());

        const std::string name = claim("pm_g" + std::to_string(gi) +
                                       "_s" + std::to_string(s));
        // Arguments in signature order: every tile index, then the
        // entry-scope names the body reads.
        std::string sig, call;
        std::vector<std::string> args;
        auto arg = [&](const std::string &n, const std::string &decl) {
            sig += (sig.empty() ? "" : ", ") + decl;
            call += (call.empty() ? "" : ", ") + n;
            args.push_back(n);
        };
        for (std::size_t ti = 0; ti < tiled.size(); ++ti) {
            const std::string t = "T" + std::to_string(ti);
            arg(t, "long long " + t);
        }
        for (const auto &[n, decl] : nestArgs_) {
            if (needed.count(n))
                arg(n, decl);
        }
        Fn fn;
        fn.name = name;
        fn.header = "PM_FN void " + name + "(" + sig + ")";
        fn.text = "// " + stageName(s) + ", one tile of group " +
                  std::to_string(gi) + "\n" + fn.header + "\n{\n";
        for (const auto &d : decls)
            fn.text += "    " + d + "\n";
        fn.text += body + "}\n\n";
        // An alpha-equivalent nest (another pyramid's level) already
        // defined: call that one with this stage's arguments.
        const std::string callee = define(std::move(fn), fns_.size());
        it = nestCalls_
                 .emplace(std::make_pair(gi, s),
                          NestCall{callee, callee + "(" + call + ");",
                                   std::move(args)})
                 .first;
    }
    if (callees_ != nullptr)
        callees_->push_back(it->second.name);
    for (const std::string &a : it->second.args)
        use(a);
    w_.line(it->second.call);
}

void
Generator::emitTiledStage(int gi, int s, const std::vector<int> &tiled,
                          const std::vector<std::int64_t> &tau)
{
    const GroupSchedule &grp = grouping_.groups[gi];
    const pg::Stage &stage = g_.stage(s);
    const auto &f = stage.func();
    const auto &vars = f.vars();
    const StageMapping &m = grp.mapping.at(s);
    const int lvl = grp.localLevel.at(s);

    const bool saved_vec = vec_;
    vec_ = vec_ &&
           innermostVectorizable(stage, stage.loopDom().size() - 1);
    for (const auto &cs : f.cases()) {
        std::map<int, std::string> var_names;
        std::vector<LoopDim> dims(vars.size());
        for (std::size_t d = 0; d < vars.size(); ++d) {
            var_names[vars[d].id()] = claim(sanitize(vars[d].name()));
            dims[d].var = var_names[vars[d].id()];
        }
        EmitEnv env = makeEnv(var_names, gi);
        for (std::size_t d = 0; d < vars.size(); ++d) {
            dims[d].lb.push_back(emitExpr(f.dom()[d].lower(), env));
            dims[d].ub.push_back(emitExpr(f.dom()[d].upper(), env));
            // Tile-region clamps for tiled dims.
            auto pos = std::find(tiled.begin(), tiled.end(),
                                 m.groupDim[d]);
            if (pos == tiled.end())
                continue;
            const std::size_t ti = pos - tiled.begin();
            const int gd = tiled[ti];
            const auto &info = grp.dims[gd];
            const std::string t = "T" + std::to_string(ti);
            const std::string lo_raw =
                "(" + tauTermLL(ti, tau[ti]) + " * " + t + " - " +
                std::to_string(info.extLeft[lvl]) + ")";
            const std::string hi_add =
                tauDefault_.empty()
                    ? std::to_string(tau[ti] - 1 +
                                     info.extRight[lvl])
                    : tauTermLL(ti, tau[ti]) + " - 1 + " +
                          std::to_string(info.extRight[lvl]);
            const std::string hi_raw =
                "(" + tauTermLL(ti, tau[ti]) + " * " + t + " + " +
                hi_add + ")";
            dims[d].lb.push_back(ceilDivLiteral(lo_raw, m.scale[d]));
            dims[d].ub.push_back(floorDivLiteral(hi_raw, m.scale[d]));
        }
        std::vector<std::string> idx;
        for (const auto &v : vars)
            idx.push_back(var_names[v.id()]);
        emitCaseNests(gi, s, cs, env, idx, dims,
                      /*parallel_outer=*/false,
                      /*task_outer=*/false);
        for (const auto &[id, nm] : var_names) {
            (void)id;
            used_.erase(nm);
        }
    }
    vec_ = saved_vec;
}

void
Generator::emitAccumulator(int gi, int s)
{
    const pg::Stage &stage = g_.stage(s);
    const auto &a = stage.accum();

    if (task_) {
        // Reductions are a single serial task: one phase, one task.
        w_.open("if (pm_phase == " + std::to_string(phase_) + ")");
        w_.line("if (pm_lo < 0) return 1;");
        w_.open("if (pm_lo == 0)");
    } else {
        w_.open("");
    }
    if (instr_)
        w_.line("const double pm_t0 = pm_now();");

    // Initialise the variable domain.
    {
        std::map<int, std::string> var_names;
        std::vector<LoopDim> dims(a.varVars().size());
        for (std::size_t d = 0; d < a.varVars().size(); ++d) {
            var_names[a.varVars()[d].id()] =
                claim(sanitize(a.varVars()[d].name()));
            dims[d].var = var_names[a.varVars()[d].id()];
        }
        EmitEnv env = makeEnv(var_names, gi);
        for (std::size_t d = 0; d < a.varDom().size(); ++d) {
            dims[d].lb.push_back(emitExpr(a.varDom()[d].lower(), env));
            dims[d].ub.push_back(emitExpr(a.varDom()[d].upper(), env));
        }
        std::vector<std::string> idx;
        for (const auto &v : a.varVars())
            idx.push_back(var_names[v.id()]);
        const std::string target = fullIndex(s, false, idx);
        w_.line("// init " + a.name());
        emitLoopNest(dims, {},
                     {target + " = (" +
                      std::string(dsl::dtypeCName(a.dtype())) + ")(" +
                      emitExpr(a.init(), env) + ");"},
                     /*parallel_outer=*/false, /*task_outer=*/false,
                     phase_);
        for (const auto &[id, nm] : var_names) {
            (void)id;
            used_.erase(nm);
        }
    }

    if (instr_)
        w_.line("pm_serial_acc += pm_now() - pm_t0;");

    // Sweep the reduction domain.  Reductions are never fused (paper
    // section 3.5); they are parallelised by privatisation: each thread
    // combines into a private copy of the accumulator, merged under a
    // critical section.  Self-referential updates fall back to the
    // sequential loop.
    bool self_ref = false;
    {
        auto scan = [&](const dsl::Expr &e) {
            dsl::forEachNode(e, [&](const dsl::ExprNode &n) {
                if (n.kind() == dsl::ExprKind::Call) {
                    self_ref |= static_cast<const dsl::CallNode &>(n)
                                    .callee->id() ==
                                stage.callable->id();
                }
            });
        };
        scan(a.update());
        for (const auto &t : a.targetIndices())
            scan(t);
    }
    const bool privatised =
        opts_.parallelize && !instr_ && !task_ && !self_ref;

    {
        std::map<int, std::string> var_names;
        std::vector<LoopDim> dims(a.redVars().size());
        for (std::size_t d = 0; d < a.redVars().size(); ++d) {
            var_names[a.redVars()[d].id()] =
                claim(sanitize(a.redVars()[d].name()));
            dims[d].var = var_names[a.redVars()[d].id()];
        }
        EmitEnv env = makeEnv(var_names, gi);
        for (std::size_t d = 0; d < a.redDom().size(); ++d) {
            dims[d].lb.push_back(emitExpr(a.redDom()[d].lower(), env));
            dims[d].ub.push_back(emitExpr(a.redDom()[d].upper(), env));
        }
        std::vector<std::string> guards;
        if (a.guard())
            guards.push_back(emitCond(*a.guard(), env));

        std::vector<std::string> idx;
        for (const auto &t : a.targetIndices())
            idx.push_back(emitExpr(t, env));
        const std::string ty = dsl::dtypeCName(a.dtype());
        const std::string upd = emitExpr(a.update(), env);

        auto combine = [&](const std::string &acc,
                           const std::string &val) {
            switch (a.op()) {
              case dsl::ReduceOp::Sum:
                return "(" + ty + ")(" + acc + " + " + val + ")";
              case dsl::ReduceOp::Product:
                return "(" + ty + ")(" + acc + " * " + val + ")";
              case dsl::ReduceOp::Min:
              case dsl::ReduceOp::Max: {
                const bool mn = a.op() == dsl::ReduceOp::Min;
                std::string fn = mn ? "pm_min" : "pm_max";
                if (a.dtype() == DType::Float)
                    fn += "_f";
                else if (a.dtype() == DType::Double)
                    fn += "_d";
                else
                    fn += "_i";
                return "(" + ty + ")" + fn + "(" + acc + ", " + val +
                       ")";
              }
            }
            internalError("unknown reduce op");
        };

        w_.line("// accumulate " + a.name());
        const bool saved_vec = vec_;
        vec_ = false; // updates may collide on one cell
        if (privatised) {
            // Total cell count of the accumulator buffer.
            std::string cells = lenName(stageName(s), 0);
            if (a.varDom().size() > 1)
                cells += " * " + strideName(stageName(s), 0);
            const std::string identity =
                emitExpr(dsl::reduceIdentity(a.op(), a.dtype()), env);
            w_.line("#pragma omp parallel");
            w_.open("");
            w_.line(std::string(ty) + " *pm_priv = (" + ty +
                    " *)pm_alloc((long long)sizeof(" + ty + ") * (" +
                    cells + "));");
            // The init and merge loops are element-wise: vector code.
            w_.line("#pragma omp simd");
            w_.open("for (long long pm_i = 0; pm_i < (" + cells +
                    "); ++pm_i)");
            w_.line("pm_priv[pm_i] = (" + std::string(ty) + ")(" +
                    identity + ");");
            w_.close();
            const std::string cell =
                "pm_priv[" + flatIndexStr(stageName(s), idx) + "]";
            ompForOnly_ = true;
            emitLoopNest(dims, guards,
                         {cell + " = " + combine(cell, upd) + ";"},
                         /*parallel_outer=*/true, /*task_outer=*/false,
                         phase_);
            ompForOnly_ = false;
            w_.line("#pragma omp critical");
            w_.open("");
            const std::string out_cell =
                use("buf_" + stageName(s)) + "[pm_i]";
            w_.line("#pragma omp simd");
            w_.open("for (long long pm_i = 0; pm_i < (" + cells +
                    "); ++pm_i)");
            w_.line(out_cell + " = " +
                    combine(out_cell, "pm_priv[pm_i]") + ";");
            w_.close();
            w_.close();
            w_.line("std::free(pm_priv);");
            w_.close(); // parallel region
        } else {
            const std::string cell = fullIndex(s, false, idx);
            emitLoopNest(dims, guards,
                         {cell + " = " + combine(cell, upd) + ";"},
                         /*parallel_outer=*/false,
                         /*task_outer=*/instr_, phase_);
        }
        vec_ = saved_vec;
        for (const auto &[id, nm] : var_names) {
            (void)id;
            used_.erase(nm);
        }
    }

    w_.close();
    if (task_) {
        w_.line("return 0;");
        w_.close(); // phase guard
    }
    ++phase_;
}

void
Generator::emitSelfRecurrent(int gi, int s)
{
    const pg::Stage &stage = g_.stage(s);
    const auto &f = stage.func();
    const auto &vars = f.vars();

    if (task_) {
        // The recurrence's lexicographic order is inherently serial:
        // one phase, one task.
        w_.open("if (pm_phase == " + std::to_string(phase_) + ")");
        w_.line("if (pm_lo < 0) return 1;");
        w_.open("if (pm_lo == 0)");
    } else {
        w_.open("");
    }
    if (instr_)
        w_.line("const double pm_t0 = pm_now();");

    std::map<int, std::string> var_names;
    std::vector<LoopDim> dims(vars.size());
    for (std::size_t d = 0; d < vars.size(); ++d) {
        var_names[vars[d].id()] = claim(sanitize(vars[d].name()));
        dims[d].var = var_names[vars[d].id()];
    }
    EmitEnv env = makeEnv(var_names, gi);
    for (std::size_t d = 0; d < vars.size(); ++d) {
        dims[d].lb.push_back(emitExpr(f.dom()[d].lower(), env));
        dims[d].ub.push_back(emitExpr(f.dom()[d].upper(), env));
    }

    // A single sequential nest with an if/else chain keeps the
    // lexicographic evaluation order the recurrence depends on.
    std::vector<std::string> body;
    std::vector<std::string> idx;
    for (const auto &v : vars)
        idx.push_back(var_names[v.id()]);
    const std::string target = fullIndex(s, false, idx);
    bool first = true;
    for (const auto &cs : f.cases()) {
        std::string head;
        if (cs.hasCondition()) {
            head = std::string(first ? "if (" : "else if (") +
                   emitCond(cs.condition(), env) + ")";
        } else {
            head = first ? "" : "else";
        }
        const std::string assign =
            target + " = (" + std::string(dsl::dtypeCName(f.dtype())) +
            ")(" + emitExpr(cs.value(), env) + ");";
        if (head.empty())
            body.push_back(assign);
        else
            body.push_back(head + " { " + assign + " }");
        first = false;
    }
    const bool saved_vec = vec_;
    vec_ = false;
    emitLoopNest(dims, {}, body, /*parallel_outer=*/false,
                 /*task_outer=*/false, phase_);
    vec_ = saved_vec;
    for (const auto &[id, nm] : var_names) {
        (void)id;
        used_.erase(nm);
    }
    if (instr_)
        w_.line("pm_serial_acc += pm_now() - pm_t0;");
    w_.close();
    if (task_) {
        w_.line("return 0;");
        w_.close(); // phase guard
    }
    ++phase_;
}

void
Generator::emitGroup(int gi)
{
    const GroupSchedule &grp = grouping_.groups[gi];
    w_.line("// ---- group " + std::to_string(gi) + ": " +
            [&] {
                std::string s;
                for (int st : grp.stages)
                    s += stageName(st) + " ";
                return s;
            }());
    if (grp.stages.size() == 1) {
        const int s = grp.stages[0];
        const pg::Stage &stage = g_.stage(s);
        if (stage.isAccumulator()) {
            emitAccumulator(gi, s);
            return;
        }
        if (stage.selfRecurrent) {
            emitSelfRecurrent(gi, s);
            return;
        }
        emitUntiledStage(gi, s);
        return;
    }
    if (opts_.tile && !core::tiledDimsFor(grp, g_, gopts_).empty()) {
        emitTiledGroup(gi);
        return;
    }
    // Fallback: per-stage loops in level order.
    std::vector<int> order = grp.stages;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return grp.localLevel.at(a) < grp.localLevel.at(b);
    });
    for (int s : order)
        emitUntiledStage(gi, s);
}

void
Generator::buildLocals()
{
    // Parameters.
    for (std::size_t i = 0; i < g_.params().size(); ++i) {
        const std::string &n = paramName_.at(g_.params()[i]->id);
        locals_.emplace_back(n, "const int " + n + " = (int)params[" +
                                    std::to_string(i) + "];");
    }
    // Shape-generic tile sizes: trailing params entries, clamped to
    // [1, compile-time size] so the compile-time-sized scratchpads and
    // arenas stay a safe max footprint; out-of-range values fall back
    // to the estimate-tuned defaults.
    for (std::size_t i = 0; i < tauDefault_.size(); ++i) {
        const std::string arg =
            "params[" + std::to_string(g_.params().size() + i) + "]";
        const std::string d = std::to_string(tauDefault_[i]);
        const std::string n = "pm_tau" + std::to_string(i);
        locals_.emplace_back(n, "const long long " + n + " = (" + arg +
                                    " >= 1 && " + arg + " <= " + d +
                                    ") ? " + arg + " : " + d + ";");
    }

    // Row-major extent/stride locals of a buffer.
    auto shape = [&](const std::string &name,
                     const std::vector<std::string> &extents) {
        for (std::size_t d = 0; d < extents.size(); ++d) {
            const std::string len = lenName(name, int(d));
            locals_.emplace_back(len, "const long long " + len + " = " +
                                          extents[d] + ";");
        }
        for (int d = int(extents.size()) - 2; d >= 0; --d) {
            std::string prod = lenName(name, d + 1);
            if (d + 2 < int(extents.size()))
                prod += " * " + strideName(name, d + 1);
            const std::string st = strideName(name, d);
            locals_.emplace_back(st, "const long long " + st + " = " +
                                         prod + ";");
        }
    };

    // Inputs.
    EmitEnv param_env = makeEnv({}, -1);
    for (std::size_t i = 0; i < g_.images().size(); ++i) {
        const auto &img = *g_.images()[i];
        const std::string name = imageName_.at(img.id());
        const std::string ty = dsl::dtypeCName(img.dtype());
        locals_.emplace_back(name, "const " + ty + " *" + name +
                                       " = (const " + ty + " *)inputs[" +
                                       std::to_string(i) + "];");
        std::vector<std::string> extents;
        for (const auto &e : img.extents())
            extents.push_back("(long long)" + emitExpr(e, param_env));
        shape(name, extents);
    }

    // Full buffers: outputs come from the caller; intermediates live
    // in caller-provided allocation slots (the liveness-driven reuse
    // plan -- stages with disjoint live ranges receive the same slot
    // pointer, and the runtime recycles the slots across calls).
    std::map<int, int> output_slot;
    for (std::size_t i = 0; i < g_.outputs().size(); ++i)
        output_slot[g_.outputs()[i]] = int(i);
    for (std::size_t s = 0; s < g_.stages().size(); ++s) {
        if (storage_.isScratch(int(s)))
            continue;
        const pg::Stage &stage = g_.stage(int(s));
        const std::string name = stageName(int(s));
        // The plan's allocation type: range-narrowed for slot
        // intermediates, always the declared type for live-outs
        // (caller-allocated).
        const std::string ty =
            dsl::dtypeCName(storage_.elemType(int(s), g_));
        const auto &dom = stage.isFunction() ? stage.func().dom()
                                             : stage.accum().varDom();
        std::vector<std::string> extents;
        for (const auto &iv : dom)
            extents.push_back("(long long)" +
                              emitExpr(iv.upper(), param_env) + " + 1");
        shape(name, extents);
        auto slot = output_slot.find(int(s));
        const std::string src =
            slot != output_slot.end()
                ? "outputs[" + std::to_string(slot->second) + "]"
                : "pm_slots[" + std::to_string(storage_.slot.at(int(s))) +
                      "]";
        locals_.emplace_back("buf_" + name, ty + " *buf_" + name + " = (" +
                                                ty + " *)" + src + ";");
    }

    localIndex_ = indexLocals(locals_);

    for (const auto &p : g_.params())
        nestArgs_.emplace_back(paramName_.at(p->id),
                               "int " + paramName_.at(p->id));
    for (std::size_t i = 0; i < tauDefault_.size(); ++i) {
        const std::string t = "pm_tau" + std::to_string(i);
        nestArgs_.emplace_back(t, "long long " + t);
    }
    for (const auto &img : g_.images()) {
        const std::string &n = imageName_.at(img->id());
        nestArgs_.emplace_back(n, "const " +
                                      std::string(dsl::dtypeCName(
                                          img->dtype())) +
                                      " *__restrict " + n);
    }
    for (std::size_t s = 0; s < g_.stages().size(); ++s) {
        const bool scratch = storage_.isScratch(int(s));
        const std::string n = (scratch ? "scr_" : "buf_") + stageName(int(s));
        const DType ty = scratch ? storage_.stages.at(int(s)).dtype
                                 : storage_.elemType(int(s), g_);
        nestArgs_.emplace_back(n, std::string(dsl::dtypeCName(ty)) +
                                      " *__restrict " + n);
    }
    for (const auto &a : nestArgs_)
        nestArgNames_.insert(a.first);
}

std::pair<std::string, std::string>
Generator::emitGroupFunction(int gi)
{
    const std::size_t first = fns_.size();
    CodeWriter outer = std::move(w_);
    w_ = CodeWriter(1);
    std::vector<std::string> callees;
    std::set<std::string> uses;
    callees_ = &callees;
    uses_ = &uses;
    emitGroup(gi);
    callees_ = nullptr;
    uses_ = nullptr;
    const std::string body = w_.str();
    w_ = std::move(outer);

    Names needed = readNames(uses, body);
    const std::vector<std::string> decls =
        neededLocals(locals_, localIndex_, needed, {});
    const std::string name = claim("pm_g" + std::to_string(gi) +
                                   (instr_ ? "_i" : task_ ? "_t" : ""));
    std::string sig = "const long long *params, void *const *inputs, "
                      "void **outputs, void *const *pm_slots";
    std::string call = "params, inputs, outputs, pm_slots";
    if (instr_) {
        sig += ", double *pm_costs, long long *pm_gids, long long pm_cap, "
               "long long &pm_task, double &pm_serial_acc";
        call += ", pm_costs, pm_gids, pm_cap, pm_task, pm_serial_acc";
    }
    if (task_) {
        sig += ", long long pm_phase, long long pm_lo, long long pm_hi";
        call += ", pm_phase, pm_lo, pm_hi";
    }
    Fn fn;
    fn.name = name;
    fn.callees = std::move(callees);
    fn.header = std::string("PM_FN ") + (task_ ? "long long " : "void ") +
                name + "(" + sig + ")";
    fn.text = fn.header + "\n{\n";
    for (const auto &d : decls)
        fn.text += "    " + d + "\n";
    fn.text += body;
    if (task_)
        fn.text += "    return 0;\n";
    fn.text += "}\n\n";
    // The group's function goes before the nest functions it calls.
    const std::string callee = define(std::move(fn), first);
    return {callee, callee + "(" + call + ");"};
}

std::vector<Generator::GroupCall>
Generator::emitGroups()
{
    phase_ = 0;
    tmp_ = 0;
    hoistTmp_ = 0;
    cseTmp_ = 0;
    std::vector<GroupCall> calls;
    for (std::size_t gi = 0; gi < grouping_.groups.size(); ++gi) {
        const int phase_start = phase_;
        GroupCall gc;
        std::tie(gc.name, gc.call) = emitGroupFunction(int(gi));
        gc.phaseEnd = phase_;
        calls.push_back(std::move(gc));
        // Every entry walks the groups identically; record the phase
        // ownership once.
        while (int(phaseGroup_.size()) < phase_ &&
               int(phaseGroup_.size()) >= phase_start) {
            phaseGroup_.push_back(int(gi));
        }
    }
    return calls;
}

void
Generator::emitEntry(bool instrumented)
{
    instr_ = instrumented;
    vec_ = opts_.vectorize != VectorizeMode::Off;
    const std::vector<GroupCall> calls = emitGroups();
    const std::string base = "polymage_" + sanitize(g_.name());
    Fn fn;
    fn.entry = true;
    CodeWriter w;
    if (!instrumented) {
        fn.name = base;
        fn.header = "extern \"C\" void " + base +
                    "(const long long *params, void *const *inputs, "
                    "void **outputs, void *const *pm_slots)";
        w.line(fn.header);
        w.open("");
    } else {
        fn.name = base + "_pm_instr";
        fn.header = "extern \"C\" void " + base +
                    "_pm_instr(const long long *params, void *const "
                    "*inputs, void **outputs, void *const *pm_slots, "
                    "double *pm_costs, long long *pm_gids, long long "
                    "pm_cap, long long *pm_count, double *pm_serial)";
        w.line(fn.header);
        w.open("");
        w.line("long long pm_task = 0;");
        w.line("double pm_serial_acc = 0.0;");
    }
    for (const GroupCall &gc : calls) {
        w.line(gc.call);
        fn.callees.push_back(gc.name);
    }
    if (instrumented) {
        w.line("*pm_count = pm_task;");
        w.line("*pm_serial = pm_serial_acc;");
    }
    w.close();
    w.blank();
    fn.text = w.str();
    fns_.push_back(std::move(fn));
    instr_ = false;
}

void
Generator::emitTaskEntry()
{
    // Emitted after the primary pass, so the phase count is known.
    task_ = true;
    instr_ = false;
    vec_ = opts_.vectorize != VectorizeMode::Off;
    const std::vector<GroupCall> calls = emitGroups();
    const std::string base = "polymage_" + sanitize(g_.name());
    Fn fn;
    fn.entry = true;
    fn.name = base + "_pm_task";
    fn.header = "extern \"C\" long long " + base +
                "_pm_task(const long long *params, void *const *inputs, "
                "void **outputs, void *const *pm_slots, long long pm_phase, "
                "long long pm_lo, long long pm_hi)";
    CodeWriter w;
    w.line(fn.header);
    w.open("");
    w.line("if (pm_phase < 0) return " +
           std::to_string(phaseGroup_.size()) + "LL;");
    // Each group's function serves the phases it owns.
    int start = 0;
    for (const GroupCall &gc : calls) {
        if (gc.phaseEnd > start) {
            w.line("if (pm_phase < " + std::to_string(gc.phaseEnd) +
                   ") return " + gc.call);
            fn.callees.push_back(gc.name);
        }
        start = gc.phaseEnd;
    }
    w.line("return 0;");
    w.close();
    w.blank();
    fn.text = w.str();
    fns_.push_back(std::move(fn));
    task_ = false;
}

void
Generator::emitTaskArena()
{
    CodeWriter w;
    w.line("struct PmArena { void *p = nullptr; long long cap = 0; "
           "~PmArena() { std::free(p); } };");
    w.line(kTaskArenaDecl);
    w.open("");
    w.line("static thread_local PmArena a;");
    w.line("if (a.cap < bytes) { std::free(a.p); a.p = pm_alloc(bytes); "
           "a.cap = bytes; }");
    w.line("return a.p;");
    w.close();
    w.blank();
    Fn fn;
    fn.entry = true;
    fn.name = "pm_task_arena";
    fn.text = w.str();
    fns_.push_back(std::move(fn));
}

std::vector<std::string>
Generator::packUnits(const std::string &prelude,
                     std::vector<long long> &cost) const
{
    long long total = 0, largest = 1;
    std::size_t hidden = 0;
    for (const Fn &f : fns_) {
        total += f.cost;
        if (!f.entry) {
            largest = std::max(largest, f.cost);
            ++hidden;
        }
    }
    // No unit finishes before the costliest function does, so units
    // beyond total / largest only add compiler start-ups.
    const long long per = std::max(kUnitCost, largest);
    const std::size_t n = std::clamp<std::size_t>(
        std::size_t((total + per - 1) / per), 1,
        std::max<std::size_t>(
            1, std::min<std::size_t>(
                   hidden, std::thread::hardware_concurrency())));
    // Unit-0 definitions first, then costliest function first into the
    // cheapest unit (LPT).
    std::vector<long long> load(n, 0);
    std::vector<std::size_t> unit(fns_.size(), 0);
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < fns_.size(); ++i) {
        if (fns_[i].entry)
            load[0] += fns_[i].cost;
        else
            order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return fns_[a].cost > fns_[b].cost;
                     });
    for (std::size_t i : order) {
        const std::size_t u =
            std::size_t(std::min_element(load.begin(), load.end()) -
                        load.begin());
        unit[i] = u;
        load[u] += fns_[i].cost;
    }

    std::vector<std::string> units;
    for (std::size_t u = 0; u < n; ++u) {
        std::string defs;
        std::set<std::string_view> calls;
        for (std::size_t i = 0; i < fns_.size(); ++i) {
            if (unit[i] != u)
                continue;
            defs += fns_[i].text;
            calls.insert(fns_[i].callees.begin(), fns_[i].callees.end());
        }
        if (defs.empty())
            continue;
        std::string text = prelude;
        for (const Fn &f : fns_) {
            if (calls.count(f.name))
                text += f.header + ";\n";
        }
        units.push_back(text + "\n" + defs);
        cost.push_back(load[u]);
    }
    return units;
}

GeneratedCode
Generator::run()
{
    // Reserve helper and tile-loop names first so user-visible names
    // (e.g. a parameter called "T1") never shadow them.
    for (const char *n :
         {"params", "inputs", "outputs", "pm_slots", "pm_costs",
          "pm_gids", "pm_cap", "pm_count", "pm_serial", "pm_task",
          "pm_serial_acc", "pm_t0", "T0", "T1", "T2", "T3", "T4", "T5",
          "T6", "T7", "pm_tau0", "pm_tau1", "pm_tau2", "pm_tau3",
          "pm_tau4", "pm_tau5", "pm_tau6", "pm_tau7", "pm_phase",
          "pm_lo", "pm_hi", "pm_t", "pm_te", "pm_tr", "pm_n",
          "pm_vskip", "pm_vm", "pm_tail", "pm_rem"}) {
        used_.insert(n);
    }
    // Shape-generic mode: one runtime tile-size parameter per tiled
    // dimension (max over the overlapped-tile groups), defaulting to
    // the compile-time sizes with tileSizeFor's repeat-last semantics.
    if (opts_.shapeGeneric && opts_.tile) {
        std::size_t dims = 0;
        for (const auto &grp : grouping_.groups) {
            if (grp.stages.size() <= 1)
                continue;
            dims = std::max(dims,
                            core::tiledDimsFor(grp, g_, gopts_).size());
        }
        for (std::size_t i = 0; i < dims; ++i)
            tauDefault_.push_back(core::tileSizeFor(gopts_, int(i)));
    }
    // Claim global names.
    for (const auto &p : g_.params())
        paramName_[p->id] = claim(sanitize(p->name));
    for (const auto &img : g_.images())
        imageName_[img->id()] = claim("in_" + sanitize(img->name()));
    for (std::size_t s = 0; s < g_.stages().size(); ++s)
        stageName_[int(s)] = claim(sanitize(g_.stage(int(s)).name()));

    buildLocals();

    // Bodies first: rendering them registers the vector typedefs the
    // prelude must declare, so the prelude is written afterwards.
    emitEntry(false);
    if (opts_.instrument)
        emitEntry(true);
    if (opts_.taskABI) {
        emitTaskEntry();
        emitTaskArena();
    }
    // The extern "C" entries lead, then each group's function followed
    // by its nest functions.
    std::stable_partition(fns_.begin(), fns_.end(),
                          [](const Fn &f) { return f.entry; });
    w_ = CodeWriter();
    emitPrelude();
    if (!vtypes_.empty()) {
        for (const auto &l : vtypes_.typedefLines())
            w_.line(l);
        w_.blank();
    }
    const std::string prelude = w_.str();

    GeneratedCode out;
    out.units = packUnits(prelude, out.unitCosts);
    out.source = prelude;
    for (const Fn &f : fns_) {
        if (!f.entry)
            out.source += f.header + ";\n";
    }
    out.source += "\n";
    for (const Fn &f : fns_)
        out.source += f.text;
    out.entry = "polymage_" + sanitize(g_.name());
    if (opts_.instrument)
        out.instrEntry = out.entry + "_pm_instr";
    if (opts_.taskABI)
        out.taskEntry = out.entry + "_pm_task";
    out.phaseGroup = phaseGroup_;
    out.heapArenaBytes = heapArenaBytes_;
    out.tileSchedule =
        opts_.tileSchedule == OmpSchedule::Dynamic ? "dynamic" : "static";
    out.partition = opts_.partition;
    out.interiorNests = interiorNests_;
    out.guardedNests = guardedNests_;
    out.partitionedCases = partitionedCases_;
    out.tileParamCount = int(tauDefault_.size());
    out.tileParamDefaults = tauDefault_;
    out.vectorizeMode = vectorizeModeName(opts_.vectorize);
    if (opts_.vectorize == VectorizeMode::Explicit) {
        out.vectorIsa = machine::machineInfo().isa;
        out.vectorBits = machine::machineInfo().vectorBits;
    }
    out.explicitNests = explicitNests_;
    out.maskedEpilogues = maskedEpilogues_;
    for (const auto &[gi, gv] : groupVec_)
        out.groupVector.push_back(gv);
    if (ranges_ != nullptr)
        out.narrowedStages = ranges_->narrowedStages(g_);
    return out;
}

} // namespace

const char *
vectorizeModeName(VectorizeMode m)
{
    switch (m) {
    case VectorizeMode::Off: return "off";
    case VectorizeMode::Pragma: return "pragma";
    case VectorizeMode::Explicit: return "explicit";
    }
    return "off";
}

GeneratedCode
generate(const pg::PipelineGraph &g, const core::GroupingResult &grouping,
         const core::GroupingOptions &gopts,
         const core::StoragePlan &storage, const CodegenOptions &opts,
         const core::RangeAnalysis *ranges)
{
    Generator gen(g, grouping, gopts, storage, opts, ranges);
    return gen.run();
}

} // namespace polymage::cg
