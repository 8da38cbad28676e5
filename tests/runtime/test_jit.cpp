#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "apps/apps.hpp"
#include "runtime/executor.hpp"
#include "runtime/jit.hpp"
#include "runtime/synth.hpp"
#include "support/diagnostics.hpp"
#include "support/trace.hpp"

namespace polymage::rt {
namespace {

/** Scoped env var; restores the previous value on destruction. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv()
    {
        if (old_.has_value())
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

/** A fresh private cache dir routed through POLYMAGE_JIT_CACHE_DIR. */
class ScopedCacheDir
{
  public:
    ScopedCacheDir()
    {
        char tmpl[] = "/tmp/polymage_jit_cache_test_XXXXXX";
        dir_ = mkdtemp(tmpl);
        env_ = std::make_unique<ScopedEnv>("POLYMAGE_JIT_CACHE_DIR",
                                           dir_);
    }
    ~ScopedCacheDir()
    {
        env_.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    const std::string &path() const { return dir_; }

    std::size_t
    sharedObjects() const
    {
        std::size_t n = 0;
        for (const auto &e :
             std::filesystem::directory_iterator(dir_)) {
            if (e.path().extension() == ".so")
                ++n;
        }
        return n;
    }

  private:
    std::string dir_;
    std::unique_ptr<ScopedEnv> env_;
};

TEST(Jit, CompileAndCall)
{
    JitModule mod = JitModule::compile(
        "extern \"C\" int pm_test_add(int a, int b) { return a + b; }\n");
    auto fn = reinterpret_cast<int (*)(int, int)>(
        mod.symbol("pm_test_add"));
    EXPECT_EQ(fn(2, 40), 42);
}

TEST(Jit, MissingSymbolThrows)
{
    JitModule mod = JitModule::compile(
        "extern \"C\" void pm_present() {}\n");
    EXPECT_NO_THROW(mod.symbol("pm_present"));
    EXPECT_THROW(mod.symbol("pm_absent"), InternalError);
}

TEST(Jit, CompileErrorIncludesDiagnostics)
{
    try {
        JitModule::compile("this is not C++\n");
        FAIL() << "expected InternalError";
    } catch (const InternalError &e) {
        // The exception carries the compiler invocation and log.
        EXPECT_NE(std::string(e.what()).find("JIT compilation failed"),
                  std::string::npos);
    }
}

TEST(Jit, MoveTransfersOwnership)
{
    JitModule a = JitModule::compile(
        "extern \"C\" int pm_seven() { return 7; }\n");
    JitModule b = std::move(a);
    auto fn = reinterpret_cast<int (*)()>(b.symbol("pm_seven"));
    EXPECT_EQ(fn(), 7);
}

TEST(Jit, ObjectCacheHitSkipsCompiler)
{
    ScopedCacheDir cache;
    const std::string src =
        "extern \"C\" int pm_cached() { return 11; }\n";

    JitModule first = JitModule::compile(src);
    EXPECT_FALSE(first.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 1u);

    JitModule second = JitModule::compile(src);
    EXPECT_TRUE(second.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 1u);
    auto fn = reinterpret_cast<int (*)()>(second.symbol("pm_cached"));
    EXPECT_EQ(fn(), 11);
    // The cached module carries the generated source for inspection.
    EXPECT_FALSE(second.sourcePath().empty());
}

TEST(Jit, ObjectCacheKeyCoversFlags)
{
    ScopedCacheDir cache;
    const std::string src =
        "extern \"C\" int pm_flagged() { return 5; }\n";
    JitModule a = JitModule::compile(src);
    // A different flag set must miss and add a second entry.
    JitOptions opts;
    opts.vectorize = false;
    JitModule b = JitModule::compile(src, opts);
    EXPECT_FALSE(b.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 2u);
}

TEST(Jit, ObjectCacheOptOut)
{
    ScopedCacheDir cache;
    const std::string src =
        "extern \"C\" int pm_uncached() { return 3; }\n";
    JitOptions opts;
    opts.cache = false;
    JitModule a = JitModule::compile(src, opts);
    EXPECT_FALSE(a.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 0u);

    // Process-wide kill switch.
    ScopedEnv off("POLYMAGE_JIT_CACHE", "0");
    JitModule b = JitModule::compile(src);
    EXPECT_FALSE(b.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 0u);
}

TEST(Jit, ConcurrentWritersPublishOneCleanEntry)
{
    ScopedCacheDir cache;
    const std::string src =
        "extern \"C\" int pm_race() { return 9; }\n";

    // Both threads miss (the file does not exist yet), both compile,
    // and both publish to the same cache path.  The atomic-rename
    // publish must leave exactly one complete entry and no temp
    // droppings, whichever writer wins.
    std::optional<JitModule> a, b;
    std::thread ta([&] { a = JitModule::compile(src); });
    std::thread tb([&] { b = JitModule::compile(src); });
    ta.join();
    tb.join();

    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(reinterpret_cast<int (*)()>(a->symbol("pm_race"))(), 9);
    EXPECT_EQ(reinterpret_cast<int (*)()>(b->symbol("pm_race"))(), 9);

    EXPECT_EQ(cache.sharedObjects(), 1u);
    for (const auto &e :
         std::filesystem::directory_iterator(cache.path()))
        EXPECT_EQ(e.path().filename().string().find(".tmp."),
                  std::string::npos)
            << "leftover temp file " << e.path();

    // The published entry is loadable by a third compilation.
    JitModule c = JitModule::compile(src);
    EXPECT_TRUE(c.fromCache());
    EXPECT_EQ(reinterpret_cast<int (*)()>(c.symbol("pm_race"))(), 9);
}

/** Two units: the extern "C" entry calls a hidden function in unit 1. */
std::vector<std::string>
twoUnits(const std::string &tag)
{
    return {"__attribute__((visibility(\"hidden\"))) int pm_" + tag +
                "_half(int);\n"
                "extern \"C\" int pm_" + tag + "(int a) { return 2 * pm_" +
                tag + "_half(a); }\n",
            "__attribute__((visibility(\"hidden\"))) int pm_" + tag +
                "_half(int a) { return a / 2 + 1; }\n"};
}

/** The spans named @p name among @p spans. */
std::vector<obs::Span>
spansNamed(const std::vector<obs::Span> &spans, const std::string &name)
{
    std::vector<obs::Span> out;
    for (const auto &s : spans) {
        if (s.name == name)
            out.push_back(s);
    }
    return out;
}

TEST(Jit, MultiUnitBuildLinksOneModuleWithSpans)
{
    ScopedCacheDir cache;
    obs::TraceRegistry reg;
    obs::ScopedCurrent install(&reg);
    std::optional<JitModule> mod;
    {
        obs::ScopedTrace jit(&reg, "jit");
        mod = JitModule::compile(twoUnits("linked"));
    }
    auto fn = reinterpret_cast<int (*)(int)>(mod->symbol("pm_linked"));
    EXPECT_EQ(fn(20), 22);
    // Hidden functions are not exported from the shared object.
    EXPECT_THROW(mod->symbol("pm_linked_half"), InternalError);
    EXPECT_EQ(cache.sharedObjects(), 1u);

    const auto spans = reg.spans();
    const auto units = spansNamed(spans, "jit.unit");
    const auto links = spansNamed(spans, "jit.link");
    ASSERT_EQ(units.size(), 2u);
    ASSERT_EQ(links.size(), 1u);
    const int jit_id = spansNamed(spans, "jit").at(0).id;
    for (std::size_t k = 0; k < units.size(); ++k) {
        EXPECT_EQ(units[k].parent, jit_id);
        ASSERT_EQ(units[k].args.size(), 2u);
        EXPECT_EQ(units[k].args[0].first, "unit");
        EXPECT_EQ(units[k].args[0].second, std::int64_t(k));
        EXPECT_EQ(units[k].args[1].first, "lines");
        EXPECT_EQ(units[k].args[1].second, k == 0 ? 2 : 1);
        EXPECT_GE(units[k].durationNs, 0);
    }
    EXPECT_EQ(links[0].parent, jit_id);
    // The args survive the trace schema round trip.
    const auto back = obs::spansFromJson(reg.toJson());
    EXPECT_EQ(spansNamed(back, "jit.unit").at(1).args, units[1].args);
}

TEST(Jit, UnitSpansCarryTheCostEstimate)
{
    // Each jit.unit span carries the generator's compile-cost estimate
    // beside its line count, so one trace shows estimated against
    // measured cost per unit.
    ScopedCacheDir cache;
    {
        obs::TraceRegistry reg;
        obs::ScopedCurrent install(&reg);
        JitModule::compile(twoUnits("costed"), {}, {7, 3});
        const auto units = spansNamed(reg.spans(), "jit.unit");
        ASSERT_EQ(units.size(), 2u);
        for (std::size_t k = 0; k < units.size(); ++k) {
            ASSERT_EQ(units[k].args.size(), 3u);
            EXPECT_EQ(units[k].args[2].first, "est_cost");
            EXPECT_EQ(units[k].args[2].second, k == 0 ? 7 : 3);
        }
    }
    // A pipeline build reports its units' estimates.
    Executable exe = Executable::build(apps::buildUnsharpMask(256, 256),
                                       CompileOptions::optimized());
    const auto &costs = exe.info().code.unitCosts;
    const auto units = spansNamed(exe.trace(), "jit.unit");
    ASSERT_EQ(units.size(), costs.size());
    for (std::size_t k = 0; k < units.size(); ++k) {
        ASSERT_EQ(units[k].args.size(), 3u);
        EXPECT_EQ(units[k].args[2].second, costs[k]);
        EXPECT_GT(costs[k], 0);
    }
}

TEST(Jit, MultiUnitCacheHitSkipsEveryCompiler)
{
    ScopedCacheDir cache;
    const auto units = twoUnits("hit");
    JitModule first = JitModule::compile(units);
    EXPECT_FALSE(first.fromCache());

    obs::TraceRegistry reg;
    obs::ScopedCurrent install(&reg);
    JitModule second = JitModule::compile(units);
    EXPECT_TRUE(second.fromCache());
    EXPECT_TRUE(spansNamed(reg.spans(), "jit.unit").empty());
    EXPECT_TRUE(spansNamed(reg.spans(), "jit.link").empty());
    EXPECT_EQ(cache.sharedObjects(), 1u);
    EXPECT_EQ(reinterpret_cast<int (*)(int)>(second.symbol("pm_hit"))(8),
              10);
}

TEST(Jit, ChangingAnyUnitMissesTheCache)
{
    ScopedCacheDir cache;
    const auto units = twoUnits("miss");
    JitModule base = JitModule::compile(units);
    for (std::size_t k = 0; k < units.size(); ++k) {
        auto changed = units;
        changed[k] += "// edited\n";
        JitModule mod = JitModule::compile(changed);
        EXPECT_FALSE(mod.fromCache()) << "unit " << k;
        EXPECT_EQ(cache.sharedObjects(), k + 2);
    }
    // Moving text across a unit boundary is a different build too.
    auto moved = units;
    moved[1] = moved[0].substr(moved[0].size() - 1) + moved[1];
    moved[0].pop_back();
    JitModule mod = JitModule::compile(moved);
    EXPECT_FALSE(mod.fromCache());
}

TEST(Jit, CompileErrorNamesTheFailingUnit)
{
    // Build directories honour TMPDIR; a failed build keeps them.
    char tmpl[] = "/tmp/polymage_jit_tmpdir_test_XXXXXX";
    const std::string tmp = mkdtemp(tmpl);
    ScopedEnv tmpdir("TMPDIR", tmp);
    auto units = twoUnits("broken");
    units[1] += "int pm_undeclared_marker() { return pm_no_such_name; }\n";
    try {
        JitModule::compile(units);
        FAIL() << "expected InternalError";
    } catch (const InternalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("failed in unit 1 of 2"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("pm_no_such_name"), std::string::npos) << msg;
        EXPECT_NE(msg.find("kept in " + tmp + "/polymage_jit_"),
                  std::string::npos)
            << msg;
    }
    // Every unit is kept for inspection.
    std::size_t sources = 0;
    for (const auto &d : std::filesystem::directory_iterator(tmp)) {
        for (const auto &f : std::filesystem::directory_iterator(d))
            sources += f.path().extension() == ".cpp";
    }
    EXPECT_EQ(sources, 2u);
    std::error_code ec;
    std::filesystem::remove_all(tmp, ec);
}

TEST(Jit, ConcurrentMultiUnitBuildersPublishOneCleanEntry)
{
    ScopedCacheDir cache;
    const auto units = twoUnits("race2");
    std::optional<JitModule> a, b;
    std::thread ta([&] { a = JitModule::compile(units); });
    std::thread tb([&] { b = JitModule::compile(units); });
    ta.join();
    tb.join();
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(reinterpret_cast<int (*)(int)>(a->symbol("pm_race2"))(4), 6);
    EXPECT_EQ(reinterpret_cast<int (*)(int)>(b->symbol("pm_race2"))(4), 6);
    EXPECT_EQ(cache.sharedObjects(), 1u);
    for (const auto &e :
         std::filesystem::directory_iterator(cache.path()))
        EXPECT_EQ(e.path().filename().string().find(".tmp."),
                  std::string::npos)
            << "leftover temp file " << e.path();
    JitModule c = JitModule::compile(units);
    EXPECT_TRUE(c.fromCache());
}

TEST(Jit, CompilerJobsWaitForAMachineWideSlot)
{
    // Another process holding every job slot (flock'ed files under
    // $TMPDIR/polymage-jit-slots) holds back this process's compiler.
    char tmpl[] = "/tmp/polymage_jit_slots_test_XXXXXX";
    const std::string tmp = mkdtemp(tmpl);
    ScopedEnv tmpdir("TMPDIR", tmp);
    ScopedCacheDir cache;
    const std::string dir = tmp + "/polymage-jit-slots";
    std::filesystem::create_directories(dir);
    std::vector<int> held;
    const unsigned slots = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned k = 0; k < slots; ++k) {
        const int fd = ::open((dir + "/" + std::to_string(k)).c_str(),
                              O_RDONLY | O_CREAT | O_CLOEXEC, 0666);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::flock(fd, LOCK_EX), 0);
        held.push_back(fd);
    }
    std::atomic<bool> done{false};
    std::thread t([&] {
        JitModule::compile("extern \"C\" int pm_slotted() { return 1; }\n");
        done = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    EXPECT_FALSE(done.load());
    for (int fd : held)
        ::close(fd);
    t.join();
    EXPECT_TRUE(done.load());
    std::error_code ec;
    std::filesystem::remove_all(tmp, ec);
}

TEST(Jit, ExecutableTeardownExitsCleanly)
{
    // Build, run and destroy a pipeline from a cold compile, then exit:
    // unloading the last OpenMP module must not unload the OpenMP
    // runtime under its parked pool threads.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            ScopedEnv off("POLYMAGE_JIT_CACHE", "0");
            {
                const std::int64_t n = 32;
                auto exe = Executable::build(apps::buildHarris(n, n));
                const Buffer in = synth::photo(n + 2, n + 2);
                auto outs = exe.run({n, n}, {&in});
                if (outs.size() != 1)
                    std::exit(3);
            }
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(Jit, OpenMPAvailableInJitCode)
{
    JitModule mod = JitModule::compile(
        "#include <omp.h>\n"
        "extern \"C\" int pm_threads() { return omp_get_max_threads(); "
        "}\n");
    auto fn = reinterpret_cast<int (*)()>(mod.symbol("pm_threads"));
    EXPECT_GE(fn(), 1);
}

} // namespace
} // namespace polymage::rt
