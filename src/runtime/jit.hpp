/**
 * @file
 * JIT harness: compiles generated C++ with the system compiler into a
 * shared object and loads it, as PolyMage's generated code was built
 * with icc -O3 in the paper.  Here it is g++ -O1 -march=native
 * -fopenmp: the generator itself does the vectorisation, address
 * hoisting, select specialisation, power-of-two strength reduction and
 * short-loop unrolling that -O3 would otherwise supply (jitFlags).  A
 * multi-unit build compiles its translation units as concurrent
 * `g++ -c` jobs and links the objects with one `g++ -shared`
 * (docs/INTERNALS.md, "JIT units").
 */
#ifndef POLYMAGE_RUNTIME_JIT_HPP
#define POLYMAGE_RUNTIME_JIT_HPP

#include <memory>
#include <string>
#include <vector>

namespace polymage::rt {

/** Flags for the downstream C++ compiler. */
struct JitOptions
{
    std::string compiler = "g++";
    bool nativeArch = true;
    bool openmp = true;
    /** When false, auto-vectorisation is disabled (-fno-tree-vectorize). */
    bool vectorize = true;
    /**
     * Keep the build directory (sources, objects, logs) for
     * inspection.  It lives under std::filesystem::temp_directory_path()
     * ($TMPDIR, else /tmp); a failed build always keeps it.
     */
    bool keepFiles = false;
    std::string extraFlags;
    /**
     * Use the persistent object cache: shared objects are keyed by a
     * hash of (every unit's source, flags, compiler version) and
     * stored under
     * $XDG_CACHE_HOME/polymage/jit, so rebuilding an unchanged pipeline
     * skips the compiler entirely.  Disable per-module here or
     * process-wide with POLYMAGE_JIT_CACHE=0.
     */
    bool cache = true;
};

/**
 * The compiler flags of every JIT job for @p opts, without the
 * compiler, `-c`/`-shared` and file names.  One source for the build
 * and for scripts that check it (`polymage_dump_source --jit-flags`).
 */
std::vector<std::string> jitFlags(const JitOptions &opts = {});

/** A compiled and loaded shared object. */
class JitModule
{
  public:
    /**
     * Compile @p source and load the resulting shared object.
     * @throws InternalError with the compiler diagnostics on failure.
     */
    static JitModule compile(const std::string &source,
                             const JitOptions &opts = {});

    /**
     * Compile each of @p units as its own translation unit, at most
     * hardware_concurrency() compiler jobs at a time machine-wide
     * (flock'ed slot files under the temp directory), then link the
     * objects into one shared object and load it.  A
     * single unit compiles straight to the shared object.  When a
     * trace registry is current, each job reports a `jit.unit` span
     * (args `unit`, `lines`, and `est_cost` from @p est_cost, the
     * generator's compile-cost estimate per unit, when it has one
     * entry per unit) and the link a `jit.link` span.
     * @throws InternalError naming the failing unit, with its
     * diagnostics, on failure; every unit is kept on disk.
     */
    static JitModule compile(const std::vector<std::string> &units,
                             const JitOptions &opts = {},
                             const std::vector<long long> &est_cost = {});

    JitModule(JitModule &&) noexcept;
    JitModule &operator=(JitModule &&) noexcept;
    JitModule(const JitModule &) = delete;
    JitModule &operator=(const JitModule &) = delete;
    ~JitModule();

    /** Resolve a symbol; throws InternalError when missing. */
    void *symbol(const std::string &name) const;

    /** Path of the generated source file (the first unit's). */
    const std::string &sourcePath() const { return sourcePath_; }

    /** True when the shared object was loaded from the persistent
     * cache without invoking the compiler. */
    bool fromCache() const { return fromCache_; }

  private:
    JitModule() = default;

    void *handle_ = nullptr;
    std::string dir_;
    std::string sourcePath_;
    bool keep_ = false;
    bool fromCache_ = false;
};

} // namespace polymage::rt

#endif // POLYMAGE_RUNTIME_JIT_HPP
