#include "runtime/jit.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <spawn.h>
#include <sstream>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "support/diagnostics.hpp"
#include "support/trace.hpp"

extern char **environ;

namespace polymage::rt {

namespace fs = std::filesystem;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
removeTree(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (ec)
        warn("failed to remove JIT temp dir " + dir + ": " +
             ec.message());
}

/** 64-bit FNV-1a; collision-tolerant enough for a content cache. */
std::uint64_t
fnv1a(const std::string &data, std::uint64_t h = 14695981039346656037ULL)
{
    for (unsigned char c : data) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * First line of `compiler --version`, memoised per compiler name so a
 * cache hit costs one subprocess per process lifetime, not per build.
 * Empty when the probe fails (the cache key then degrades gracefully
 * to source+flags).
 */
std::string
compilerVersion(const std::string &compiler)
{
    static std::mutex mu;
    static std::unordered_map<std::string, std::string> memo;
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(compiler);
    if (it != memo.end())
        return it->second;

    std::string line;
    const std::string cmd = compiler + " --version 2>/dev/null";
    if (FILE *p = popen(cmd.c_str(), "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof buf, p) != nullptr)
            line = buf;
        pclose(p);
    }
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
    memo[compiler] = line;
    return line;
}

/**
 * Persistent cache directory: POLYMAGE_JIT_CACHE_DIR, else
 * $XDG_CACHE_HOME/polymage/jit, else $HOME/.cache/polymage/jit, else a
 * world-shared directory under the temp directory.  Created on demand;
 * empty on failure (caching is then skipped).
 */
std::string
cacheDir()
{
    std::string dir;
    if (const char *e = std::getenv("POLYMAGE_JIT_CACHE_DIR");
        e != nullptr && e[0] != '\0') {
        dir = e;
    } else if (const char *xdg = std::getenv("XDG_CACHE_HOME");
               xdg != nullptr && xdg[0] != '\0') {
        dir = std::string(xdg) + "/polymage/jit";
    } else if (const char *home = std::getenv("HOME");
               home != nullptr && home[0] != '\0') {
        dir = std::string(home) + "/.cache/polymage/jit";
    } else {
        std::error_code ec;
        const fs::path tmp = fs::temp_directory_path(ec);
        if (ec)
            return {};
        dir = (tmp / "polymage-jit-cache").string();
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return {};
    return dir;
}

/**
 * Atomically publish @p src as @p dst within the cache: copy to a
 * unique temp name in the same directory, then rename.  Safe under
 * concurrent writers — the temp name is unique per process *and*
 * per call (pid alone would collide for two threads of one process),
 * and rename() replaces any concurrent winner atomically, so readers
 * only ever see a complete file.  Best effort — a failure only loses
 * the cache entry, never the build.
 */
void
publishToCache(const std::string &src, const std::string &dst)
{
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp = dst + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(seq.fetch_add(1));
    std::error_code ec;
    fs::copy_file(src, tmp, fs::copy_options::overwrite_existing, ec);
    if (ec)
        return;
    fs::rename(tmp, dst, ec);
    if (ec)
        fs::remove(tmp, ec);
}

/**
 * Pin the OpenMP runtime for the life of the process, once, before the
 * first module is loaded.  Otherwise the first `-fopenmp` module pulls
 * libgomp in and dlclose() of the last such module unloads it while
 * its pool threads are still parked inside it.
 */
void
pinOpenMPRuntime()
{
    static std::once_flag once;
    std::call_once(once, [] {
        dlopen("libgomp.so.1", RTLD_NOW | RTLD_GLOBAL | RTLD_NODELETE);
    });
}

/**
 * Cap on concurrent compiler jobs (hardware_concurrency()), shared by
 * every JitModule::compile of every process on the machine, so
 * concurrent registry or autotuner builds -- or test processes
 * building at once -- do not oversubscribe the cores.  A slot is an
 * exclusive flock on one of that many files under the temp directory;
 * the kernel drops the lock of a holder that dies.  Where the files
 * cannot be opened the job runs without a slot.
 */
class JobSlot
{
  public:
    JobSlot()
    {
        static const int slots =
            int(std::max(1u, std::thread::hardware_concurrency()));
        std::error_code ec;
        const fs::path dir =
            fs::temp_directory_path(ec) / "polymage-jit-slots";
        if (!ec)
            fs::create_directories(dir, ec);
        if (ec)
            return;
        auto open = [&](int k) {
            return ::open((dir / std::to_string(k)).c_str(),
                          O_RDONLY | O_CREAT | O_CLOEXEC, 0666);
        };
        static std::atomic<unsigned> next{0};
        const int first = int(next.fetch_add(1) % unsigned(slots));
        for (int i = 0; i < slots; ++i) {
            fd_ = open((first + i) % slots);
            if (fd_ >= 0 && ::flock(fd_, LOCK_EX | LOCK_NB) == 0)
                return;
            if (fd_ >= 0)
                ::close(fd_);
            fd_ = -1;
        }
        // Every slot is busy: wait for one.
        fd_ = open(first);
        while (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
        }
    }
    ~JobSlot()
    {
        if (fd_ >= 0)
            ::close(fd_); // releases the lock
    }
    JobSlot(const JobSlot &) = delete;
    JobSlot &operator=(const JobSlot &) = delete;

  private:
    int fd_ = -1;
};

std::vector<std::string>
splitWords(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    for (std::string w; in >> w;)
        out.push_back(w);
    return out;
}

std::string
joinWords(const std::vector<std::string> &words)
{
    std::string out;
    for (const auto &w : words)
        out += (out.empty() ? "" : " ") + w;
    return out;
}

/** One finished compiler job. */
struct Job
{
    int status = -1;
    std::chrono::steady_clock::time_point start, end;
};

/**
 * Run @p argv (no shell) holding a JobSlot, stdout and stderr to
 * @p log_path, and wait for it.  status is the exit code, 128+signal
 * on a crash, or -1 when the process could not be started.
 */
Job
runJob(const std::vector<std::string> &argv, const std::string &log_path)
{
    std::vector<char *> args;
    for (const auto &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 2, 1);

    Job job;
    const JobSlot slot;
    job.start = std::chrono::steady_clock::now();
    pid_t pid = 0;
    if (posix_spawnp(&pid, args[0], &fa, nullptr, args.data(), environ) ==
        0) {
        int st = 0;
        pid_t r;
        while ((r = waitpid(pid, &st, 0)) < 0 && errno == EINTR) {
        }
        if (r == pid)
            job.status = WIFEXITED(st) ? WEXITSTATUS(st)
                                       : 128 + WTERMSIG(st);
    }
    job.end = std::chrono::steady_clock::now();
    posix_spawn_file_actions_destroy(&fa);
    return job;
}

} // namespace

std::vector<std::string>
jitFlags(const JitOptions &opts)
{
    // -O1: the generator already vectorises, hoists addresses,
    // specialises selects, strength-reduces power-of-two division and
    // unrolls short literal loops, which is what g++'s highest level
    // added on top at about 1.4x the compile time.  Loops under
    // `omp simd` still vectorise at -O1.  -fexpensive-optimizations
    // turns on the one -O2 pass the generated code still needs:
    // contraction of multiply-add into FMA (GCC's widening_mul pass),
    // which C cannot request for vector-extension types and which icc
    // does in the paper's setup; it adds no measurable compile time.
    // -fno-math-errno lets gcc vectorise transcendental calls (expf,
    // powf) under omp simd via libmvec, matching what icc does by
    // default.  It is not -ffast-math: IEEE semantics are otherwise
    // preserved.
    std::vector<std::string> flags = {"-fPIC", "-std=c++17", "-w",
                                      "-fno-math-errno", "-O1",
                                      "-fexpensive-optimizations"};
    if (opts.nativeArch)
        flags.push_back("-march=native");
    if (opts.openmp)
        flags.push_back("-fopenmp");
    if (!opts.vectorize) {
        flags.push_back("-fno-tree-vectorize");
        flags.push_back("-fno-tree-slp-vectorize");
    }
    for (auto &w : splitWords(opts.extraFlags))
        flags.push_back(std::move(w));
    return flags;
}

JitModule
JitModule::compile(const std::string &source, const JitOptions &opts)
{
    return compile(std::vector<std::string>{source}, opts);
}

JitModule
JitModule::compile(const std::vector<std::string> &units,
                   const JitOptions &opts,
                   const std::vector<long long> &est_cost)
{
    PM_ASSERT(!units.empty(), "JIT build without translation units");
    const std::vector<std::string> flags = jitFlags(opts);

    // The cache key covers everything that shapes the object code:
    // every unit's source (length-prefixed, so unit boundaries count),
    // every compiler flag, and the compiler's own identity/version.
    const char *env_cache = std::getenv("POLYMAGE_JIT_CACHE");
    const bool use_cache =
        opts.cache &&
        !(env_cache != nullptr && std::string(env_cache) == "0");
    std::string cache_so, cache_cpp;
    if (use_cache) {
        const std::string cdir = cacheDir();
        if (!cdir.empty()) {
            std::uint64_t h = fnv1a(std::to_string(units.size()));
            for (const auto &u : units)
                h = fnv1a(u, fnv1a(std::to_string(u.size()) + ":", h));
            h = fnv1a(opts.compiler + " " + joinWords(flags), h);
            h = fnv1a(compilerVersion(opts.compiler), h);
            char key[32];
            std::snprintf(key, sizeof key, "%016llx",
                          (unsigned long long)h);
            cache_so = cdir + "/" + key + ".so";
            cache_cpp = cdir + "/" + key + ".cpp";
        }
    }

    pinOpenMPRuntime();
    if (!cache_so.empty() && fs::exists(cache_so)) {
        JitModule mod;
        mod.handle_ = dlopen(cache_so.c_str(), RTLD_NOW | RTLD_LOCAL);
        if (mod.handle_ != nullptr) {
            mod.fromCache_ = true;
            if (fs::exists(cache_cpp))
                mod.sourcePath_ = cache_cpp;
            return mod;
        }
        // Unloadable entry (corrupt or wrong-arch): rebuild over it.
        std::error_code ec;
        fs::remove(cache_so, ec);
    }

    std::string tmpl =
        (fs::temp_directory_path() / "polymage_jit_XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr)
        internalError("mkdtemp failed for JIT compilation in ",
                      fs::temp_directory_path().string());

    JitModule mod;
    mod.dir_ = tmpl;
    mod.keep_ = opts.keepFiles;
    const std::size_t n = units.size();
    std::vector<std::string> cpp(n), obj(n), logs(n);
    for (std::size_t k = 0; k < n; ++k) {
        const std::string base = mod.dir_ + "/unit" + std::to_string(k);
        cpp[k] = base + ".cpp";
        obj[k] = base + ".o";
        logs[k] = base + ".log";
        std::ofstream out(cpp[k]);
        out << units[k];
        if (!out)
            internalError("cannot write JIT source to ", cpp[k]);
    }
    mod.sourcePath_ = cpp[0];
    const std::string so_path = mod.dir_ + "/pipeline.so";

    std::vector<std::string> base = splitWords(opts.compiler);
    if (base.empty())
        internalError("JIT compiler command is empty");
    base.insert(base.end(), flags.begin(), flags.end());
    // One unit compiles straight to the shared object; several compile
    // to objects concurrently and link once.
    auto unit_argv = [&](std::size_t k) {
        std::vector<std::string> argv = base;
        argv.push_back(n == 1 ? "-shared" : "-c");
        argv.push_back(cpp[k]);
        argv.push_back("-o");
        argv.push_back(n == 1 ? so_path : obj[k]);
        return argv;
    };
    std::vector<Job> jobs(n);
    if (n == 1) {
        jobs[0] = runJob(unit_argv(0), logs[0]);
    } else {
        std::vector<std::thread> threads;
        for (std::size_t k = 0; k < n; ++k)
            threads.emplace_back(
                [&, k] { jobs[k] = runJob(unit_argv(k), logs[k]); });
        for (auto &t : threads)
            t.join();
    }
    obs::TraceRegistry *reg = obs::currentTrace();
    for (std::size_t k = 0; k < n; ++k) {
        if (reg != nullptr) {
            const auto lines =
                std::count(units[k].begin(), units[k].end(), '\n');
            std::vector<std::pair<std::string, std::int64_t>> args = {
                {"unit", std::int64_t(k)}, {"lines", std::int64_t(lines)}};
            if (est_cost.size() == n)
                args.emplace_back("est_cost", std::int64_t(est_cost[k]));
            reg->record("jit.unit", jobs[k].start, jobs[k].end,
                        std::move(args));
        }
    }
    for (std::size_t k = 0; k < n; ++k) {
        if (jobs[k].status != 0) {
            mod.keep_ = true; // preserve evidence
            internalError("JIT compilation failed in unit ", k, " of ", n,
                          " (status ", jobs[k].status, "; sources kept in ",
                          mod.dir_, "):\n", joinWords(unit_argv(k)), "\n",
                          readFile(logs[k]));
        }
    }
    if (n > 1) {
        std::vector<std::string> argv = base;
        argv.push_back("-shared");
        argv.insert(argv.end(), obj.begin(), obj.end());
        argv.push_back("-o");
        argv.push_back(so_path);
        const std::string log = mod.dir_ + "/link.log";
        const Job link = runJob(argv, log);
        if (reg != nullptr)
            reg->record("jit.link", link.start, link.end,
                        {{"units", std::int64_t(n)}});
        if (link.status != 0) {
            mod.keep_ = true;
            internalError("JIT link failed (status ", link.status,
                          "; sources kept in ", mod.dir_, "):\n",
                          joinWords(argv), "\n", readFile(log));
        }
    }

    mod.handle_ = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (mod.handle_ == nullptr) {
        mod.keep_ = true;
        internalError("dlopen failed: ", dlerror());
    }

    if (!cache_so.empty()) {
        publishToCache(so_path, cache_so);
        if (n == 1) {
            publishToCache(cpp[0], cache_cpp);
        } else {
            // Inspection copy: the units back to back.
            const std::string joined = mod.dir_ + "/units.cpp";
            std::ofstream out(joined);
            for (std::size_t k = 0; k < n; ++k)
                out << "// ---- unit " << k << "\n" << units[k];
            out.close();
            publishToCache(joined, cache_cpp);
        }
    }
    return mod;
}

JitModule::JitModule(JitModule &&o) noexcept
    : handle_(o.handle_), dir_(std::move(o.dir_)),
      sourcePath_(std::move(o.sourcePath_)), keep_(o.keep_),
      fromCache_(o.fromCache_)
{
    o.handle_ = nullptr;
    o.dir_.clear();
}

JitModule &
JitModule::operator=(JitModule &&o) noexcept
{
    if (this != &o) {
        this->~JitModule();
        new (this) JitModule(std::move(o));
    }
    return *this;
}

JitModule::~JitModule()
{
    if (handle_ != nullptr)
        dlclose(handle_);
    if (!dir_.empty() && !keep_)
        removeTree(dir_);
}

void *
JitModule::symbol(const std::string &name) const
{
    PM_ASSERT(handle_ != nullptr, "module not loaded");
    void *sym = dlsym(handle_, name.c_str());
    if (sym == nullptr)
        internalError("symbol '", name, "' not found in JIT module");
    return sym;
}

} // namespace polymage::rt
