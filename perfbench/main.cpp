/**
 * @file
 * perfbench: the repository benchmark (README.md in this directory).
 *
 * One process runs one workload, in this order:
 *
 *   setup  build the seven paper apps (scale 0.5, bench_util.hpp's
 *          paperBenchmarks) and start a serve::Engine holding the same
 *          apps at scale 0.25 plus temporal_denoise, from a warm JIT
 *          cache, and open two stream sessions (timed);
 *   apps   closed-loop runInto calls at 4, 2 and 1 threads, alternating
 *   serve  in slices with open-loop requests at three fixed rates
 *          beside two paced stream sessions (serve.cpp);
 *   cold   spec to first result from an empty JIT cache: on cold_start
 *          the seven apps after the last slice, elsewhere Unsharp at
 *          the end of every slice;
 *   oracle each executable on a reduced instance against the
 *          reference interpreter (untimed).
 *
 * The last stdout line is one JSON
 * object with the run's end-to-end metrics, per-layer metrics and
 * metadata; run.py turns it into the benchmark's result line.
 *
 * Modes: `run` (the above) and `setup` (set-up only: prints its time,
 * and fills the JIT cache on first use).
 */
#include <link.h>
#include <omp.h>
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "core/stream_plan.hpp"
#include "interp/interpreter.hpp"
#include "interp/stream_ref.hpp"
#include "perfbench.hpp"
#include "runtime/stream.hpp"

namespace fs = std::filesystem;
using namespace polymage;
using namespace polymage::perfbench;

namespace polymage::perfbench {

double
sampledMaxDiff(const rt::Buffer &a, const rt::Buffer &b,
               std::int64_t stride)
{
    if (a.dims() != b.dims() || a.dtype() != b.dtype())
        return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (std::int64_t i = 0; i < a.numel(); i += stride)
        worst = std::max(worst,
                         std::abs(a.loadAsDouble(i) - b.loadAsDouble(i)));
    return worst;
}

} // namespace polymage::perfbench

namespace {

/** Allocate the outputs of @p exe under @p params. */
std::vector<rt::Buffer>
allocOutputs(const rt::Executable &exe,
             const std::vector<std::int64_t> &params)
{
    const auto &g = exe.info().graph;
    const auto shapes = exe.outputShapes(params);
    std::vector<rt::Buffer> outs;
    for (std::size_t i = 0; i < shapes.size(); ++i)
        outs.emplace_back(
            g.stage(g.outputs()[i]).callable->dtype(), shapes[i]);
    return outs;
}

/** One paper app as the apps, cold and oracle phases see it. */
struct PaperApp
{
    /** Metric key: unsharp, bilateral, harris, ... */
    std::string key;
    /** Oracle tolerance: the one the app tests use. */
    double tol = 0.0;
    bench::AppBench bench;
    std::optional<rt::Executable> exe;
    std::vector<rt::Buffer> outs;
    /** Bytes one call moves at the stated size: inputs, outputs and
     * the planned full-buffer intermediates (computed, not counted). */
    double bytes = 0.0;
};

/** Paper order of bench::paperBenchmarks, with the oracle tolerance
 * each app's interpreter-equality test uses (camera: one UChar step
 * for its gamma LUT). */
struct AppKey
{
    const char *benchName;
    const char *key;
    double tol;
};
constexpr AppKey kApps[] = {
    {"Unsharp Mask", "unsharp", 1e-4},
    {"Bilateral Grid", "bilateral", 1e-4},
    {"Harris Corner", "harris", 1e-3},
    {"Camera Pipeline", "camera", 1.0},
    {"Pyramid Blending", "pyramid", 1e-3},
    {"Multiscale Interp", "interp", 1e-3},
    {"Local Laplacian", "local_laplacian", 1e-3},
};
constexpr int kThreads[3] = {4, 2, 1};
/** Timed passes over the seven apps per round, by thread count. */
constexpr int kPasses[3] = {2, 1, 1};
/** Share of --seconds for the apps phase; the serve load gets the
 * rest, since its latency quantiles need the most samples. */
constexpr double kAppsShare = 0.4;
/** Slices the apps phase and the serve load alternate in. */
constexpr int kSlices = 6;
/** Seeded input variants per app in the serve mix. */
constexpr int kServeVariants = 2;
/** Frames in the pool every stream session cycles through. */
constexpr int kStreamFrames = 8;
constexpr double kStreamTol = 1e-5;

struct Options
{
    std::string mode = "run";
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string state;
};

/** Whether @p workload's cold phase covers all seven apps (cold_start)
 * or Unsharp alone (paper_apps); false for an unknown workload. */
bool
planFor(const std::string &workload, bool &coldAll)
{
    if (workload != "paper_apps" && workload != "cold_start")
        return false;
    coldAll = workload == "cold_start";
    return true;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<paper_apps|cold_start> --seed N --seconds S "
                 "--trace 0|1 --state DIR [--mode run|setup]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--mode")
            o.mode = v;
        else if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--state")
            o.state = v;
        else
            usage(("unknown flag " + a).c_str());
    }
    if (o.state.empty())
        usage("--state is required");
    if (o.mode != "run" && o.mode != "setup")
        usage(("unknown mode " + o.mode).c_str());
    if (o.seconds <= 0)
        usage("--seconds must be positive");
    return o;
}

/**
 * Seeded copy of a paper input: rolled cyclically by an even number of
 * rows and columns (even keeps a Bayer mosaic's phase), so each seed
 * gives different pixels with the same value distribution.
 */
rt::Buffer
rollInput(const rt::Buffer &src, Rng &rng)
{
    const auto &d = src.dims();
    const std::int64_t R = d[d.size() - 2], C = d.back();
    const std::int64_t dr = 2 * std::int64_t(rng.below(std::uint64_t(R / 2)));
    const std::int64_t dc = 2 * std::int64_t(rng.below(std::uint64_t(C / 2)));
    rt::Buffer out(src.dtype(), d);
    const std::size_t es = dsl::dtypeSize(src.dtype());
    const std::int64_t planes = src.numel() / (R * C);
    const auto *in = static_cast<const char *>(src.data());
    auto *o = static_cast<char *>(out.data());
    for (std::int64_t p = 0; p < planes; ++p)
        for (std::int64_t r = 0; r < R; ++r) {
            const char *row = in + std::size_t((p * R + r) * C) * es;
            char *dst =
                o + std::size_t((p * R + (r + dr) % R) * C) * es;
            std::memcpy(dst + std::size_t(dc) * es, row,
                        std::size_t(C - dc) * es);
            std::memcpy(dst, row + std::size_t(C - dc) * es,
                        std::size_t(dc) * es);
        }
    return out;
}

/** Top-left crop of @p src whose last two dimensions shrink by
 * (@p dr, @p dc). */
rt::Buffer
cropInput(const rt::Buffer &src, std::int64_t dr, std::int64_t dc)
{
    auto d = src.dims();
    const std::int64_t R = d[d.size() - 2], C = d.back();
    d[d.size() - 2] = R - dr;
    d.back() = C - dc;
    rt::Buffer out(src.dtype(), d);
    const std::size_t es = dsl::dtypeSize(src.dtype());
    const std::int64_t planes = src.numel() / (R * C);
    for (std::int64_t p = 0; p < planes; ++p)
        for (std::int64_t r = 0; r < R - dr; ++r)
            std::memcpy(static_cast<char *>(out.data()) +
                            std::size_t((p * (R - dr) + r) * (C - dc)) * es,
                        static_cast<const char *>(src.data()) +
                            std::size_t((p * R + r) * C) * es,
                        std::size_t(C - dc) * es);
    return out;
}

std::vector<const rt::Buffer *>
pointers(const std::vector<rt::Buffer> &v)
{
    std::vector<const rt::Buffer *> p;
    for (const auto &b : v)
        p.push_back(&b);
    return p;
}

/** Sum of the durations of spans named @p name, in seconds. */
double
spanSeconds(const std::vector<obs::Span> &spans, const std::string &name)
{
    double s = 0;
    for (const auto &sp : spans)
        if (sp.name == name)
            s += sp.seconds();
    return s;
}

/** Everything one run builds in set-up. */
struct Rig
{
    std::vector<PaperApp> apps;
    ServeRig serve;
    /** Compile-phase spans of every set-up build (apps first). */
    std::vector<std::vector<obs::Span>> appTraces;
    std::vector<std::vector<obs::Span>> serveTraces;
};

/**
 * Specs of both app sets and, for a full run, their inputs from the
 * seed (set-up-only runs need the specs alone); untimed.
 */
void
makeInputs(Rig &rig, std::uint64_t seed, bool withInputs)
{
    Rng rng(seed);
    auto apps = bench::paperBenchmarks(0.5);
    if (apps.size() != std::size(kApps))
        usage("paperBenchmarks changed: expected seven apps");
    for (std::size_t i = 0; i < apps.size(); ++i) {
        if (apps[i].name != kApps[i].benchName)
            usage(("paperBenchmarks order changed at " + apps[i].name)
                      .c_str());
        rig.serve.tols.push_back(kApps[i].tol);
        PaperApp a;
        a.key = kApps[i].key;
        a.tol = kApps[i].tol;
        a.bench = std::move(apps[i]);
        for (auto &b : a.bench.inputStorage)
            if (withInputs)
                b = rollInput(b, rng);
        rig.apps.push_back(std::move(a));
    }
    ServeRig &s = rig.serve;
    s.apps = bench::paperBenchmarks(0.25);
    const std::int64_t R = bench::scaled(720, 1.0),
                       C = bench::scaled(1280, 1.0);
    s.streamParams = {R, C};
    if (!withInputs)
        return;
    s.inputs.resize(s.apps.size());
    for (std::size_t i = 0; i < s.apps.size(); ++i)
        for (int v = 0; v < kServeVariants; ++v) {
            std::vector<std::shared_ptr<rt::Buffer>> ins;
            for (const auto &b : s.apps[i].inputStorage)
                ins.push_back(
                    std::make_shared<rt::Buffer>(rollInput(b, rng)));
            s.inputs[i].push_back(std::move(ins));
        }
    for (int f = 0; f < kStreamFrames; ++f)
        s.frames.push_back(std::make_shared<rt::Buffer>(
            rt::synth::photo(R + 2, C + 2, rng.next())));
}

/**
 * The timed set-up: what a restarted process pays before its first
 * timed call.  Returns its wall seconds.
 */
double
setUp(Rig &rig, SpanLog &log, int parent)
{
    const Clock::time_point t0 = Clock::now();
    for (PaperApp &a : rig.apps) {
        const Clock::time_point b0 = Clock::now();
        a.exe.emplace(rt::Executable::build(a.bench.spec, a.bench.tuned));
        a.outs = allocOutputs(*a.exe, a.bench.params);
        rig.appTraces.push_back(a.exe->trace());
        const int id = log.add("build:" + a.key, parent, b0, Clock::now());
        log.graft(a.exe->trace(), id, b0);
    }
    ServeRig &s = rig.serve;
    const Clock::time_point e0 = Clock::now();
    s.registry = std::make_shared<serve::PipelineRegistry>();
    for (const auto &b : s.apps)
        s.registry->add(b.name, b.spec, b.tuned);
    s.registry->add("temporal_denoise",
                    apps::buildTemporalDenoise(s.streamParams[0],
                                               s.streamParams[1]));
    // One OpenMP thread per worker, and a core left over for the
    // generator thread: no request waits at a barrier for a thread the
    // host has descheduled.
    serve::EngineOptions eo;
    eo.workers =
        std::max(1, int(std::thread::hardware_concurrency()) - 1);
    eo.ompThreadsPerWorker = 1;
    s.engine = std::make_unique<serve::Engine>(s.registry, eo);
    for (const std::string &name : s.registry->names()) {
        const Clock::time_point w0 = Clock::now();
        auto exe = s.registry->get(name);
        rig.serveTraces.push_back(exe->trace());
        const int id = log.add("warm:" + name, parent, w0, Clock::now());
        log.graft(exe->trace(), id, w0);
    }
    for (int k = 0; k < 2; ++k)
        s.sessions.push_back(
            s.engine->openStream("temporal_denoise", s.streamParams));
    log.add("engine_start", parent, e0, Clock::now());
    return secondsBetween(t0, Clock::now());
}

/** Set-up metrics read from the compile traces (per-layer). */
void
compileMetrics(const Rig &rig, Metrics &L)
{
    const std::pair<const char *, const char *> phases[] = {
        {"pipeline.graph_build_ms", "graph_build"},
        {"pipeline.inline_ms", "inline"},
        {"pipeline.bounds_check_ms", "bounds_check"},
        {"core.tile_model_ms", "tile_model"},
        {"core.grouping_ms", "grouping"},
        {"core.range_analysis_ms", "range_analysis"},
        {"core.storage_ms", "storage"},
        {"codegen.emit_ms", "codegen"},
    };
    for (const auto &[metric, span] : phases) {
        double s = 0;
        for (const auto &t : rig.appTraces)
            s += spanSeconds(t, span);
        L[metric] = s * 1e3;
    }
    double lines = 0;
    for (const PaperApp &a : rig.apps) {
        const std::string &src = a.exe->info().code.source;
        lines += double(std::count(src.begin(), src.end(), '\n'));
    }
    L["codegen.source_lines"] = lines;
    double load = 0;
    for (const auto &t : rig.appTraces)
        load += spanSeconds(t, "jit");
    for (const auto &t : rig.serveTraces)
        load += spanSeconds(t, "jit");
    L["runtime.jit_load_s"] = load;
}

/**
 * The apps phase: closed-loop runInto calls at 4, 2 and 1 threads, in
 * rounds that interleave the thread counts, run in slices between the
 * serve load's segments.
 */
class AppsLoop
{
  public:
    /** One untimed pass per thread count grows each thread team and
     * the buffer pools; outputs at 4 threads are the consistency
     * reference. */
    AppsLoop(Rig &rig, SpanLog &log, Tally &tally)
        : rig_(rig), log_(log), tally_(tally), ms_(3 * rig.apps.size()),
          sliceMs_(3 * rig.apps.size()), ref_(rig.apps.size())
    {
        for (int ti = 0; ti < 3; ++ti) {
            omp_set_num_threads(kThreads[ti]);
            for (std::size_t i = 0; i < rig.apps.size(); ++i) {
                PaperApp &a = rig.apps[i];
                a.exe->runInto(a.bench.params, a.bench.inputs(), a.outs);
                if (ti == 0)
                    ref_[i] = a.outs;
            }
        }
        for (const PaperApp &a : rig.apps)
            allocs0_ += a.exe->memoryStats().poolBlockAllocs;
    }

    /** Whole rounds for about @p seconds (at least one). */
    void
    slice(double seconds, int parent)
    {
        const std::size_t n = rig_.apps.size();
        const Clock::time_point deadline = after(Clock::now(), seconds);
        std::vector<std::size_t> first;
        for (const auto &v : ms_)
            first.push_back(v.size());
        do {
            for (int ti = 0; ti < 3; ++ti) {
                omp_set_num_threads(kThreads[ti]);
                // Wake the team outside the timed calls: after a
                // 1-thread block its idle threads have gone to sleep.
#pragma omp parallel
                {
                }
                const Clock::time_point b0 = Clock::now();
                const int bid = log_.add(
                    "threads:" + std::to_string(kThreads[ti]), parent, b0,
                    b0);
                for (int pass = 0; pass < kPasses[ti]; ++pass)
                    for (std::size_t i = 0; i < n; ++i)
                        ms_[std::size_t(ti) * n + i].push_back(
                            timedRun(rig_.apps[i], bid));
                log_.finish(bid, Clock::now());
            }
        } while (Clock::now() < deadline);
        for (std::size_t k = 0; k < ms_.size(); ++k)
            sliceMs_[k].push_back(median(std::vector<double>(
                ms_[k].begin() + std::ptrdiff_t(first[k]), ms_[k].end())));
    }

    void
    finish(Metrics &E, Metrics &L)
    {
        const std::size_t n = rig_.apps.size();
        // Outputs must not depend on the thread count (the last block
        // ran on one thread).
        std::uint64_t allocs1 = 0, runs = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const PaperApp &a = rig_.apps[i];
            bool same = true;
            for (std::size_t o = 0; o < a.outs.size(); ++o)
                same = same &&
                       sampledMaxDiff(a.outs[o], ref_[i][o], 1) <= a.tol;
            tally_.check(same, a.key +
                                   ": output at 1 thread differs from 4 "
                                   "threads");
            allocs1 += a.exe->memoryStats().poolBlockAllocs;
        }
        for (int ti = 0; ti < 3; ++ti)
            for (std::size_t i = 0; i < n; ++i) {
                const auto &v = ms_[std::size_t(ti) * n + i];
                runs += v.size();
                std::fprintf(stderr,
                             "apps %-16s %d thr: n %3zu  min %8.3f  med "
                             "%8.3f  p90 %8.3f  max %8.3f ms\n",
                             rig_.apps[i].key.c_str(), kThreads[ti],
                             v.size(), quantile(v, 0), median(v),
                             quantile(v, 0.9), quantile(v, 1));
            }
        double logT2 = 0, logT1 = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const PaperApp &a = rig_.apps[i];
            const auto &t4 = ms_[i];
            const double m4 = median(sliceMs_[i]);
            L["runtime.t4_ms." + a.key] = m4;
            logT2 += std::log(median(sliceMs_[n + i]));
            logT1 += std::log(median(sliceMs_[2 * n + i]));
            L["runtime.t1_ms." + a.key] = median(sliceMs_[2 * n + i]);
            L["runtime.gbps." + a.key] = a.bytes / (m4 * 1e-3) / 1e9;
            const double fastest = quantile(t4, 0);
            std::size_t stalled = 0;
            for (double t : t4)
                if (t >= 2.0 * fastest)
                    ++stalled;
            L["runtime.stall_share." + a.key] =
                double(stalled) / double(t4.size());
        }
        E["apps_t2_geomean_ms"] = std::exp(logT2 / double(n));
        E["apps_t1_geomean_ms"] = std::exp(logT1 / double(n));
        L["runtime.pool_allocs_per_run"] =
            double(allocs1 - allocs0_) /
            double(std::max<std::uint64_t>(runs, 1));
    }

  private:
    /** Time one runInto call of @p a, in milliseconds. */
    double
    timedRun(PaperApp &a, int parent)
    {
        const Clock::time_point c0 = Clock::now();
        bool ok = true;
        try {
            a.exe->runInto(a.bench.params, a.bench.inputs(), a.outs);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "run %s: %s\n", a.key.c_str(), e.what());
            ok = false;
        }
        const Clock::time_point c1 = Clock::now();
        tally_.check(ok, "runInto " + a.key);
        log_.add("run:" + a.key, parent, c0, c1);
        return secondsBetween(c0, c1) * 1e3;
    }

    Rig &rig_;
    SpanLog &log_;
    Tally &tally_;
    /** Milliseconds per call, by thread-count index then app. */
    std::vector<std::vector<double>> ms_;
    /** The median of each slice, same indexing; the reported times
     * are medians of these, so a stretch of a slow host that covers
     * less than half the slices moves them little. */
    std::vector<std::vector<double>> sliceMs_;
    std::vector<std::vector<rt::Buffer>> ref_;
    std::uint64_t allocs0_ = 0;
};

/** Spec to first result of @p a from an empty JIT cache. */
struct ColdStart
{
    double seconds = 0.0;
    double compileSeconds = 0.0;
    double firstRunSeconds = 0.0;
};

ColdStart
coldStart(PaperApp &a, const std::string &state,
          const std::string &warmCache, SpanLog &log, int parent,
          Tally &tally)
{
    const std::string dir = state + "/cold-jit-" +
                            std::to_string(::getpid()) + "-" + a.key;
    fs::remove_all(dir);
    fs::create_directories(dir);
    ::setenv("POLYMAGE_JIT_CACHE_DIR", dir.c_str(), 1);
    const Clock::time_point c0 = Clock::now();
    std::optional<rt::Executable> exe;
    std::vector<rt::Buffer> outs;
    Clock::time_point r0 = c0;
    bool ok = true;
    try {
        exe.emplace(rt::Executable::build(a.bench.spec, a.bench.tuned));
        r0 = Clock::now();
        outs = exe->run(a.bench.params, a.bench.inputs());
    } catch (const std::exception &e) {
        ok = false;
        std::fprintf(stderr, "cold %s: %s\n", a.key.c_str(), e.what());
    }
    const Clock::time_point c1 = Clock::now();
    ::setenv("POLYMAGE_JIT_CACHE_DIR", warmCache.c_str(), 1);
    fs::remove_all(dir);
    // The first result must match the warm executable's output.
    for (std::size_t o = 0; ok && o < outs.size(); ++o)
        ok = sampledMaxDiff(outs[o], a.outs[o], 1) <= a.tol;
    tally.check(ok, "cold start " + a.key);
    const int id = log.add("cold:" + a.key, parent, c0, c1);
    ColdStart cs;
    cs.seconds = secondsBetween(c0, c1);
    cs.firstRunSeconds = secondsBetween(r0, c1);
    if (exe) {
        cs.compileSeconds = spanSeconds(exe->trace(), "jit");
        log.graft(exe->trace(), id, c0);
    }
    log.add("first_run", id, r0, c1);
    return cs;
}

/**
 * One sample of the cold phase: on cold_start the seven apps one after
 * another, summed; elsewhere Unsharp alone.
 */
ColdStart
runCold(Rig &rig, bool all, const std::string &state,
        const std::string &warmCache, SpanLog &log, int parent,
        Tally &tally)
{
    omp_set_num_threads(kThreads[0]);
    if (!all)
        return coldStart(rig.apps[0], state, warmCache, log, parent,
                         tally);
    ColdStart sum;
    for (PaperApp &a : rig.apps) {
        const ColdStart cs =
            coldStart(a, state, warmCache, log, parent, tally);
        sum.seconds += cs.seconds;
        sum.compileSeconds += cs.compileSeconds;
        sum.firstRunSeconds += cs.firstRunSeconds;
    }
    return sum;
}

/** Cold metrics from the median sample (by spec-to-result time). */
void
coldMetrics(std::vector<ColdStart> runs, Metrics &E, Metrics &L)
{
    std::sort(runs.begin(), runs.end(),
              [](const ColdStart &a, const ColdStart &b) {
                  return a.seconds < b.seconds;
              });
    const ColdStart &lo = runs[(runs.size() - 1) / 2];
    const ColdStart &hi = runs[runs.size() / 2];
    E["cold_start_s"] = (lo.seconds + hi.seconds) / 2;
    L["runtime.jit_compile_s"] =
        (lo.compileSeconds + hi.compileSeconds) / 2;
    L["runtime.first_run_ms"] =
        (lo.firstRunSeconds + hi.firstRunSeconds) / 2 * 1e3;
}

/**
 * Run @p exe on a reduced instance of @p spec, cropped from the full
 * inputs, and compare it with the reference interpreter within @p tol.
 */
void
checkReduced(const dsl::PipelineSpec &spec, const rt::Executable &exe,
             const std::vector<std::int64_t> &full,
             const std::vector<rt::Buffer> &fullInputs, double tol,
             Tally &tally, const std::string &label)
{
    const int levels = full.size() > 2 ? int(full.size() - 2) / 2 + 1 : 1;
    // The apps' own size rule: the coarsest pyramid level keeps at
    // least 4 pixels.
    const std::int64_t n =
        std::max<std::int64_t>(64, std::int64_t(4) << (levels - 1));
    const auto params = full.size() > 2
                            ? apps::pyramidParams(n, n, levels)
                            : std::vector<std::int64_t>{n, n};
    std::vector<rt::Buffer> ins;
    for (const auto &b : fullInputs)
        ins.push_back(cropInput(b, full[0] - n, full[1] - n));
    const auto ref = interp::evaluate(pg::PipelineGraph::build(spec),
                                      params, pointers(ins));
    const auto outs = exe.run(params, pointers(ins));
    bool ok = outs.size() == ref.outputs.size();
    for (std::size_t i = 0; ok && i < outs.size(); ++i)
        ok = sampledMaxDiff(outs[i], ref.outputs[i], 1) <= tol;
    tally.check(ok, "oracle " + label);
}

/**
 * Untimed oracle: every set-up executable runs a reduced instance of
 * its pipeline, compared with the reference interpreter at the app
 * tests' tolerances.  Generated code is valid for any runtime size, so
 * the binaries checked are the ones timed.
 */
void
runOracle(Rig &rig, std::uint64_t seed, SpanLog &log, int parent,
          Tally &tally)
{
    const ServeRig &s = rig.serve;
    for (std::size_t i = 0; i < rig.apps.size(); ++i) {
        const PaperApp &a = rig.apps[i];
        const Clock::time_point o0 = Clock::now();
        checkReduced(a.bench.spec, *a.exe, a.bench.params,
                     a.bench.inputStorage, a.tol, tally, a.key);
        const bench::AppBench &b = s.apps[i];
        checkReduced(b.spec, *s.registry->get(b.name), b.params,
                     b.inputStorage, a.tol, tally, a.key + " (serve)");
        log.add("oracle:" + a.key, parent, o0, Clock::now());
    }

    // temporal_denoise: frame by frame against the stream reference.
    const Clock::time_point o0 = Clock::now();
    auto exe = rig.serve.registry->get("temporal_denoise");
    const std::vector<std::int64_t> params = {64, 64};
    Rng rng(seed ^ 0x5eedULL);
    std::vector<rt::Buffer> frames;
    for (int t = 0; t < 6; ++t)
        frames.push_back(rt::synth::photo(66, 66, rng.next()));
    const auto sl = core::lowerStream(
        apps::buildTemporalDenoise(rig.serve.streamParams[0],
                                   rig.serve.streamParams[1]));
    const auto graph = pg::PipelineGraph::build(sl.spec);
    std::vector<std::vector<const rt::Buffer *>> ins;
    for (const auto &f : frames)
        ins.push_back({&f});
    const auto ref = interp::evaluateStream(graph, sl.plan, params, ins);
    rt::StreamExecutable session(exe, params);
    for (std::size_t t = 0; t < frames.size(); ++t) {
        const auto &outs = session.step({&frames[t]});
        tally.check(sampledMaxDiff(outs[0], ref[t][0], 1) <= kStreamTol,
                    "oracle temporal_denoise frame " + std::to_string(t));
    }
    log.add("oracle:temporal_denoise", parent, o0, Clock::now());
}

/** First line of `g++ --version` (the JIT's compiler). */
std::string
compilerVersion()
{
    std::string line;
    if (FILE *p = ::popen("g++ --version 2>/dev/null", "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof buf, p) != nullptr)
            line = buf;
        ::pclose(p);
    }
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
    return line;
}

/** Paths of the loaded libstdc++ and libgomp objects. */
std::vector<std::string>
runtimeLibraries()
{
    std::vector<std::string> libs;
    dl_iterate_phdr(
        [](dl_phdr_info *info, std::size_t, void *data) {
            const std::string name = info->dlpi_name ? info->dlpi_name : "";
            if (name.find("libstdc++") != std::string::npos ||
                name.find("libgomp") != std::string::npos)
                static_cast<std::vector<std::string> *>(data)->push_back(
                    name);
            return 0;
        },
        &libs);
    return libs;
}

/** Jiffies the hypervisor stole from this guest, and all jiffies,
 * summed over CPUs (/proc/stat); zeros where it cannot be read. */
std::pair<double, double>
cpuJiffies()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    double v = 0, steal = 0, total = 0;
    f >> cpu;
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8 && (f >> v); ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

void
writeMetrics(obs::JsonWriter &w, const Metrics &m)
{
    w.beginObject();
    for (const auto &[k, v] : m) {
        w.key(k);
        if (std::isfinite(v)) {
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            w.raw(buf);
        } else {
            w.raw("1e300");
        }
    }
    w.endObject();
}

int
run(const Options &opt)
{
    bool coldAll = false;
    if (!planFor(opt.workload, coldAll))
        usage(("unknown workload '" + opt.workload + "'").c_str());
    const std::string warmCache = opt.state + "/jit";
    fs::create_directories(warmCache);
    ::setenv("POLYMAGE_JIT_CACHE_DIR", warmCache.c_str(), 1);
    // Load the OpenMP runtime from the host binary, so JIT modules
    // never own (and unload) it.
    omp_set_num_threads(kThreads[0]);

    const Clock::time_point epoch = Clock::now();
    SpanLog log(opt.trace, epoch);
    Rig rig;
    makeInputs(rig, opt.seed, opt.mode != "setup");
    for (PaperApp &a : rig.apps) {
        a.bytes = 0;
        for (const auto &b : a.bench.inputStorage)
            a.bytes += double(b.bytes());
    }

    const int setupId = log.add("setup", -1, Clock::now(), Clock::now());
    const double setupSeconds = setUp(rig, log, setupId);
    log.finish(setupId, Clock::now());
    if (opt.mode == "setup") {
        std::printf("{\"setup_s\": %.17g}\n", setupSeconds);
        return 0;
    }
    for (PaperApp &a : rig.apps) {
        for (const auto &o : a.outs)
            a.bytes += double(o.bytes());
        a.bytes += double(a.exe->memoryStats().estBytesNoReuse);
    }
    // Expected serve outputs: a direct run of the registry's own
    // executables on each input variant (untimed).
    ServeRig &s = rig.serve;
    s.expected.resize(s.apps.size());
    for (std::size_t i = 0; i < s.apps.size(); ++i) {
        auto exe = s.registry->get(s.apps[i].name);
        for (const auto &ins : s.inputs[i]) {
            std::vector<const rt::Buffer *> p;
            for (const auto &b : ins)
                p.push_back(b.get());
            s.expected[i].push_back(exe->run(s.apps[i].params, p));
        }
    }

    Tally tally;
    Metrics E, L;
    compileMetrics(rig, L);
    // Wall seconds of each phase, for the metadata line.
    Metrics phases;
    auto phase = [&](const char *name, auto &&body) {
        const Clock::time_point p0 = Clock::now();
        const int id = log.add(name, -1, p0, p0);
        body(id);
        log.finish(id, Clock::now());
        phases[name] += secondsBetween(p0, Clock::now());
    };
    // The apps phase and the serve load alternate in kSlices slices,
    // so both sample the whole run: the host's speed drifts over
    // seconds, and one contiguous block would catch one stretch of it.
    // Outside cold_start, each slice also ends with one cold start of
    // Unsharp, for the same reason.
    const double appsSeconds = opt.seconds * kAppsShare;
    const double serveSeconds = opt.seconds - appsSeconds;
    std::optional<AppsLoop> apps;
    std::optional<ServeLoad> load;
    const auto jiffies0 = cpuJiffies();
    phase("warm", [&](int) {
        apps.emplace(rig, log, tally);
        load.emplace(s, opt.seed, log, tally);
    });
    std::vector<ColdStart> colds;
    auto cold = [&](int id) {
        colds.push_back(
            runCold(rig, coldAll, opt.state, warmCache, log, id, tally));
    };
    for (int k = 0; k < kSlices; ++k) {
        phase("apps", [&](int id) { apps->slice(appsSeconds / kSlices, id); });
        phase("serve",
              [&](int id) { load->segment(serveSeconds / kSlices, id); });
        if (!coldAll)
            phase("cold", cold);
    }
    apps->finish(E, L);
    ServeResult sr;
    phase("serve_check", [&](int) { sr = load->finish(); });
    E.insert(sr.e2e.begin(), sr.e2e.end());
    L.insert(sr.layer.begin(), sr.layer.end());
    if (coldAll)
        phase("cold", cold);
    coldMetrics(colds, E, L);
    const auto jiffies1 = cpuJiffies();
    phase("oracle",
          [&](int id) { runOracle(rig, opt.seed, log, id, tally); });
    E["setup_s"] = setupSeconds;
    for (const auto &f : tally.failures)
        std::fprintf(stderr, "FAILED: %s\n", f.c_str());

    if (opt.trace) {
        const std::string path = opt.state + "/trace-" + opt.workload +
                                 "-" + std::to_string(opt.seed) + ".json";
        std::ofstream(path) << log.toJson() << "\n";
        std::fprintf(stderr, "trace written to %s\n", path.c_str());
    }

    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    const int affinity = sched_getaffinity(0, sizeof cpus, &cpus) == 0
                             ? CPU_COUNT(&cpus)
                             : 0;
    obs::JsonWriter w;
    w.beginObject();
    w.key("correct").value(tally.failed == 0);
    w.key("attempted").value(std::int64_t(tally.attempted));
    w.key("failed").value(std::int64_t(tally.failed));
    w.key("e2e");
    writeMetrics(w, E);
    w.key("layer");
    writeMetrics(w, L);
    w.key("meta").beginObject();
    w.key("workload").value(opt.workload);
    w.key("seed").value(std::int64_t(opt.seed));
    w.key("seconds").value(opt.seconds);
    w.key("nproc").value(int(std::thread::hardware_concurrency()));
    w.key("affinity_cpus").value(affinity);
    w.key("apps_threads").beginArray();
    for (int th : kThreads)
        w.value(th);
    w.endArray();
    w.key("engine_workers").value(s.engine->options().workers);
    w.key("engine_threads_per_worker")
        .value(s.engine->ompThreadsPerWorker());
    w.key("cold_set").value(coldAll ? "all seven apps"
                                    : "unsharp, once per slice");
    w.key("gxx").value(compilerVersion());
    w.key("runtime_libs").beginArray();
    for (const auto &lib : runtimeLibraries())
        w.value(lib);
    w.endArray();
    // Share of CPU time the host took from this guest during the timed
    // phases: a busy host stalls 4-thread barriers and the serve load.
    const double jiffies = jiffies1.second - jiffies0.second;
    w.key("steal_share")
        .value(jiffies > 0 ? (jiffies1.first - jiffies0.first) / jiffies
                           : 0.0);
    w.key("rates").raw(sr.ratesJson);
    w.key("phase_s");
    writeMetrics(w, phases);
    w.endObject();
    w.endObject();
    s.engine->shutdown();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
