/**
 * @file
 * Shared pieces of the perfbench harness: clocks and order statistics,
 * the seeded generator, the span log written in polymage-trace-v1, and
 * the state one run carries between its phases.
 */
#ifndef POLYMAGE_PERFBENCH_PERFBENCH_HPP
#define POLYMAGE_PERFBENCH_PERFBENCH_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "serve/engine.hpp"

namespace polymage::perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline Clock::time_point
after(Clock::time_point t, double seconds)
{
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

/** Quantile with linear interpolation between order statistics; 0 for
 * an empty sample. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const auto lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    if (v[hi] == v[lo])
        return v[lo];
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** splitmix64: the benchmark's only source of randomness, so a seed
 * gives the same inputs and arrivals with any standard library. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in (0, 1]. */
    double
    unit()
    {
        return (double(next() >> 11) + 1.0) * (1.0 / 9007199254740992.0);
    }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t s_;
};

/**
 * Spans recorded from the benchmark's side of each layer boundary,
 * serialized in the polymage-trace-v1 schema.  Disabled logs record
 * nothing, so untraced runs pay one branch per call site.
 */
class SpanLog
{
  public:
    SpanLog(bool enabled, Clock::time_point epoch)
        : enabled_(enabled), epoch_(epoch)
    {}

    bool enabled() const { return enabled_; }

    /** Record a closed span; returns its id (-1 when disabled). */
    int
    add(const std::string &name, int parent, Clock::time_point start,
        Clock::time_point end)
    {
        if (!enabled_)
            return -1;
        std::lock_guard<std::mutex> lock(mu_);
        obs::Span s;
        s.name = name;
        s.id = int(spans_.size());
        s.parent = parent;
        s.depth = parent < 0 ? 0 : spans_[std::size_t(parent)].depth + 1;
        s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        start - epoch_)
                        .count();
        s.durationNs =
            std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                 start)
                .count();
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    /** Re-parent spans recorded by another registry (an Executable's
     * compile trace) under @p parent, shifted to start at @p origin. */
    void
    graft(const std::vector<obs::Span> &spans, int parent,
          Clock::time_point origin)
    {
        if (!enabled_)
            return;
        std::map<int, int> ids;
        for (const obs::Span &s : spans) {
            const auto it = ids.find(s.parent);
            const int p = it == ids.end() ? parent : it->second;
            const auto start =
                origin + std::chrono::nanoseconds(s.startNs);
            ids[s.id] = add(s.name, p, start,
                            start + std::chrono::nanoseconds(
                                        std::max<std::int64_t>(
                                            s.durationNs, 0)));
        }
    }

    /** Set the end of span @p id (opened with a zero duration). */
    void
    finish(int id, Clock::time_point end)
    {
        if (!enabled_ || id < 0)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        obs::Span &s = spans_[std::size_t(id)];
        s.durationNs =
            std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                 epoch_)
                .count() -
            s.startNs;
    }

    std::string
    toJson() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return obs::spansToJson(spans_);
    }

  private:
    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<obs::Span> spans_;
};

/** Metric values of one run, by name. */
using Metrics = std::map<std::string, double>;

/** Correctness tally of one run: every timed call, request, frame,
 * cold build and oracle comparison is one attempted operation. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failures.size() < 20)
                failures.push_back(what);
        }
    }
};

/** Largest element-wise difference over every @p stride-th element
 * (the whole buffer for stride 1); +inf on a shape mismatch. */
double sampledMaxDiff(const rt::Buffer &a, const rt::Buffer &b,
                      std::int64_t stride);

/** Everything the serve phase needs, built during set-up. */
struct ServeRig
{
    std::shared_ptr<serve::PipelineRegistry> registry;
    std::unique_ptr<serve::Engine> engine;
    /** The seven apps at scale 0.25, in paper order. */
    std::vector<bench::AppBench> apps;
    /** Per-app output tolerance (the app tests' oracle tolerance). */
    std::vector<double> tols;
    /** Seeded input variants per app, and their expected outputs. */
    std::vector<std::vector<std::vector<std::shared_ptr<rt::Buffer>>>>
        inputs;
    std::vector<std::vector<std::vector<rt::Buffer>>> expected;
    std::vector<std::int64_t> streamParams;
    std::vector<std::shared_ptr<serve::StreamSession>> sessions;
    /** Frame pool cycled by every session (session k starts at k). */
    std::vector<std::shared_ptr<rt::Buffer>> frames;
};

/** Results of the serve phase. */
struct ServeResult
{
    Metrics e2e;
    Metrics layer;
    /** Per-rate summaries, for the run's metadata line. */
    std::string ratesJson;
};

/** One request of the serve load, filled in by its callback. */
struct RequestRecord
{
    Clock::time_point due;
    Clock::time_point done;
    int app = 0;
    int variant = 0;
    /** Rate window (0..2) and load segment it was sent in. */
    int window = 0;
    int segment = 0;
    /** Requests outstanding when it was sent (backlog test). */
    double outstanding = 0.0;
    double queueSeconds = 0.0;
    double runSeconds = 0.0;
    bool ok = false;
    std::string error;
    /** Trace span of its rate window. */
    int span = -1;
};

/** One stream frame of the serve load, filled in by its callback. */
struct FrameRecord
{
    Clock::time_point due;
    Clock::time_point done;
    int session = 0;
    /** Session-local frame index. */
    long long index = 0;
    /** Rate window it was due in (-1 in a gap), and load segment. */
    int window = -1;
    int segment = 0;
    double queueSeconds = 0.0;
    double runSeconds = 0.0;
    double checksum = 0.0;
    bool ok = false;
    std::string error;
    /** Trace span of its load segment. */
    int span = -1;
};

/**
 * Open-loop serve load: seeded Poisson one-shot requests at the fixed
 * rates beside paced stream sessions.  It runs in segments, so the run
 * can interleave it with the apps phase and both sample the whole run.
 */
class ServeLoad
{
  public:
    /** Warms the engine's per-worker pools (untimed). */
    ServeLoad(ServeRig &rig, std::uint64_t seed, SpanLog &log,
              Tally &tally);
    ServeLoad(const ServeLoad &) = delete;
    ServeLoad &operator=(const ServeLoad &) = delete;

    /** Offer each rate in turn for a share of @p seconds, then wait
     * until everything sent has completed; spans go under @p parent. */
    void segment(double seconds, int parent);

    /** Check frames against a replay and compute the metrics. */
    ServeResult finish();

  private:
    serve::Request request(int app, int variant) const;
    bool drained() const;

    ServeRig &rig_;
    Rng rng_;
    SpanLog &log_;
    Tally &tally_;
    std::vector<std::string> names_;
    /** Deques: callbacks hold references to their records. */
    std::deque<RequestRecord> reqs_;
    std::deque<FrameRecord> frames_;
    std::atomic<std::size_t> reqsDone_{0};
    std::atomic<std::size_t> framesDone_{0};
    std::size_t reqsSent_ = 0;
    std::vector<long long> framesSent_;
    std::vector<int> deck_;
    std::vector<double> lag_;
    /** Open and close time of each rate window, indexed
     * [segment * 3 + window]. */
    std::vector<std::pair<Clock::time_point, Clock::time_point>> windows_;
    int segments_ = 0;
    serve::ServeSnapshot before_;
    std::vector<std::uint64_t> sessionAllocs_;
};

} // namespace polymage::perfbench

#endif // POLYMAGE_PERFBENCH_PERFBENCH_HPP
