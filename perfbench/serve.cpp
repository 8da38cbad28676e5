/**
 * @file
 * The serve load: one generator thread (the caller) submits seeded
 * Poisson arrivals of one-shot requests over the seven apps to a
 * serve::Engine at three fixed rates, while two stream sessions
 * receive frames paced at 60 fps.  Every request and frame is timed
 * from the moment it was due, so a stalled generator or a full queue
 * shows up as latency rather than as a lower offered rate.
 */
#include <cstdio>
#include <thread>

#include "perfbench.hpp"
#include "runtime/stream.hpp"

namespace polymage::perfbench {

namespace {

/**
 * Offered rates in requests per second, fixed so every run offers the
 * same load.  On the 4-vCPU test host the engine (three workers of one
 * thread) kept up with 340 req/s of the seven-app mix at scale 0.25
 * beside the two streams, so these are at most about half of its
 * capacity: near capacity a rate passes or fails with the shared
 * host's speed, and goodput would flip between rates from run to run.
 */
constexpr double kRates[3] = {70.0, 100.0, 180.0};
/** Share of a segment each rate's window gets; the middle rate, whose
 * latencies are reported, gets the most. */
constexpr double kWindowShare[3] = {0.1, 0.8, 0.1};
/** Pause between windows so one rate's tail does not land in the
 * next window. */
constexpr double kGapSeconds = 0.1;
/** Latency limit on a request's p99 for its rate to count as met. */
constexpr double kLatencyLimitSeconds = 0.100;
/** Growth of the mean outstanding requests, first to last quarter of
 * a window, beyond which its backlog counts as growing. */
constexpr double kBacklogGrowth = 16.0;
constexpr double kFrameRate = 60.0;
/** Frames per session whose outputs are replayed and compared. */
constexpr long long kReplayFrames = 240;
/** Every k-th element of each output is compared. */
constexpr std::int64_t kCheckStride = 61;

double
ms(double seconds)
{
    return seconds * 1e3;
}

/** Median over segments of the @p q quantile of item @p k, from
 * samples indexed [segment * @p per + k]. */
double
segmentMedian(const std::vector<std::vector<double>> &samples,
              std::size_t k, std::size_t per, double q)
{
    std::vector<double> perSegment;
    for (std::size_t i = k; i < samples.size(); i += per)
        if (!samples[i].empty())
            perSegment.push_back(quantile(samples[i], q));
    return median(perSegment);
}

/** Strided checksum of a frame output (compared against a replay). */
double
frameChecksum(const rt::Buffer &b)
{
    double sum = 0.0;
    for (std::int64_t i = 0; i < b.numel(); i += kCheckStride)
        sum += b.loadAsDouble(i) * double(1 + (i & 7));
    return sum;
}

} // namespace

ServeLoad::ServeLoad(ServeRig &rig, std::uint64_t seed, SpanLog &log,
                     Tally &tally)
    : rig_(rig), rng_(seed * 0x2545f4914f6cdd1dULL + 17), log_(log),
      tally_(tally)
{
    for (const auto &a : rig.apps)
        names_.push_back(a.name);
    framesSent_.assign(rig.sessions.size(), 0);
    // Warm every worker's buffer pool on every app (untimed), so the
    // timed windows see the steady state a long-running server has.
    std::vector<std::future<serve::Response>> warm;
    for (int round = 0; round < 3; ++round)
        for (std::size_t a = 0; a < names_.size(); ++a)
            for (int k = 0; k < 2; ++k)
                warm.push_back(rig.engine->submit(request(int(a), 0)));
    for (auto &f : warm)
        f.get();
    before_ = rig.engine->metrics();
    for (const auto &s : rig.sessions)
        sessionAllocs_.push_back(s->memoryStats().poolBlockAllocs);
}

serve::Request
ServeLoad::request(int app, int variant) const
{
    serve::Request req;
    req.pipeline = names_[std::size_t(app)];
    req.params = rig_.apps[std::size_t(app)].params;
    for (const auto &b :
         rig_.inputs[std::size_t(app)][std::size_t(variant)])
        req.inputs.push_back(b);
    return req;
}

void
ServeLoad::segment(double seconds, int parent)
{
    serve::Engine &engine = *rig_.engine;
    const int seg = segments_++;
    // The seeded schedule: Poisson arrivals per window, frames on a
    // fixed 60 fps clock per session (staggered by half a period).
    const double active = std::max(0.3, seconds - 2 * kGapSeconds);
    double start[3], len[3];
    for (int w = 0; w < 3; ++w) {
        len[w] = active * kWindowShare[w];
        start[w] = w == 0 ? 0.0 : start[w - 1] + len[w - 1] + kGapSeconds;
    }
    const double total = start[2] + len[2];

    struct Event
    {
        double at;
        bool frame;
        std::size_t index;
    };
    std::vector<Event> events;
    const std::size_t firstReq = reqs_.size();
    for (int w = 0; w < 3; ++w) {
        // Exactly rate x length arrivals at seeded uniform times: a
        // Poisson process conditioned on its count, so every run
        // offers the same number of requests and only their times and
        // order depend on the seed.
        std::vector<double> arrivals(
            std::size_t(std::lround(kRates[w] * len[w])));
        for (double &t : arrivals)
            t = start[w] + len[w] * (1.0 - rng_.unit());
        std::sort(arrivals.begin(), arrivals.end());
        for (const double t : arrivals) {
            // Apps come in seeded shuffles of all seven, so every
            // window offers the same mix and only the order varies.
            if (deck_.empty()) {
                for (int a = 0; a < int(names_.size()); ++a)
                    deck_.push_back(a);
                for (std::size_t i = deck_.size(); i > 1; --i)
                    std::swap(deck_[i - 1], deck_[rng_.below(i)]);
            }
            RequestRecord &r = reqs_.emplace_back();
            r.app = deck_.back();
            deck_.pop_back();
            r.variant = int(rng_.below(rig_.inputs[0].size()));
            r.window = w;
            r.segment = seg;
            r.span = parent;
            events.push_back({t, false, reqs_.size() - 1});
        }
    }
    const double period = 1.0 / kFrameRate;
    const std::size_t nsess = rig_.sessions.size();
    for (std::size_t s = 0; s < nsess; ++s)
        for (long long f = 0;; ++f) {
            const double t =
                double(f) * period + double(s) * period / double(nsess);
            if (t >= total)
                break;
            FrameRecord &fr = frames_.emplace_back();
            fr.session = int(s);
            fr.index = framesSent_[s]++;
            fr.window = -1;
            fr.segment = seg;
            fr.span = parent;
            for (int w = 0; w < 3; ++w)
                if (t >= start[w] && t < start[w] + len[w])
                    fr.window = w;
            events.push_back({t, true, frames_.size() - 1});
        }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.at < b.at;
                     });

    const Clock::time_point t0 = after(Clock::now(), 0.005);
    for (int w = 0; w < 3; ++w)
        windows_.push_back(
            {after(t0, start[w]), after(t0, start[w] + len[w])});
    for (const Event &ev : events) {
        const Clock::time_point due = after(t0, ev.at);
        std::this_thread::sleep_until(due);
        lag_.push_back(secondsBetween(due, Clock::now()));
        if (!ev.frame) {
            RequestRecord &r = reqs_[ev.index];
            r.due = due;
            r.outstanding = double(reqsSent_ - reqsDone_.load());
            ++reqsSent_;
            const auto &expect = rig_.expected[std::size_t(r.app)]
                                              [std::size_t(r.variant)];
            const double tol = rig_.tols[std::size_t(r.app)];
            engine.submit(
                request(r.app, r.variant),
                [&r, &expect, tol, this](serve::Response resp) {
                    r.done = Clock::now();
                    r.queueSeconds = resp.queueSeconds;
                    r.runSeconds = resp.runSeconds;
                    r.ok = resp.ok() &&
                           resp.outputs.size() == expect.size();
                    for (std::size_t i = 0; r.ok && i < expect.size();
                         ++i)
                        r.ok = sampledMaxDiff(resp.outputs[i], expect[i],
                                              kCheckStride) <= tol;
                    if (!resp.ok())
                        r.error = resp.error;
                    else if (!r.ok)
                        r.error = "output differs from direct run";
                    reqsDone_.fetch_add(1, std::memory_order_release);
                });
        } else {
            FrameRecord &f = frames_[ev.index];
            f.due = due;
            const auto &input =
                rig_.frames[std::size_t(f.index + f.session) %
                            rig_.frames.size()];
            engine.submitFrame(
                rig_.sessions[std::size_t(f.session)], {input},
                [&f, this](const serve::StreamFrameResult &res) {
                    f.done = Clock::now();
                    f.queueSeconds = res.queueSeconds;
                    f.runSeconds = res.runSeconds;
                    f.ok = res.ok() && res.outputs != nullptr &&
                           !res.outputs->empty();
                    if (f.ok)
                        f.checksum = frameChecksum((*res.outputs)[0]);
                    else
                        f.error = res.error;
                    framesDone_.fetch_add(1, std::memory_order_release);
                });
        }
    }
    if (log_.enabled()) {
        for (int w = 0; w < 3; ++w) {
            const int id = log_.add(
                "rate:" + std::to_string(int(kRates[w])), parent,
                after(t0, start[w]), after(t0, start[w] + len[w]));
            for (std::size_t i = firstReq; i < reqs_.size(); ++i)
                if (reqs_[i].window == w)
                    reqs_[i].span = id;
        }
    }
    // Let everything sent drain before the next phase runs; a request
    // still out after a minute is a failure of the run, not of a rate.
    const Clock::time_point give_up = after(Clock::now(), 60.0);
    while (!drained() && Clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (!drained()) {
        tally_.check(false, "serve: requests or frames never completed");
        // Callbacks still reference the records: stop the engine so
        // none runs after they are gone.
        engine.shutdown();
        for (const auto &s : rig_.sessions)
            engine.closeStream(s);
    }
}

bool
ServeLoad::drained() const
{
    return reqsDone_.load(std::memory_order_acquire) == reqs_.size() &&
           framesDone_.load(std::memory_order_acquire) == frames_.size();
}

ServeResult
ServeLoad::finish()
{
    const serve::ServeSnapshot snap = rig_.engine->metrics();

    // Frame outputs against a direct replay of each session's first
    // kReplayFrames frames (the replay is sequential, so it is capped
    // to keep the run short); every frame must have succeeded.
    auto exe = rig_.registry->get("temporal_denoise");
    for (std::size_t s = 0; s < rig_.sessions.size(); ++s) {
        rt::StreamExecutable replay(exe, rig_.streamParams);
        for (const FrameRecord &f : frames_) {
            if (f.session != int(s))
                continue;
            bool same = true;
            if (f.index < kReplayFrames) {
                const auto &outs = replay.step(
                    {rig_.frames[std::size_t(f.index + f.session) %
                                 rig_.frames.size()]
                         .get()});
                const double want = frameChecksum(outs[0]);
                same = std::abs(f.checksum - want) <=
                       1e-9 * (1.0 + std::abs(want));
            }
            tally_.check(f.ok && same,
                         "stream frame " + std::to_string(f.index) +
                             (f.ok ? ": differs from direct replay"
                                   : ": " + f.error));
        }
    }

    ServeResult out;
    std::uint64_t failed = 0;
    std::vector<double> lat[3], queue[3], run[3];
    // Latencies by segment and window: the reported quantiles are
    // medians over segments, so a stretch of a slow host that covers
    // less than half the segments moves them little.
    std::vector<std::vector<double>> segLat(std::size_t(segments_) * 3);
    // Outstanding requests at submit, by segment and window, for the
    // backlog test.
    std::vector<std::vector<double>> outstanding(
        std::size_t(segments_) * 3);
    // Latencies at the middle rate by segment and app.
    const std::size_t napps = names_.size();
    std::vector<std::vector<double>> appLat(std::size_t(segments_) * napps);
    // A window serves until it closes or its last request completes,
    // whichever is later.
    std::vector<Clock::time_point> served;
    for (const auto &[open, close] : windows_)
        served.push_back(close);
    for (const RequestRecord &r : reqs_) {
        tally_.check(r.ok, "request " + names_[std::size_t(r.app)] + ": " +
                               r.error);
        if (!r.ok)
            ++failed;
        const double l = r.ok ? secondsBetween(r.due, r.done)
                              : std::numeric_limits<double>::infinity();
        const std::size_t sw =
            std::size_t(r.segment) * 3 + std::size_t(r.window);
        lat[r.window].push_back(l);
        segLat[sw].push_back(l);
        if (r.window == 1)
            appLat[std::size_t(r.segment) * napps + std::size_t(r.app)]
                .push_back(l);
        queue[r.window].push_back(r.queueSeconds);
        run[r.window].push_back(r.runSeconds);
        outstanding[sw].push_back(r.outstanding);
        served[sw] = std::max(served[sw], r.done);
    }
    obs::JsonWriter rates;
    rates.beginArray();
    double goodput = 0.0;
    for (int w = 0; w < 3; ++w) {
        std::size_t inLimit = 0, bad = 0;
        double servedSeconds = 0.0;
        for (std::size_t sw = std::size_t(w); sw < served.size(); sw += 3)
            servedSeconds += secondsBetween(windows_[sw].first, served[sw]);
        for (double l : lat[w]) {
            if (l <= kLatencyLimitSeconds)
                ++inLimit;
            if (std::isinf(l))
                ++bad;
        }
        // A growing backlog: the last quarter of its windows saw at
        // least twice as many outstanding requests as the first, and
        // more than a few requests' worth (an unstable queue grows by
        // (offered - served) x window; noise in a stable one is small).
        double first = 0, last = 0;
        for (int seg = 0; seg < segments_; ++seg) {
            const auto &o = outstanding[std::size_t(seg) * 3 + std::size_t(w)];
            const std::size_t q = std::max<std::size_t>(o.size() / 4, 1);
            if (o.empty())
                continue;
            for (std::size_t i = 0; i < q; ++i) {
                first += o[i] / double(q * std::size_t(segments_));
                last += o[o.size() - 1 - i] /
                        double(q * std::size_t(segments_));
            }
        }
        const bool growing =
            last > 2.0 * first && last - first > kBacklogGrowth;
        const double p99 = segmentMedian(segLat, std::size_t(w), 3, 0.99);
        const bool met = bad == 0 && !growing && !lat[w].empty() &&
                         p99 <= kLatencyLimitSeconds;
        const double rateGoodput = double(inLimit) / servedSeconds;
        if (met)
            goodput = std::max(goodput, rateGoodput);
        rates.beginObject();
        rates.key("offered_rps").value(kRates[w]);
        rates.key("served_s").value(servedSeconds);
        rates.key("requests").value(std::int64_t(lat[w].size()));
        rates.key("failed").value(std::int64_t(bad));
        rates.key("p50_ms").value(
            ms(segmentMedian(segLat, std::size_t(w), 3, 0.5)));
        rates.key("p99_ms").value(ms(p99));
        rates.key("p95_ms").value(
            ms(segmentMedian(segLat, std::size_t(w), 3, 0.95)));
        rates.key("pooled_p99_ms").value(ms(quantile(lat[w], 0.99)));
        rates.key("in_limit_rps").value(rateGoodput);
        rates.key("backlog_first_q").value(first);
        rates.key("backlog_last_q").value(last);
        rates.key("met").value(met);
        rates.endObject();
    }
    rates.endArray();
    out.ratesJson = rates.str();

    std::vector<double> fqueue, frun;
    std::vector<std::vector<double>> segFrames(std::size_t(segments_) * 3);
    std::uint64_t missed = 0, framesFailed = 0;
    const double period = 1.0 / kFrameRate;
    for (const FrameRecord &f : frames_) {
        if (!f.ok)
            ++framesFailed;
        if (f.window != 1)
            continue;
        const double l = f.ok ? secondsBetween(f.due, f.done)
                              : std::numeric_limits<double>::infinity();
        segFrames[std::size_t(f.segment) * 3 + 1].push_back(l);
        fqueue.push_back(f.queueSeconds);
        frun.push_back(f.runSeconds);
        if (l > period)
            ++missed;
    }

    out.e2e["serve_goodput_rps"] = goodput;

    // The request and frame latencies are per-layer metrics: when the
    // host steals CPU time (10-20% in busy spells), queueing amplifies
    // it, and their medians moved by 30-60% between runs of the same
    // code, beyond any bound.  Their estimators are the steadiest found.
    // Each app's latencies form a cluster of their own and the median
    // of the whole mix falls in the gap between two of them, so the p50
    // is the geometric mean of the apps' own medians.  The p95 moved a
    // third as much as the p99 (about the top ten requests of a run),
    // and the frames' median far less than their tail.
    Metrics &L = out.layer;
    double logP50 = 0.0;
    for (std::size_t a = 0; a < napps; ++a)
        logP50 += std::log(segmentMedian(appLat, a, napps, 0.5));
    L["serve.p50_geomean_ms"] = ms(std::exp(logP50 / double(napps)));
    L["serve.p95_ms"] = ms(segmentMedian(segLat, 1, 3, 0.95));
    L["serve.stream_frame_p50_ms"] = ms(segmentMedian(segFrames, 1, 3, 0.5));
    L["serve.queue_p50_ms"] = ms(quantile(queue[1], 0.5));
    L["serve.queue_p99_ms"] = ms(quantile(queue[1], 0.99));
    L["serve.run_p50_ms"] = ms(quantile(run[1], 0.5));
    L["serve.run_p99_ms"] = ms(quantile(run[1], 0.99));
    // The engine's own peak-depth gauge spans its lifetime, warm-up
    // burst included; the peak outstanding at the timed submits does
    // not.
    double peak = 0.0;
    for (const RequestRecord &r : reqs_)
        peak = std::max(peak, r.outstanding);
    L["serve.peak_queue_depth"] = peak;
    const auto batches = snap.batches - before_.batches;
    L["serve.mean_batch"] =
        batches == 0 ? 0.0
                     : double(snap.batchedRequests -
                              before_.batchedRequests) /
                           double(batches);
    L["runtime.sched_tasks"] = double(snap.scheduler.tasksExecuted -
                                      before_.scheduler.tasksExecuted);
    L["runtime.sched_steals"] =
        double(snap.scheduler.steals - before_.scheduler.steals);
    const auto attempts = snap.scheduler.stealAttempts -
                          before_.scheduler.stealAttempts;
    L["runtime.sched_steal_fail_rate"] =
        attempts == 0
            ? 0.0
            : 1.0 - double(snap.scheduler.steals -
                           before_.scheduler.steals) /
                        double(attempts);
    const auto completed = snap.completed - before_.completed;
    L["serve.tier1_share"] =
        completed == 0 ? 0.0
                       : double(snap.interpServed - before_.interpServed) /
                             double(completed);
    L["serve.pool_block_allocs"] =
        double(snap.poolBlockAllocs - before_.poolBlockAllocs);
    L["serve.gen_lag_p99_ms"] = ms(quantile(lag_, 0.99));
    L["serve.failed"] = double(failed + framesFailed);
    L["serve.stream_queue_p99_ms"] = ms(quantile(fqueue, 0.99));
    L["runtime.stream_run_p50_ms"] = ms(quantile(frun, 0.5));
    L["runtime.stream_run_p99_ms"] = ms(quantile(frun, 0.99));
    double frameAllocs = 0;
    for (std::size_t s = 0; s < rig_.sessions.size(); ++s)
        frameAllocs +=
            double(rig_.sessions[s]->memoryStats().poolBlockAllocs -
                   sessionAllocs_[s]);
    L["runtime.stream_frame_allocs"] = frameAllocs;
    L["serve.stream_missed_frames"] = double(missed);

    if (log_.enabled()) {
        for (const RequestRecord &r : reqs_) {
            const int id = log_.add("request:" + names_[std::size_t(r.app)],
                                    r.span, r.due, r.done);
            const auto runStart = after(r.done, -r.runSeconds);
            log_.add("queue", id, after(runStart, -r.queueSeconds),
                     runStart);
            log_.add("run", id, runStart, r.done);
        }
        for (const FrameRecord &f : frames_) {
            const int id = log_.add("frame:" + std::to_string(f.session),
                                    f.span, f.due, f.done);
            const auto runStart = after(f.done, -f.runSeconds);
            log_.add("queue", id, after(runStart, -f.queueSeconds),
                     runStart);
            log_.add("run", id, runStart, f.done);
        }
    }
    return out;
}

} // namespace polymage::perfbench
