/**
 * @file
 * Compile-phase tracing for the observability layer (`polymage::obs`).
 *
 * A TraceRegistry collects named, nested spans (wall-clock intervals)
 * with negligible overhead; the compiler driver wraps every phase of
 * the Fig. 4 pipeline in a ScopedTrace so clients can see where
 * compilation time goes.  Deep phases (alignment/scaling inside the
 * grouping heuristic) report into the thread-local *current* registry
 * installed by the driver, so no plumbing is threaded through the
 * optimizer APIs.
 *
 * Serialization follows the stable `polymage-trace-v1` schema
 * documented in docs/OBSERVABILITY.md and round-trips through
 * spansFromJson (used by the reporting layer and tests).
 */
#ifndef POLYMAGE_SUPPORT_TRACE_HPP
#define POLYMAGE_SUPPORT_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace polymage::obs {

/** One traced interval.  Times are relative to the registry epoch. */
struct Span
{
    std::string name;
    /** Registry-assigned id (creation order). */
    int id = 0;
    /** Id of the enclosing span on the same thread; -1 for roots. */
    int parent = -1;
    /** Nesting depth (0 for roots). */
    int depth = 0;
    std::int64_t startNs = 0;
    /** -1 while the span is still open. */
    std::int64_t durationNs = -1;
    /** Integer attributes (e.g. a JIT unit's index and line count);
     * serialized as an `args` object only when non-empty. */
    std::vector<std::pair<std::string, std::int64_t>> args;

    double
    seconds() const
    {
        return durationNs < 0 ? 0.0 : double(durationNs) * 1e-9;
    }
};

/**
 * Thread-safe collector of nested spans.  begin/end track a per-thread
 * stack of open spans, so concurrent compilations into one registry
 * nest correctly per thread.
 */
class TraceRegistry
{
  public:
    TraceRegistry();

    /** Open a span; returns its id (pass to end()). */
    int begin(const std::string &name);
    /** Close the span with the given id. */
    void end(int id);
    /**
     * Add an already closed span, parented like begin() would (under
     * the calling thread's innermost open span).  For intervals timed
     * elsewhere, e.g. concurrent compiler jobs.
     */
    int record(const std::string &name,
               std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end,
               std::vector<std::pair<std::string, std::int64_t>> args = {});

    /** Snapshot of all spans so far (open spans have durationNs -1). */
    std::vector<Span> spans() const;
    /** Sum of root-span durations in seconds. */
    double totalSeconds() const;
    /** Drop all spans and reset the epoch. */
    void clear();

    /** Serialize to the polymage-trace-v1 JSON schema. */
    std::string toJson() const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::thread::id, std::vector<int>> open_;
    std::chrono::steady_clock::time_point epoch_;
};

/** Parse spans back out of toJson() output (see OBSERVABILITY.md). */
std::vector<Span> spansFromJson(const std::string &json);

/** Serialize an externally assembled span list (same schema). */
std::string spansToJson(const std::vector<Span> &spans);

/** The thread-local current registry (nullptr when none installed). */
TraceRegistry *currentTrace();

/**
 * RAII installer of the thread-local current registry; restores the
 * previous one on destruction.
 */
class ScopedCurrent
{
  public:
    explicit ScopedCurrent(TraceRegistry *reg);
    ~ScopedCurrent();
    ScopedCurrent(const ScopedCurrent &) = delete;
    ScopedCurrent &operator=(const ScopedCurrent &) = delete;

  private:
    TraceRegistry *prev_;
};

/**
 * RAII span.  The single-argument form reports into currentTrace() and
 * is a no-op when no registry is installed, which keeps tracing free
 * for library users who never ask for it.
 */
class ScopedTrace
{
  public:
    explicit ScopedTrace(const std::string &name)
        : ScopedTrace(currentTrace(), name)
    {}
    ScopedTrace(TraceRegistry *reg, const std::string &name)
        : reg_(reg), id_(reg_ ? reg_->begin(name) : -1)
    {}
    ~ScopedTrace()
    {
        if (reg_)
            reg_->end(id_);
    }
    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

  private:
    TraceRegistry *reg_;
    int id_;
};

/** Escape a string for embedding in a JSON document. */
std::string jsonEscape(const std::string &s);

/**
 * Minimal streaming JSON writer used by the reporting layer (trace
 * dumps, bench --profile-json).  Emits compact, valid JSON; the caller
 * is responsible for well-formed nesting.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    /** Object key; follow with a value or begin*() call. */
    JsonWriter &key(const std::string &k);
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v) { return value(std::string(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(std::int64_t(v)); }
    JsonWriter &value(bool v);
    /** Splice an already-serialized JSON value in value position. */
    JsonWriter &raw(const std::string &json);

    const std::string &str() const { return out_; }

  private:
    void separate();

    std::string out_;
    /** Whether a value was already written at each nesting level. */
    std::vector<bool> hasItem_{false};
    bool afterKey_ = false;
};

} // namespace polymage::obs

#endif // POLYMAGE_SUPPORT_TRACE_HPP
