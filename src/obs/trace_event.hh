/**
 * @file
 * Chrome trace_event collection for Perfetto / chrome://tracing.
 *
 * Spans recorded by ScopedTimer land here as complete ("ph":"X")
 * events with the recording thread's dense id as the tid, so a
 * campaign's thread-pool utilization can be inspected visually
 * (one lane per worker, one slice per cell/phase).
 *
 * Spans additionally carry a process-unique span id plus the parent
 * span id and request label taken from the calling thread's
 * TraceContext, so a served campaign renders as one tree per request
 * (request -> execute -> per-cell spans, then serialize) rather than a
 * flat pile of global slices. The context is thread-local; code that
 * hops threads (the Executor handing cells to its pool workers)
 * captures currentTraceContext() and re-applies it on the worker via
 * ScopedTraceContext.
 *
 * Collection is off by default; enable it (e.g. from --trace-out)
 * before the instrumented run. Each span costs one short mutex-guarded
 * append at scope exit — spans wrap phases and cells, never per-cycle
 * work, so the sink does not serialize the hot paths.
 */

#ifndef DIDT_OBS_TRACE_EVENT_HH
#define DIDT_OBS_TRACE_EVENT_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace didt::obs
{

/** One complete span, microseconds relative to the sink's epoch. */
struct TraceEvent
{
    std::string name;      ///< slice label
    std::string category;  ///< trace_event "cat" field
    std::size_t tid = 0;   ///< dense thread id (threadIndex())
    double startUs = 0.0;  ///< span start
    double durationUs = 0.0; ///< span length
    std::uint64_t spanId = 0;   ///< process-unique id (0 = none)
    std::uint64_t parentId = 0; ///< enclosing span's id (0 = root)
    std::string requestId;      ///< serve request the span belongs to
};

/**
 * Ambient per-thread span context. parentSpan is the id new spans
 * attach under; requestId labels every span recorded while the
 * context is current. Default-constructed means "root, unattributed".
 */
struct TraceContext
{
    std::uint64_t parentSpan = 0;
    std::string requestId;
};

/** The calling thread's current context (default: root, no labels). */
const TraceContext &currentTraceContext();

namespace detail
{
/** Mutable access for span push/pop; not part of the public surface. */
TraceContext &threadTraceContext();
} // namespace detail

/** Allocate a fresh process-unique span id (never 0). */
std::uint64_t newSpanId();

/**
 * RAII: installs @p context as the calling thread's TraceContext and
 * restores the previous one on destruction. Use to carry a request's
 * identity across a thread hop (capture currentTraceContext() on the
 * sending side, apply it in the worker).
 */
class ScopedTraceContext
{
  public:
    explicit ScopedTraceContext(TraceContext context);
    ~ScopedTraceContext();

    ScopedTraceContext(const ScopedTraceContext &) = delete;
    ScopedTraceContext &operator=(const ScopedTraceContext &) = delete;

  private:
    TraceContext saved_;
};

/** Collects spans and writes Chrome trace_event JSON. */
class TraceEventSink
{
  public:
    using Clock = std::chrono::steady_clock;

    TraceEventSink();

    /** Turn collection on or off (off by default). */
    void setEnabled(bool enabled);

    /** Whether record() currently stores events. */
    bool enabled() const;

    /** Store one complete span; no-op while disabled. */
    void record(std::string name, std::string category,
                Clock::time_point start, Clock::time_point end);

    /**
     * Store one complete span with explicit tree linkage: @p spanId
     * names the span, @p parentId its enclosing span (0 = root), and
     * @p requestId attributes it to a serve request (empty =
     * unattributed). No-op while disabled.
     */
    void record(std::string name, std::string category,
                Clock::time_point start, Clock::time_point end,
                std::uint64_t spanId, std::uint64_t parentId,
                std::string requestId);

    /** Number of stored events. */
    std::size_t eventCount() const;

    /** Copy of the stored events (test/report use). */
    std::vector<TraceEvent> events() const;

    /** Drop all stored events. */
    void clear();

    /**
     * Write the stored events as Chrome trace_event JSON
     * ({"traceEvents": [...]}; loadable in Perfetto). Events are
     * sorted by start time so output is stable for a given set of
     * spans. Span/parent ids and request labels are emitted under
     * "args". Fatal on I/O errors.
     */
    void writeChromeTrace(const std::string &path) const;

    /** The process-wide sink ScopedTimer records into. */
    static TraceEventSink &global();

  private:
    std::atomic<bool> enabled_{false};
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
};

} // namespace didt::obs

#endif // DIDT_OBS_TRACE_EVENT_HH
