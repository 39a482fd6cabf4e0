#include "obs/trace_event.hh"

#include <algorithm>
#include <fstream>
#include <utility>

#include "obs/metrics.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace didt::obs
{

namespace
{
std::atomic<std::uint64_t> g_nextSpanId{1};
thread_local TraceContext t_traceContext;
} // namespace

const TraceContext &
currentTraceContext()
{
    return t_traceContext;
}

TraceContext &
detail::threadTraceContext()
{
    return t_traceContext;
}

std::uint64_t
newSpanId()
{
    return g_nextSpanId.fetch_add(1, std::memory_order_relaxed);
}

ScopedTraceContext::ScopedTraceContext(TraceContext context)
    : saved_(std::exchange(t_traceContext, std::move(context)))
{
}

ScopedTraceContext::~ScopedTraceContext()
{
    t_traceContext = std::move(saved_);
}

TraceEventSink::TraceEventSink() : epoch_(Clock::now()) {}

void
TraceEventSink::setEnabled(bool enabled)
{
    enabled_.store(enabled, std::memory_order_relaxed);
}

bool
TraceEventSink::enabled() const
{
    return enabled_.load(std::memory_order_relaxed);
}

void
TraceEventSink::record(std::string name, std::string category,
                       Clock::time_point start, Clock::time_point end)
{
    record(std::move(name), std::move(category), start, end, 0, 0, {});
}

void
TraceEventSink::record(std::string name, std::string category,
                       Clock::time_point start, Clock::time_point end,
                       std::uint64_t spanId, std::uint64_t parentId,
                       std::string requestId)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.name = std::move(name);
    event.category = std::move(category);
    event.tid = threadIndex();
    event.startUs =
        std::chrono::duration<double, std::micro>(start - epoch_).count();
    event.durationUs =
        std::chrono::duration<double, std::micro>(end - start).count();
    event.spanId = spanId;
    event.parentId = parentId;
    event.requestId = std::move(requestId);
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

std::size_t
TraceEventSink::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::vector<TraceEvent>
TraceEventSink::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

void
TraceEventSink::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

void
TraceEventSink::writeChromeTrace(const std::string &path) const
{
    std::vector<TraceEvent> sorted = events();
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.startUs < b.startUs;
                     });

    JsonValue doc = JsonValue::object();
    JsonValue arr = JsonValue::array();
    for (const TraceEvent &event : sorted) {
        JsonValue e = JsonValue::object();
        e.set("name", event.name);
        e.set("cat", event.category);
        e.set("ph", "X");
        e.set("pid", static_cast<long long>(1));
        e.set("tid", static_cast<long long>(event.tid));
        e.set("ts", event.startUs);
        e.set("dur", event.durationUs);
        if (event.spanId != 0 || event.parentId != 0 ||
            !event.requestId.empty()) {
            JsonValue args = JsonValue::object();
            if (event.spanId != 0)
                args.set("span",
                         static_cast<long long>(event.spanId));
            if (event.parentId != 0)
                args.set("parent",
                         static_cast<long long>(event.parentId));
            if (!event.requestId.empty())
                args.set("request", event.requestId);
            e.set("args", std::move(args));
        }
        arr.push(std::move(e));
    }
    doc.set("traceEvents", std::move(arr));
    doc.set("displayTimeUnit", "ms");

    std::ofstream out(path);
    if (!out)
        didt_fatal("cannot open ", path, " for writing");
    doc.write(out);
    out << '\n';
    if (!out)
        didt_fatal("error writing trace events to ", path);
}

TraceEventSink &
TraceEventSink::global()
{
    static TraceEventSink sink;
    return sink;
}

} // namespace didt::obs
