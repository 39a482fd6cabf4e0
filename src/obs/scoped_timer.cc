#include "obs/scoped_timer.hh"

#include <mutex>
#include <set>

namespace didt::obs
{

namespace
{
std::mutex g_labelMutex;
/// Interned span labels. std::set nodes never move, so returned
/// references stay valid for the life of the process; std::less<>
/// enables lookup by string_view without a temporary std::string.
std::set<std::string, std::less<>> &
labelTable()
{
    static std::set<std::string, std::less<>> table;
    return table;
}
} // namespace

const std::string &
internSpanLabel(std::string_view label)
{
    std::lock_guard<std::mutex> lock(g_labelMutex);
    auto &table = labelTable();
    auto it = table.find(label);
    if (it == table.end())
        it = table.emplace(label).first;
    return *it;
}

ScopedTimer::ScopedTimer(std::string_view label, Histogram histogram,
                         TraceEventSink *sink, const char *category)
    : category_(category), histogram_(std::move(histogram)),
      sink_(sink ? sink : &TraceEventSink::global()),
      active_((histogram_ && metricsEnabled()) || sink_->enabled())
{
    if (!active_)
        return;
    start_ = Clock::now();
    if (sink_->enabled()) {
        label_ = &internSpanLabel(label);
        spanId_ = newSpanId();
        TraceContext &ctx = detail::threadTraceContext();
        parentId_ = ctx.parentSpan;
        ctx.parentSpan = spanId_;
    }
}

ScopedTimer::~ScopedTimer()
{
    if (!active_)
        return;
    const Clock::time_point end = Clock::now();
    if (histogram_)
        histogram_.observe(
            std::chrono::duration<double, std::milli>(end - start_)
                .count());
    if (spanId_ != 0) {
        TraceContext &ctx = detail::threadTraceContext();
        ctx.parentSpan = parentId_;
        sink_->record(*label_, category_, start_, end, spanId_,
                      parentId_, ctx.requestId);
    }
}

double
ScopedTimer::elapsedMillis() const
{
    if (!active_)
        return 0.0;
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start_)
        .count();
}

} // namespace didt::obs
