#include "obs/metrics.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>

#include "util/logging.hh"

namespace didt::obs
{

namespace
{

/** Stripe count; power of two so the thread id maps with a mask. */
constexpr std::size_t kStripes = 16;

std::atomic<bool> g_metricsEnabled{true};

inline std::size_t
stripeIndex()
{
    return threadIndex() & (kStripes - 1);
}

/** Relaxed CAS add for atomic<double> (no fetch_add pre-C++20 FP). */
inline void
atomicAdd(std::atomic<double> &cell, double delta)
{
    double cur = cell.load(std::memory_order_relaxed);
    while (!cell.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed))
        ;
}

inline void
atomicMin(std::atomic<double> &cell, double value)
{
    double cur = cell.load(std::memory_order_relaxed);
    while (value < cur &&
           !cell.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed))
        ;
}

inline void
atomicMax(std::atomic<double> &cell, double value)
{
    double cur = cell.load(std::memory_order_relaxed);
    while (value > cur &&
           !cell.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed))
        ;
}

} // namespace

std::size_t
threadIndex()
{
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t index =
        next.fetch_add(1, std::memory_order_relaxed);
    return index;
}

void
setMetricsEnabled(bool enabled)
{
    g_metricsEnabled.store(enabled, std::memory_order_relaxed);
}

bool
metricsEnabled()
{
    return g_metricsEnabled.load(std::memory_order_relaxed);
}

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Metric cell blocks
// ---------------------------------------------------------------------------

namespace detail
{

/** One cache line per stripe so concurrent threads don't false-share. */
struct alignas(64) CounterStripe
{
    std::atomic<std::uint64_t> value{0};
};

struct CounterImpl
{
    std::array<CounterStripe, kStripes> stripes;

    void zero()
    {
        for (CounterStripe &s : stripes)
            s.value.store(0, std::memory_order_relaxed);
    }
};

struct GaugeImpl
{
    std::atomic<std::uint64_t> records{0};
    std::atomic<double> last{0.0};
    std::atomic<double> high{0.0};

    void zero()
    {
        records.store(0, std::memory_order_relaxed);
        last.store(0.0, std::memory_order_relaxed);
        high.store(0.0, std::memory_order_relaxed);
    }
};

struct alignas(64) HistogramStripe
{
    explicit HistogramStripe(std::size_t buckets) : counts(buckets) {}

    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> low{std::numeric_limits<double>::infinity()};
    std::atomic<double> high{-std::numeric_limits<double>::infinity()};

    void zero()
    {
        for (auto &c : counts)
            c.store(0, std::memory_order_relaxed);
        count.store(0, std::memory_order_relaxed);
        sum.store(0.0, std::memory_order_relaxed);
        low.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
        high.store(-std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
    }
};

struct HistogramImpl
{
    explicit HistogramImpl(std::vector<double> bucket_bounds)
        : bounds(std::move(bucket_bounds))
    {
        stripes.reserve(kStripes);
        for (std::size_t i = 0; i < kStripes; ++i)
            stripes.push_back(
                std::make_unique<HistogramStripe>(bounds.size() + 1));
    }

    std::vector<double> bounds;
    std::vector<std::unique_ptr<HistogramStripe>> stripes;

    void zero()
    {
        for (auto &s : stripes)
            s->zero();
    }
};

} // namespace detail

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

void
Counter::add(std::uint64_t delta)
{
    if (!impl_ || !metricsEnabled())
        return;
    impl_->stripes[stripeIndex()].value.fetch_add(
        delta, std::memory_order_relaxed);
}

std::uint64_t
Counter::total() const
{
    if (!impl_)
        return 0;
    std::uint64_t sum = 0;
    for (const detail::CounterStripe &s : impl_->stripes)
        sum += s.value.load(std::memory_order_relaxed);
    return sum;
}

void
Gauge::record(double value)
{
    if (!impl_ || !metricsEnabled())
        return;
    impl_->records.fetch_add(1, std::memory_order_relaxed);
    impl_->last.store(value, std::memory_order_relaxed);
    atomicMax(impl_->high, value);
}

double
Gauge::last() const
{
    return impl_ ? impl_->last.load(std::memory_order_relaxed) : 0.0;
}

double
Gauge::max() const
{
    return impl_ ? impl_->high.load(std::memory_order_relaxed) : 0.0;
}

void
Histogram::observe(double value)
{
    if (!impl_ || !metricsEnabled())
        return;
    detail::HistogramStripe &stripe =
        *impl_->stripes[stripeIndex()];
    const auto it = std::lower_bound(impl_->bounds.begin(),
                                     impl_->bounds.end(), value);
    const std::size_t bucket =
        static_cast<std::size_t>(it - impl_->bounds.begin());
    stripe.counts[bucket].fetch_add(1, std::memory_order_relaxed);
    stripe.count.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(stripe.sum, value);
    atomicMin(stripe.low, value);
    atomicMax(stripe.high, value);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    if (!impl_)
        return snap;
    snap.bounds = impl_->bounds;
    snap.counts.assign(snap.bounds.size() + 1, 0);
    double low = std::numeric_limits<double>::infinity();
    double high = -std::numeric_limits<double>::infinity();
    for (const auto &stripe : impl_->stripes) {
        const std::uint64_t n =
            stripe->count.load(std::memory_order_relaxed);
        if (n == 0)
            continue;
        snap.count += n;
        snap.sum += stripe->sum.load(std::memory_order_relaxed);
        low = std::min(low, stripe->low.load(std::memory_order_relaxed));
        high = std::max(high,
                        stripe->high.load(std::memory_order_relaxed));
        for (std::size_t b = 0; b < snap.counts.size(); ++b)
            snap.counts[b] +=
                stripe->counts[b].load(std::memory_order_relaxed);
    }
    if (snap.count > 0) {
        snap.min = low;
        snap.max = high;
    }
    return snap;
}

double
HistogramSnapshot::mean() const
{
    return count ? sum / static_cast<double>(count) : 0.0;
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        if (counts[b] == 0)
            continue;
        const std::uint64_t next = seen + counts[b];
        if (static_cast<double>(next) >= target) {
            // Linear interpolation inside the bucket, between its
            // bounds clamped to the observed [min, max]: the first and
            // overflow buckets are open-ended, and a wide bucket's
            // bounds can lie far outside every sample it holds.
            const double lo = b == 0 ? min : std::max(min, bounds[b - 1]);
            const double hi =
                b < bounds.size() ? std::min(max, bounds[b]) : max;
            const double frac =
                (target - static_cast<double>(seen)) /
                static_cast<double>(counts[b]);
            return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
        }
        seen = next;
    }
    return max;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct MetricsRegistry::State
{
    mutable std::mutex mutex;
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, Histogram> histograms;

    void checkKindFree(const std::string &name, MetricKind wanted) const
    {
        const bool taken =
            (wanted != MetricKind::Counter && counters.count(name)) ||
            (wanted != MetricKind::Gauge && gauges.count(name)) ||
            (wanted != MetricKind::Histogram && histograms.count(name));
        if (taken)
            didt_panic("metric '", name,
                       "' already registered with a different kind "
                       "than ",
                       metricKindName(wanted));
    }
};

MetricsRegistry::MetricsRegistry() : state_(std::make_shared<State>()) {}

Counter
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    auto it = state_->counters.find(name);
    if (it != state_->counters.end())
        return it->second;
    state_->checkKindFree(name, MetricKind::Counter);
    Counter handle;
    handle.impl_ = std::make_shared<detail::CounterImpl>();
    state_->counters.emplace(name, handle);
    return handle;
}

Gauge
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    auto it = state_->gauges.find(name);
    if (it != state_->gauges.end())
        return it->second;
    state_->checkKindFree(name, MetricKind::Gauge);
    Gauge handle;
    handle.impl_ = std::make_shared<detail::GaugeImpl>();
    state_->gauges.emplace(name, handle);
    return handle;
}

Histogram
MetricsRegistry::histogram(const std::string &name,
                           const std::vector<double> &bounds)
{
    if (bounds.empty() || !std::is_sorted(bounds.begin(), bounds.end()))
        didt_panic("histogram '", name,
                   "' needs non-empty ascending bucket bounds");
    std::lock_guard<std::mutex> lock(state_->mutex);
    auto it = state_->histograms.find(name);
    if (it != state_->histograms.end()) {
        if (it->second.impl_->bounds != bounds)
            didt_panic("histogram '", name,
                       "' re-registered with different bounds");
        return it->second;
    }
    state_->checkKindFree(name, MetricKind::Histogram);
    Histogram handle;
    handle.impl_ = std::make_shared<detail::HistogramImpl>(bounds);
    state_->histograms.emplace(name, handle);
    return handle;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(state_->mutex);
    snap.metrics.reserve(state_->counters.size() +
                         state_->gauges.size() +
                         state_->histograms.size());
    for (const auto &[name, handle] : state_->counters) {
        MetricSnapshot m;
        m.name = name;
        m.kind = MetricKind::Counter;
        m.value = static_cast<double>(handle.total());
        snap.metrics.push_back(std::move(m));
    }
    for (const auto &[name, handle] : state_->gauges) {
        MetricSnapshot m;
        m.name = name;
        m.kind = MetricKind::Gauge;
        m.value = handle.last();
        m.maxValue = handle.max();
        snap.metrics.push_back(std::move(m));
    }
    for (const auto &[name, handle] : state_->histograms) {
        MetricSnapshot m;
        m.name = name;
        m.kind = MetricKind::Histogram;
        m.histogram = handle.snapshot();
        snap.metrics.push_back(std::move(m));
    }
    std::sort(snap.metrics.begin(), snap.metrics.end(),
              [](const MetricSnapshot &a, const MetricSnapshot &b) {
                  return a.name < b.name;
              });
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(state_->mutex);
    for (auto &[name, handle] : state_->counters)
        handle.impl_->zero();
    for (auto &[name, handle] : state_->gauges)
        handle.impl_->zero();
    for (auto &[name, handle] : state_->histograms)
        handle.impl_->zero();
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

// ---------------------------------------------------------------------------
// Snapshot serialization
// ---------------------------------------------------------------------------

const MetricSnapshot *
MetricsSnapshot::find(const std::string &name) const
{
    for (const MetricSnapshot &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

JsonValue
MetricsSnapshot::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", "didt-metrics-v1");
    JsonValue arr = JsonValue::array();
    for (const MetricSnapshot &m : metrics) {
        JsonValue entry = JsonValue::object();
        entry.set("name", m.name);
        entry.set("kind", metricKindName(m.kind));
        switch (m.kind) {
          case MetricKind::Counter:
            entry.set("value", m.value);
            break;
          case MetricKind::Gauge:
            entry.set("value", m.value);
            entry.set("max", m.maxValue);
            break;
          case MetricKind::Histogram: {
            const HistogramSnapshot &h = m.histogram;
            entry.set("count", static_cast<long long>(h.count));
            entry.set("sum", h.sum);
            entry.set("min", h.min);
            entry.set("max", h.max);
            entry.set("mean", h.mean());
            entry.set("p50", h.quantile(0.5));
            entry.set("p95", h.quantile(0.95));
            JsonValue bounds = JsonValue::array();
            for (double b : h.bounds)
                bounds.push(b);
            entry.set("bounds", std::move(bounds));
            JsonValue buckets = JsonValue::array();
            for (std::uint64_t c : h.counts)
                buckets.push(static_cast<long long>(c));
            entry.set("buckets", std::move(buckets));
            break;
          }
        }
        arr.push(std::move(entry));
    }
    doc.set("metrics", std::move(arr));
    return doc;
}

void
writeMetricsJson(const std::string &path, const MetricsSnapshot &snapshot)
{
    std::ofstream out(path);
    if (!out)
        didt_fatal("cannot open ", path, " for writing");
    snapshot.toJson().write(out);
    out << '\n';
    if (!out)
        didt_fatal("error writing metrics JSON to ", path);
}

MetricsSnapshot
diffSnapshots(const MetricsSnapshot &previous,
              const MetricsSnapshot &current)
{
    MetricsSnapshot delta;
    delta.metrics.reserve(current.metrics.size());
    for (const MetricSnapshot &cur : current.metrics) {
        const MetricSnapshot *prev = previous.find(cur.name);
        MetricSnapshot d = cur;
        switch (cur.kind) {
          case MetricKind::Counter:
            if (prev != nullptr)
                d.value = std::max(0.0, cur.value - prev->value);
            break;
          case MetricKind::Gauge:
            break; // levels pass through unchanged
          case MetricKind::Histogram: {
            if (prev == nullptr)
                break;
            const HistogramSnapshot &p = prev->histogram;
            HistogramSnapshot &h = d.histogram;
            h.count = cur.histogram.count >= p.count
                          ? cur.histogram.count - p.count
                          : 0;
            h.sum = cur.histogram.sum - p.sum;
            if (p.counts.size() == h.counts.size())
                for (std::size_t i = 0; i < h.counts.size(); ++i)
                    h.counts[i] = h.counts[i] >= p.counts[i]
                                      ? h.counts[i] - p.counts[i]
                                      : 0;
            break;
          }
        }
        delta.metrics.push_back(std::move(d));
    }
    return delta;
}

const std::vector<double> &
defaultLatencyBucketsMs()
{
    static const std::vector<double> bounds{
        0.05, 0.1,  0.25, 0.5,  1.0,    2.5,    5.0,    10.0,   25.0,
        50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
        30000.0};
    return bounds;
}

} // namespace didt::obs
