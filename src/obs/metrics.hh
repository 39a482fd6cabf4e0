/**
 * @file
 * Lock-cheap process-wide metrics: named counters, gauges, and
 * fixed-bucket latency histograms.
 *
 * Instrumentation sits on the hot paths of a parallel campaign
 * (worker loops, cache lookups, per-cell analysis), so updates must
 * never serialize the ThreadPool. Counter and histogram cells are
 * sharded into cache-line-padded stripes indexed by a dense per-thread
 * id: an update is one relaxed atomic RMW on a stripe that, with up to
 * kStripes concurrently active threads, no other thread touches.
 * Aggregation happens only on demand (snapshot()) by summing stripes.
 *
 * Registration (name -> handle) takes a registry mutex but is meant
 * for startup / first-touch; handles are cheap value types (shared
 * ownership of the cell block) and should be cached by the
 * instrumented code, e.g. in a function-local static.
 *
 * Naming scheme: "subsystem.name" (pool.tasks, repo.memory_hits,
 * campaign.cell_ms, sim.cycles, controller.stall_cycles). Histogram
 * metrics carry a unit suffix (_ms).
 *
 * Metrics never feed result files: campaign result JSON stays
 * byte-identical whether metrics are enabled or not. Snapshots are
 * written to a separate sidecar file (writeMetricsJson).
 */

#ifndef DIDT_OBS_METRICS_HH
#define DIDT_OBS_METRICS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/json.hh"

namespace didt::obs
{

/**
 * Dense id of the calling thread (0, 1, 2, ... in first-use order).
 * Stable for the thread's lifetime; used to pick a metric stripe and
 * as the tid in trace events.
 */
std::size_t threadIndex();

/**
 * Process-wide instrumentation switch. When false, counter/gauge/
 * histogram updates and ScopedTimer clock reads are skipped; handle
 * and registry structure stays intact. Defaults to true.
 */
void setMetricsEnabled(bool enabled);
bool metricsEnabled();

/** What a named metric measures. */
enum class MetricKind
{
    Counter,   ///< monotonic event count
    Gauge,     ///< sampled level (reports last and high-water values)
    Histogram, ///< fixed-bucket value distribution
};

/** Printable kind name ("counter", "gauge", "histogram"). */
const char *metricKindName(MetricKind kind);

/** Aggregated state of one histogram. */
struct HistogramSnapshot
{
    /** Inclusive upper bucket edges, ascending. */
    std::vector<double> bounds;

    /** Per-bucket counts; counts.size() == bounds.size() + 1, the
     *  last bucket catching values above the largest edge. */
    std::vector<std::uint64_t> counts;

    std::uint64_t count = 0; ///< total observations
    double sum = 0.0;        ///< sum of observed values
    double min = 0.0;        ///< smallest observation (0 when empty)
    double max = 0.0;        ///< largest observation (0 when empty)

    /** Mean observation (0 when empty). */
    double mean() const;

    /**
     * Approximate quantile (0..1) by linear interpolation inside the
     * containing bucket; always within [min, max].
     */
    double quantile(double q) const;
};

/** Aggregated state of one named metric. */
struct MetricSnapshot
{
    std::string name;
    MetricKind kind = MetricKind::Counter;

    /** Counter total, or gauge last-recorded value. */
    double value = 0.0;

    /** Gauge high-water mark (gauges only). */
    double maxValue = 0.0;

    /** Histogram aggregate (histograms only). */
    HistogramSnapshot histogram;
};

/** A point-in-time aggregation of a whole registry, sorted by name. */
struct MetricsSnapshot
{
    std::vector<MetricSnapshot> metrics;

    /** Lookup by full name; nullptr when absent. */
    const MetricSnapshot *find(const std::string &name) const;

    /**
     * Deterministic JSON document (schema "didt-metrics-v1"): metrics
     * sorted by name, fixed member order per kind.
     */
    JsonValue toJson() const;
};

/** Write a snapshot as JSON to @p path; fatal on I/O errors. */
void writeMetricsJson(const std::string &path,
                      const MetricsSnapshot &snapshot);

/**
 * Interval delta between two snapshots of the same registry: for each
 * metric in @p current, counters report value - previous (0 floor),
 * histograms report per-bucket/count/sum differences, and gauges pass
 * through current last/max (levels have no meaningful delta). Metrics
 * absent from @p previous are treated as previously zero; metrics
 * absent from @p current are dropped. Histogram min/max remain the
 * lifetime values from @p current (stripes don't keep interval
 * extrema). Result stays sorted by name. This is what the serve
 * `watch` stream sends per tick.
 */
MetricsSnapshot diffSnapshots(const MetricsSnapshot &previous,
                              const MetricsSnapshot &current);

namespace detail
{
struct CounterImpl;
struct GaugeImpl;
struct HistogramImpl;
} // namespace detail

/** Handle to a monotonic counter. Default-constructed handles no-op. */
class Counter
{
  public:
    Counter() = default;

    /** Add @p delta (relaxed, striped; never blocks). */
    void add(std::uint64_t delta = 1);

    /** Sum over all stripes. */
    std::uint64_t total() const;

    explicit operator bool() const { return impl_ != nullptr; }

  private:
    friend class MetricsRegistry;
    std::shared_ptr<detail::CounterImpl> impl_;
};

/** Handle to a sampled-level gauge. Default-constructed handles no-op. */
class Gauge
{
  public:
    Gauge() = default;

    /** Record the current level (keeps last value and high-water). */
    void record(double value);

    /** Most recently recorded value. */
    double last() const;

    /** Largest value ever recorded. */
    double max() const;

    explicit operator bool() const { return impl_ != nullptr; }

  private:
    friend class MetricsRegistry;
    std::shared_ptr<detail::GaugeImpl> impl_;
};

/** Handle to a fixed-bucket histogram. Default-constructed handles
 *  no-op. */
class Histogram
{
  public:
    Histogram() = default;

    /** Record one observation (relaxed, striped; never blocks). */
    void observe(double value);

    /** Aggregate over all stripes. */
    HistogramSnapshot snapshot() const;

    explicit operator bool() const { return impl_ != nullptr; }

  private:
    friend class MetricsRegistry;
    std::shared_ptr<detail::HistogramImpl> impl_;
};

/**
 * Default latency bucket edges in milliseconds: 0.05 to 30000 in a
 * 1-2.5-5 progression, suitable for task/cell/phase wall times.
 */
const std::vector<double> &defaultLatencyBucketsMs();

/**
 * A named-metric registry. Handles returned for one name always share
 * state; asking for an existing name with a different kind (or
 * different histogram bounds) panics. The process-wide instance is
 * global(); tests can build private registries.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();

    /** Find-or-create a counter. */
    Counter counter(const std::string &name);

    /** Find-or-create a gauge. */
    Gauge gauge(const std::string &name);

    /**
     * Find-or-create a histogram with the given inclusive upper
     * bucket edges (must be non-empty, ascending).
     */
    Histogram histogram(const std::string &name,
                        const std::vector<double> &bounds =
                            defaultLatencyBucketsMs());

    /** Aggregate every metric; sorted by name. */
    MetricsSnapshot snapshot() const;

    /** Zero every metric's cells; existing handles stay valid. */
    void reset();

    /** The process-wide registry. */
    static MetricsRegistry &global();

  private:
    struct State;
    std::shared_ptr<State> state_;
};

} // namespace didt::obs

#endif // DIDT_OBS_METRICS_HH
