#include "core/emergency_estimator.hh"

#include <cstdint>
#include <stdexcept>

#include "obs/metrics.hh"
#include "obs/scoped_timer.hh"
#include "stats/running_stats.hh"
#include "util/logging.hh"

namespace didt
{

namespace
{

/** Analysis work counters and per-half latencies (sidecar only). */
struct AnalysisMetrics
{
    obs::Counter windows;
    obs::Counter samplesFiltered;
    obs::Histogram estimateMs;
    obs::Histogram measureMs;
};

AnalysisMetrics &
analysisMetrics()
{
    auto &registry = obs::MetricsRegistry::global();
    static AnalysisMetrics metrics{
        registry.counter("analysis.windows"),
        registry.counter("analysis.samples_filtered"),
        registry.histogram("analysis.estimate_ms"),
        registry.histogram("analysis.measure_ms"),
    };
    return metrics;
}

} // namespace

void
registerAnalysisMetrics()
{
    (void)analysisMetrics();
}

EmergencyProfile
profileTrace(const CurrentTrace &trace, const SupplyNetwork &network,
             const VoltageVarianceModel &model, Volt low_threshold,
             Volt high_threshold, std::span<const std::size_t> use_levels,
             bool use_correlation)
{
    AnalysisWorkspace ws;
    return profileTrace(trace, network, model, low_threshold,
                        high_threshold, ws, use_levels, use_correlation);
}

EmergencyProfile
profileTrace(const CurrentTrace &trace, const SupplyNetwork &network,
             const VoltageVarianceModel &model, Volt low_threshold,
             Volt high_threshold, AnalysisWorkspace &ws,
             std::span<const std::size_t> use_levels, bool use_correlation)
{
    EmergencyProfile profile =
        estimateEmergencies(trace, model, low_threshold, high_threshold,
                            ws, use_levels, use_correlation);
    measureEmergencies(trace, network, low_threshold, high_threshold,
                       profile);
    return profile;
}

EmergencyProfile
estimateEmergencies(const CurrentTrace &trace,
                    const VoltageVarianceModel &model, Volt low_threshold,
                    Volt high_threshold, AnalysisWorkspace &ws,
                    std::span<const std::size_t> use_levels,
                    bool use_correlation)
{
    const VoltageVarianceModel *const one[] = {&model};
    return estimateEmergencies(trace, one, low_threshold, high_threshold,
                               ws, use_levels, use_correlation)
        .front();
}

std::vector<EmergencyProfile>
estimateEmergencies(const CurrentTrace &trace,
                    std::span<const VoltageVarianceModel *const> models,
                    Volt low_threshold, Volt high_threshold,
                    AnalysisWorkspace &ws,
                    std::span<const std::size_t> use_levels,
                    bool use_correlation)
{
    if (models.empty())
        didt_panic("estimateEmergencies needs at least one model");
    const VoltageVarianceModel &shape = *models.front();
    for (const VoltageVarianceModel *model : models)
        if (!model->sharesFeatures(shape))
            didt_panic("estimateEmergencies: models differ in window, "
                       "levels or basis");
    const std::size_t window = shape.windowLength();
    if (trace.size() < window)
        throw std::invalid_argument(
            "profileTrace: trace shorter than one window");
    obs::ScopedTimer span("analysis.estimate", analysisMetrics().estimateMs,
                          nullptr, "core");

    // Consecutive windows, each contributing its Gaussian tail
    // probabilities (window-weighted average equals the predicted
    // fraction of cycles).
    struct WindowStats
    {
        RunningStats below;
        RunningStats above;
        RunningStats variance;
    };
    std::vector<WindowStats> stats(models.size());
    std::size_t windows = 0;
    const std::span<const double> samples(trace.data(), trace.size());
    for (std::size_t off = 0; off + window <= trace.size(); off += window) {
        shape.extractFeatures(samples.subspan(off, window), use_correlation,
                              true, ws);
        for (std::size_t i = 0; i < models.size(); ++i) {
            models[i]->applyFeatures(use_levels, use_correlation, ws.est,
                                     ws);
            stats[i].below.push(ws.est.probBelow(low_threshold));
            stats[i].above.push(ws.est.probAbove(high_threshold));
            stats[i].variance.push(ws.est.variance);
        }
        ++windows;
    }
    std::vector<EmergencyProfile> profiles(models.size());
    for (std::size_t i = 0; i < models.size(); ++i) {
        profiles[i].estimatedBelow = stats[i].below.mean();
        profiles[i].estimatedAbove = stats[i].above.mean();
        profiles[i].estimatedVariance = stats[i].variance.mean();
        profiles[i].windows = windows;
    }
    analysisMetrics().windows.add(windows);
    return profiles;
}

void
measureEmergencies(const CurrentTrace &trace, const SupplyNetwork &network,
                   Volt low_threshold, Volt high_threshold,
                   EmergencyProfile &profile)
{
    obs::ScopedTimer span("analysis.measure", analysisMetrics().measureMs,
                          nullptr, "core");

    // Exact convolution through the network, one streaming pass that
    // stores nothing. The threshold counts are order-independent
    // integers (a NaN counts for neither side), and the Welford
    // recurrence sees the samples in trace order.
    std::uint64_t below = 0;
    std::uint64_t above = 0;
    RunningStats v_stats;
    network.forEachVoltage(trace, [&](Volt v) {
        if (v < low_threshold)
            ++below;
        if (v > high_threshold)
            ++above;
        v_stats.push(v);
    });
    const double samples = static_cast<double>(trace.size());
    profile.measuredBelow = static_cast<double>(below) / samples;
    profile.measuredAbove = static_cast<double>(above) / samples;
    profile.measuredVariance = v_stats.variance();
    analysisMetrics().samplesFiltered.add(trace.size());
}

} // namespace didt
