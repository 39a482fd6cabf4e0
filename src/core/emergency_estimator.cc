#include "core/emergency_estimator.hh"

#include <cstdint>
#include <stdexcept>

#include "obs/metrics.hh"
#include "obs/scoped_timer.hh"
#include "stats/running_stats.hh"

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
    const std::size_t window = model.windowLength();
    if (trace.size() < window)
        throw std::invalid_argument(
            "profileTrace: trace shorter than one window");
    obs::ScopedTimer span("analysis.estimate", analysisMetrics().estimateMs,
                          nullptr, "core");

    // Consecutive windows, each contributing its Gaussian tail
    // probabilities (window-weighted average equals the predicted
    // fraction of cycles).
    EmergencyProfile profile;
    RunningStats est_below;
    RunningStats est_above;
    RunningStats est_var;
    const std::span<const double> samples(trace.data(), trace.size());
    for (std::size_t off = 0; off + window <= trace.size(); off += window) {
        model.estimate(samples.subspan(off, window), use_levels,
                       use_correlation, ws.est, ws);
        est_below.push(ws.est.probBelow(low_threshold));
        est_above.push(ws.est.probAbove(high_threshold));
        est_var.push(ws.est.variance);
        ++profile.windows;
    }
    profile.estimatedBelow = est_below.mean();
    profile.estimatedAbove = est_above.mean();
    profile.estimatedVariance = est_var.mean();
    analysisMetrics().windows.add(profile.windows);
    return profile;
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
