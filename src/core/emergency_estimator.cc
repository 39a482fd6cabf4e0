#include "core/emergency_estimator.hh"

#include <stdexcept>

#include "obs/scoped_timer.hh"
#include "stats/running_stats.hh"
#include "util/simd.hh"

namespace didt
{

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
    const std::size_t window = model.windowLength();
    if (trace.size() < window)
        throw std::invalid_argument(
            "profileTrace: trace shorter than one window");
    obs::ScopedTimer span("model.profile_trace", obs::Histogram{},
                          nullptr, "core");

    EmergencyProfile profile;

    // Estimated side: consecutive windows, each contributing its
    // Gaussian tail probabilities (window-weighted average equals the
    // predicted fraction of cycles).
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

    // Measured side: exact convolution through the network. Threshold
    // counts are order-independent integers, so they go through the
    // SIMD kernel; the Welford variance recurrence is a sequential
    // reduction and stays scalar to keep its rounding exact.
    network.computeVoltageInto(trace, ws.voltage);
    std::uint64_t below = 0;
    std::uint64_t above = 0;
    simd::kernels().thresholdCounts(ws.voltage.data(), ws.voltage.size(),
                                    low_threshold, high_threshold, &below,
                                    &above);
    RunningStats v_stats;
    for (Volt v : ws.voltage)
        v_stats.push(v);
    profile.measuredBelow =
        static_cast<double>(below) / static_cast<double>(ws.voltage.size());
    profile.measuredAbove =
        static_cast<double>(above) / static_cast<double>(ws.voltage.size());
    profile.measuredVariance = v_stats.variance();
    return profile;
}

} // namespace didt
