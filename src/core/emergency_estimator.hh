/**
 * @file
 * Full-trace voltage-emergency profiling (paper Section 4.2, Figure 9).
 *
 * Slides the wavelet variance model across a benchmark's current trace
 * in consecutive windows, estimates the probability of cycles below
 * (and above) the control points from the per-window Gaussian model,
 * and compares against the measured fractions from the convolved
 * voltage trace.
 */

#ifndef DIDT_CORE_EMERGENCY_ESTIMATOR_HH
#define DIDT_CORE_EMERGENCY_ESTIMATOR_HH

#include <cstddef>
#include <span>
#include <vector>

#include "core/variance_model.hh"
#include "power/supply_network.hh"
#include "util/types.hh"

namespace didt
{

/** Estimated vs measured emergency exposure for one trace. */
struct EmergencyProfile
{
    /** Model estimate of the fraction of cycles below the threshold. */
    double estimatedBelow = 0.0;

    /** Measured fraction of cycles below the threshold. */
    double measuredBelow = 0.0;

    /** Model estimate of the fraction of cycles above the high level. */
    double estimatedAbove = 0.0;

    /** Measured fraction above the high level. */
    double measuredAbove = 0.0;

    /** Mean of per-window estimated voltage variance. */
    double estimatedVariance = 0.0;

    /** Variance of the measured voltage trace. */
    double measuredVariance = 0.0;

    /** Number of analysis windows. */
    std::size_t windows = 0;
};

/**
 * Profile a current trace against low/high control thresholds.
 *
 * @param trace per-cycle current
 * @param network the supply network (used for the measured reference)
 * @param model a calibrated variance model bound to the same network
 * @param low_threshold voltage of interest below nominal (paper: 0.97)
 * @param high_threshold voltage of interest above nominal
 * @param use_levels detail levels the estimator may use (empty = all)
 * @param use_correlation include the correlation adjustment
 * @throws std::invalid_argument if the trace is shorter than one
 *         model window
 */
EmergencyProfile profileTrace(const CurrentTrace &trace,
                              const SupplyNetwork &network,
                              const VoltageVarianceModel &model,
                              Volt low_threshold, Volt high_threshold,
                              std::span<const std::size_t> use_levels = {},
                              bool use_correlation = true);

/**
 * Workspace overload: the per-window intermediates (decomposition,
 * estimate) live in @p ws, so profiling many traces with one workspace
 * per thread runs allocation-free after warm-up. Bit-identical results
 * to the allocating overload (which is a thin adapter over this one).
 * Both overloads are estimateEmergencies, then measureEmergencies.
 */
EmergencyProfile profileTrace(const CurrentTrace &trace,
                              const SupplyNetwork &network,
                              const VoltageVarianceModel &model,
                              Volt low_threshold, Volt high_threshold,
                              AnalysisWorkspace &ws,
                              std::span<const std::size_t> use_levels = {},
                              bool use_correlation = true);

/**
 * The estimate side of profileTrace: fills estimatedBelow,
 * estimatedAbove, estimatedVariance and windows, and leaves the
 * measured fields zero. It reads only the trace and the model, so one
 * call serves every network the trace is measured against. A
 * one-model call of the overload below.
 *
 * @throws std::invalid_argument if the trace is shorter than one
 *         model window
 */
EmergencyProfile
estimateEmergencies(const CurrentTrace &trace,
                    const VoltageVarianceModel &model, Volt low_threshold,
                    Volt high_threshold, AnalysisWorkspace &ws,
                    std::span<const std::size_t> use_levels = {},
                    bool use_correlation = true);

/**
 * The estimate side for many models at once, typically one per
 * impedance scale: one profile per model, in model order. Each
 * window's features are extracted once and every model is applied to
 * them, each pushing its own window statistics in window order, so
 * profile i is bit-identical to a one-model call with models[i]. The
 * models must share window, levels and basis (panics otherwise).
 *
 * @throws std::invalid_argument if the trace is shorter than one
 *         model window
 */
std::vector<EmergencyProfile>
estimateEmergencies(const CurrentTrace &trace,
                    std::span<const VoltageVarianceModel *const> models,
                    Volt low_threshold, Volt high_threshold,
                    AnalysisWorkspace &ws,
                    std::span<const std::size_t> use_levels = {},
                    bool use_correlation = true);

/**
 * The measured side of profileTrace: one pass of @p trace through
 * @p network that fills @p profile's measuredBelow, measuredAbove and
 * measuredVariance, storing no voltage trace.
 */
void measureEmergencies(const CurrentTrace &trace,
                        const SupplyNetwork &network, Volt low_threshold,
                        Volt high_threshold, EmergencyProfile &profile);

/**
 * Register the analysis.* work counters and latency histograms in the
 * global metrics registry, so a sidecar lists them (at zero) even when
 * no trace was analysed. Idempotent.
 */
void registerAnalysisMetrics();

} // namespace didt

#endif // DIDT_CORE_EMERGENCY_ESTIMATOR_HH
