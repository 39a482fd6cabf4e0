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
 * Workspace overload: all per-window and full-trace intermediates
 * (decomposition, estimate, voltage trace) live in @p ws, so profiling
 * many traces with one workspace per thread runs allocation-free after
 * warm-up. Bit-identical results to the allocating overload (which is
 * a thin adapter over this one).
 */
EmergencyProfile profileTrace(const CurrentTrace &trace,
                              const SupplyNetwork &network,
                              const VoltageVarianceModel &model,
                              Volt low_threshold, Volt high_threshold,
                              AnalysisWorkspace &ws,
                              std::span<const std::size_t> use_levels = {},
                              bool use_correlation = true);

} // namespace didt

#endif // DIDT_CORE_EMERGENCY_ESTIMATOR_HH
