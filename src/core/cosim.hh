/**
 * @file
 * Closed-loop co-simulation: processor + supply network + monitor +
 * controller (paper Section 5.3, Figure 15, Table 2).
 *
 * Each cycle the processor draws current, the supply network produces
 * the true voltage, the selected monitor produces an estimate, and the
 * controller's actuation (stall issue / inject no-ops) is applied to
 * the processor for the next cycle. The harness accounts voltage
 * faults, false positives, control activity, and performance.
 */

#ifndef DIDT_CORE_COSIM_HH
#define DIDT_CORE_COSIM_HH

#include <cstdint>
#include <string>

#include "core/controller.hh"
#include "core/variance_model.hh"
#include "power/supply_network.hh"
#include "sim/config.hh"
#include "sim/power_model.hh"
#include "util/types.hh"
#include "workload/profile.hh"

namespace didt
{

/** Control scheme selection for a closed-loop run. */
enum class ControlScheme
{
    None,            ///< uncontrolled baseline
    Wavelet,         ///< wavelet-convolution monitor + thresholds
    FullConvolution, ///< full convolution monitor + thresholds
    AnalogSensor,    ///< delayed true-voltage sensor + thresholds
    PipelineDamping, ///< current-delta invariant (Powell & Vijaykumar)
    /**
     * Extension beyond the paper: the wavelet monitor plus an on-line
     * wavelet characterizer that tightens the control points only
     * while the running phase is dI/dt-hazardous, recovering the
     * optimistic thresholds' near-zero overhead on benign phases.
     */
    AdaptiveWavelet,
};

/** Scheme name for reports. */
const char *controlSchemeName(ControlScheme scheme);

/** Parameters of one closed-loop run. */
struct CosimConfig
{
    /** Instructions to execute (stream length). */
    std::uint64_t instructions = 200000;

    /** Safety cap on cycles (0 = none). */
    Cycle maxCycles = 0;

    /** Scheme under test. */
    ControlScheme scheme = ControlScheme::None;

    /** Threshold settings (for threshold-based schemes). */
    ControlConfig control{};

    /** Wavelet monitor terms (Wavelet/AdaptiveWavelet schemes). */
    std::size_t waveletTerms = 13;

    /**
     * Calibrated variance model for the AdaptiveWavelet scheme's
     * hazard detector (not owned; must outlive the run). Required for
     * that scheme, ignored otherwise.
     */
    const VoltageVarianceModel *hazardModel = nullptr;

    /** Extra tolerance applied while the phase is hazardous (V). */
    Volt adaptiveExtraTolerance = 0.015;

    /** Hazard probability that arms the conservative control point. */
    double hazardArmLevel = 0.005;

    /** Analog sensor delay in cycles (AnalogSensor scheme). */
    std::size_t sensorDelay = 4;

    /** Damping window in cycles (PipelineDamping scheme). */
    std::size_t dampingWindow = 16;

    /** Damping current delta in amperes (PipelineDamping scheme). */
    Amp dampingDelta = 12.0;

    /** Extra RNG seed fed to the workload. */
    std::uint64_t seed = 0;
};

/** Results of one closed-loop run. */
struct CosimResult
{
    std::string scheme;            ///< scheme name
    Cycle cycles = 0;              ///< cycles to run the stream
    std::uint64_t committed = 0;   ///< instructions committed
    std::uint64_t lowFaults = 0;   ///< cycles with true V < low fault
    std::uint64_t highFaults = 0;  ///< cycles with true V > high fault
    std::uint64_t controlCycles = 0; ///< cycles with actuation asserted
    std::uint64_t stallCycles = 0;   ///< issue-stall actuations
    std::uint64_t noopCycles = 0;    ///< no-op actuations
    /**
     * Actuations asserted while the true voltage was safely inside the
     * control band — the false-positive proxy for Table 2.
     */
    std::uint64_t falsePositives = 0;
    Volt minVoltage = 0.0;         ///< lowest true voltage seen
    Volt maxVoltage = 0.0;         ///< highest true voltage seen
    double meanCurrent = 0.0;      ///< average current draw
    double energyJ = 0.0;          ///< total energy

    /** False positives per control cycle. */
    double falsePositiveRate() const
    {
        return controlCycles ? static_cast<double>(falsePositives) /
                                   static_cast<double>(controlCycles)
                             : 0.0;
    }
};

/**
 * Run one closed-loop simulation of @p profile on @p network.
 *
 * @param profile the synthetic benchmark
 * @param proc processor configuration
 * @param power power-model configuration
 * @param network supply network (drives fault levels and monitors)
 * @param cfg run parameters
 */
CosimResult runClosedLoop(const BenchmarkProfile &profile,
                          const ProcessorConfig &proc,
                          const PowerModelConfig &power,
                          const SupplyNetwork &network,
                          const CosimConfig &cfg);

/**
 * Relative slowdown of @p controlled vs @p baseline
 * (cycles ratio - 1).
 */
double slowdown(const CosimResult &controlled, const CosimResult &baseline);

} // namespace didt

#endif // DIDT_CORE_COSIM_HH
