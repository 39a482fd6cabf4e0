/**
 * @file
 * Differential-verification oracles for the paper's two headline
 * equivalences, plus a closed-loop completion check.
 *
 * The paper's claims rest on approximations tracking exact references:
 *
 *  1. The online top-K wavelet monitor (Section 5) must track the full
 *     time-domain convolution of current history with the network's
 *     impulse response. checkMonitor() runs both over a trace and
 *     bounds the divergence by the monitor's own analytic worst case —
 *     the L1 norm of the dropped kernel part times the observed
 *     current half-swing (paper Figure 13) — so a regression in the
 *     coefficient ranking, the shift-register sums, or the DC tail
 *     term is caught as a bound violation, not a golden-file diff.
 *
 *  2. The offline Gaussian variance model (Section 4) must track
 *     measured cosimulated voltage statistics. checkVarianceModel()
 *     profiles traces through the calibrated model and compares
 *     estimated vs measured voltage variance and emergency fractions
 *     against paper-calibrated tolerances.
 *
 *  3. Every control scheme's closed loop must run its instruction
 *     stream to completion within the cycle budget. checkScheme()
 *     runs the loop once and checks the committed count.
 *
 * Oracles only measure and judge; they never assert or abort. Tests
 * decide what a failed report means.
 */

#ifndef DIDT_VERIFY_ORACLE_HH
#define DIDT_VERIFY_ORACLE_HH

#include <cstdint>
#include <span>
#include <string>

#include "core/cosim.hh"
#include "core/experiment.hh"
#include "core/variance_model.hh"
#include "power/supply_network.hh"
#include "util/types.hh"

namespace didt
{
namespace verify
{

/** Pointwise divergence between two equal-length series. */
struct Divergence
{
    double maxAbs = 0.0;      ///< max |a - b|
    double rms = 0.0;         ///< sqrt(mean (a - b)^2)
    std::size_t samples = 0;  ///< points compared
};

/** Measure the divergence of @p a from @p b (sizes must match). */
Divergence measureDivergence(std::span<const double> a,
                             std::span<const double> b);

/** Tolerances the oracles judge against. Defaults are calibrated to
 *  the paper's reported accuracy with headroom for platform noise;
 *  tests may tighten them for specific configurations. */
struct OracleTolerances
{
    /** Allowed multiple of the wavelet monitor's analytic error bound
     *  (1.0 = the bound itself; slack absorbs warm-start transients). */
    double monitorBoundSlack = 1.05;

    /** Absolute monitor-divergence floor in volts, for traces whose
     *  swing (and therefore bound) is tiny. */
    Volt monitorFloor = 1e-9;

    /** Allowed relative error of estimated vs measured voltage
     *  variance per trace (Section 4: worst benchmarks land near 30%;
     *  Figure 12 means are far tighter). */
    double varianceRelTol = 0.5;

    /** Allowed |estimated - measured| emergency fraction, in
     *  percentage points (Figure 9 tracks within a few points). */
    double emergencyPctTol = 5.0;

    /** Allowed relative error of the sampled trace's resonant-octave
     *  wavelet variance vs the full-detail trace's (the quantity the
     *  dI/dt analyses key on; reconstruction preserves the band but
     *  not the exact phase alignment). */
    double samplingVarianceRelTol = 0.5;

    /** Allowed |sampled - full| threshold-crossing fraction for a
     *  sampled trace, in percentage points per threshold. */
    double samplingCrossingPctTol = 3.0;
};

/** Result of one monitor-vs-reference differential run. */
struct MonitorOracleReport
{
    Divergence divergence;    ///< wavelet estimate vs exact reference
    Volt bound = 0.0;         ///< analytic worst case for this trace
    Amp halfSwing = 0.0;      ///< observed current half-swing
    std::size_t terms = 0;    ///< retained wavelet terms
    bool pass = false;        ///< maxAbs <= bound * slack + floor
};

/** Result of one variance-model-vs-measurement differential run. */
struct VarianceOracleReport
{
    double maxVarianceRelError = 0.0; ///< worst per-trace |est/meas - 1|
    double rmsVarianceRelError = 0.0;
    double maxEmergencyPctError = 0.0; ///< worst |est - meas| pct points
    double rmsEmergencyPctError = 0.0;
    std::size_t traces = 0;
    bool pass = false;
};

/** Result of one sampled-vs-full-detail differential run. */
struct SamplingOracleReport
{
    double fullResonanceVariance = 0.0;    ///< full-detail octave variance
    double sampledResonanceVariance = 0.0; ///< sampled-trace octave variance
    double resonanceVarianceRelError = 0.0; ///< |sampled/full - 1|
    double lowCrossingPctError = 0.0;  ///< |sampled - full| % below low
    double highCrossingPctError = 0.0; ///< |sampled - full| % above high
    std::size_t fullCycles = 0;        ///< full-detail trace length
    std::size_t sampledCycles = 0;     ///< sampled trace length
    bool pass = false;
};

/** Result of one scheme closed-loop run. */
struct SchemeOracleReport
{
    std::string scheme;        ///< scheme name
    bool committedAll = false; ///< finished the stream
    bool pass = false;
};

/** Result of one supply-variation differential run. */
struct VariationOracleReport
{
    /** A zero-sigma draw reproduces the base config bit for bit. */
    bool zeroSigmaConfigBitIdentical = false;

    /** The zero-sigma drawn network's voltage trace equals the
     *  nominal network's exactly (MC off stays the seed path). */
    bool zeroSigmaVoltageBitIdentical = false;

    /** The same (seed, draw) always yields the same config bits. */
    bool drawDeterministic = false;

    /** A nonzero sigma actually perturbs the drawn network. */
    bool nonzeroSigmaPerturbs = false;

    bool pass = false; ///< all of the above
};

/** Differential oracle bound to one experiment environment. */
class Oracle
{
  public:
    /**
     * @param setup experiment environment (kept by reference; must
     *        outlive the oracle)
     * @param tolerances pass/fail thresholds
     */
    explicit Oracle(const ExperimentSetup &setup,
                    OracleTolerances tolerances = {});

    /**
     * Run the top-K wavelet monitor and the exact (untruncated)
     * streaming convolution over @p trace and report their divergence
     * against the analytic bound.
     */
    MonitorOracleReport checkMonitor(const SupplyNetwork &network,
                                     const CurrentTrace &trace,
                                     std::size_t terms = 13,
                                     std::size_t window = 256,
                                     std::size_t levels = 8) const;

    /**
     * Profile each trace through @p model (which must be calibrated
     * against @p network) and compare estimated vs measured voltage
     * variance and emergency fractions.
     */
    VarianceOracleReport
    checkVarianceModel(const SupplyNetwork &network,
                       const VoltageVarianceModel &model,
                       std::span<const CurrentTrace> traces,
                       Volt low_threshold = 0.97,
                       Volt high_threshold = 1.03) const;

    /**
     * Run @p scheme closed-loop and require stream completion.
     * @p hazard_model is required for the AdaptiveWavelet scheme
     * (ignored otherwise).
     */
    SchemeOracleReport
    checkScheme(ControlScheme scheme, const BenchmarkProfile &profile,
                const SupplyNetwork &network,
                std::uint64_t instructions = 20000,
                const VoltageVarianceModel *hazard_model = nullptr) const;

    /**
     * Run @p profile full-detail and under @p sampling, then compare
     * the two traces on the statistics the dI/dt analyses consume:
     * the wavelet variance of the resonant octave (MODWT, haar) and
     * the fraction of cycles whose supply voltage crosses the
     * low/high control points on the @p impedance_scale network.
     * Sampling trades per-cycle fidelity for throughput; this oracle
     * bounds what the trade costs.
     */
    SamplingOracleReport
    checkSampling(const BenchmarkProfile &profile,
                  const SamplingConfig &sampling,
                  std::uint64_t instructions = 60000,
                  double impedance_scale = 1.0,
                  std::size_t levels = 8, Volt low_threshold = 0.97,
                  Volt high_threshold = 1.03) const;

    /**
     * Differential check of the Monte Carlo variation layer
     * (power/variation.hh): a zero-sigma draw must leave the supply
     * config — and the voltage trace it computes for @p profile —
     * bit-identical to the nominal network (MC off is the seed path);
     * draws must be deterministic in (seed, index); and a draw at
     * @p sigma must actually move the network.
     */
    VariationOracleReport
    checkVariation(const BenchmarkProfile &profile,
                   double impedance_scale = 1.2,
                   std::uint64_t instructions = 20000,
                   double sigma = 0.05,
                   std::uint64_t mc_seed = 42) const;

    const OracleTolerances &tolerances() const { return tol_; }

  private:
    const ExperimentSetup &setup_;
    OracleTolerances tol_;
};

} // namespace verify
} // namespace didt

#endif // DIDT_VERIFY_ORACLE_HH
