/**
 * @file
 * The wavelet voltage-variance model (paper Section 4.1).
 *
 * Relates per-scale current variance (via Parseval over wavelet detail
 * coefficients) and adjacent-coefficient correlation (the pulse-
 * pattern detector) to the voltage variance the supply network will
 * produce, through per-scale multiplicative factors. Factors are
 * obtained exactly as the paper describes: "we performed a series of
 * experiments that allowed us to isolate the effects that wavelet
 * variance and correlation had on each detail scale level" — here, a
 * calibration pass regresses per-scale variance gains (with lag-1 and
 * lag-2 coefficient-correlation corrections) against the measured
 * voltage variance of training stimuli, either synthesized waveforms
 * (calibrate) or current traces of microbenchmarks running on the
 * processor model (calibrateOnTraces).
 */

#ifndef DIDT_CORE_VARIANCE_MODEL_HH
#define DIDT_CORE_VARIANCE_MODEL_HH

#include <cstddef>
#include <span>
#include <vector>

#include "power/supply_network.hh"
#include "stats/gaussian.hh"
#include "util/rng.hh"
#include "wavelet/dwt.hh"
#include "wavelet/flat_decomposition.hh"
#include "wavelet/wavelet_stats.hh"

namespace didt
{

/** Per-window voltage estimate produced by the model. */
struct WindowEstimate
{
    Volt mean = 0.0;           ///< estimated voltage mean (IR drop)
    double variance = 0.0;     ///< estimated voltage variance
    /** Per-detail-level variance contribution (finest first), followed
     *  by the approximation level's contribution. */
    std::vector<double> contributions;

    /** Gaussian-model probability that the voltage is below @p level. */
    double probBelow(Volt level) const;

    /** Gaussian-model probability that the voltage is above @p level. */
    double probAbove(Volt level) const;
};

/**
 * Everything the model reads from one current window: the per-scale
 * statistics (subband variance, lag-1 coefficient correlation,
 * approximation variance), the lag-2 coefficient correlation of each
 * detail level, the lag-1 correlation of the approximation row, and
 * the window mean. None of it depends on the supply network, which
 * enters only through the calibrated factors a model applies to them,
 * so one extraction serves every impedance scale.
 */
struct WindowFeatures : ScaleStats
{
    /** Lag-2 coefficient correlation per detail level (finest
     *  first); extracted only with correlation. */
    std::vector<double> lag2Correlation;

    /** Lag-1 correlation of the approximation row; extracted only
     *  with correlation, and only when the row has two or more
     *  coefficients. */
    double approximationCorrelation = 0.0;

    /** Window mean current; extracted only for estimates. */
    double mean = 0.0;
};

/**
 * Reusable scratch for the analysis pipeline (estimate, calibration,
 * trace profiling). All buffers grow to the high-water mark of the
 * windows they process and are then reused allocation-free, so one
 * workspace per worker thread makes the per-window hot path free of
 * heap traffic. Plain value type, owned by exactly one thread at a
 * time (see DESIGN.md section 10).
 */
struct AnalysisWorkspace
{
    DwtWorkspace dwt;           ///< pyramid ping/pong scratch
    FlatDecomposition dec;      ///< per-window decomposition
    WindowFeatures stats;       ///< the current window's features
    WindowEstimate est;         ///< per-window estimate scratch
    std::vector<char> selected; ///< detail-level selection mask
    CurrentTrace tiled;         ///< tiled calibration stimulus
    /** Supply-network response of @c tiled in calibration. Trace
     *  profiling streams its voltage and never fills this. */
    VoltageTrace voltage;
};

/** The calibrated per-scale variance-gain model. */
class VoltageVarianceModel
{
  public:
    /**
     * @param network supply network to model (kept by reference; must
     *        outlive this object)
     * @param window_length analysis window in cycles (paper: 256)
     * @param levels wavelet decomposition depth (paper: 8)
     * @param basis wavelet basis (paper: Haar; others for ablation)
     */
    VoltageVarianceModel(const SupplyNetwork &network,
                         std::size_t window_length = 256,
                         std::size_t levels = 8,
                         WaveletBasis basis = WaveletBasis::haar());

    /**
     * Calibrate the per-scale factors by least-squares regression on
     * an ensemble of processor-like stimuli (white issue noise, pulse
     * trains, steps, slow drifts) against the measured voltage
     * variance — the paper's "series of experiments".
     *
     * @param rng randomness for stimulus generation
     * @param samples_per_point scales the ensemble size (~50x this)
     */
    void calibrate(Rng &rng, std::size_t samples_per_point = 12);

    /**
     * Calibrate by regression on windows cut from the supplied current
     * traces (typically microbenchmarks run on the processor model, so
     * the training family matches real machine behaviour). Targets are
     * the exact steady-state voltage variances of each window. Throws
     * std::invalid_argument when the traces hold fewer than 16
     * windows, too few to fit the per-scale factors. Equivalent to
     * regressionRows() over every trace, then calibrateOnRows().
     */
    void calibrateOnTraces(std::span<const CurrentTrace> traces);

    /** Values in one regression row: three per detail level, plus two
     *  for an approximation row of two or more coefficients. */
    std::size_t regressionColumns() const;

    /**
     * Write the regression row of each whole window of @p trace to
     * @p rows, which holds (trace.size() / windowLength()) rows of
     * regressionColumns() values. The rows are window features, so
     * they depend on the window, levels and basis only: one model's
     * rows serve every model that sharesFeatures() with it.
     */
    void regressionRows(std::span<const double> trace,
                        std::span<double> rows,
                        AnalysisWorkspace &ws) const;

    /**
     * The fit half of calibrateOnTraces: compute each window's target
     * and regress it on the stored @p rows, which regressionRows()
     * wrote for @p traces in trace order. Bit-identical to
     * calibrateOnTraces(traces). Throws like it.
     */
    void calibrateOnRows(std::span<const CurrentTrace> traces,
                         std::span<const double> rows);

    /**
     * Analytic fallback calibration: per-scale factor from the mean
     * squared impedance over the subband's frequency range, ignoring
     * the correlation term. Used as a baseline/ablation.
     */
    void calibrateAnalytic();

    /** True once either calibration has run. */
    bool calibrated() const { return calibrated_; }

    /**
     * Estimate the voltage distribution for one current window of
     * exactly windowLength() samples (paper Section 4.1 steps 1-5).
     *
     * @param window current samples
     * @param use_levels detail levels to include (empty = all); the
     *        approximation level is always included
     * @param use_correlation include the correlation adjustment
     */
    WindowEstimate estimate(std::span<const double> window,
                            std::span<const std::size_t> use_levels = {},
                            bool use_correlation = true) const;

    /**
     * In-place overload: write the estimate into @p out using @p ws
     * for all intermediate storage. Allocation-free once the workspace
     * has warmed up; bit-identical to the allocating overload (which
     * is a thin adapter over this one). It is extractFeatures(), then
     * applyFeatures().
     */
    void estimate(std::span<const double> window,
                  std::span<const std::size_t> use_levels,
                  bool use_correlation, WindowEstimate &out,
                  AnalysisWorkspace &ws) const;

    /**
     * The scale-free half of estimate(): fill ws.stats with the
     * features of @p window (exactly windowLength() samples). Runs the
     * forward DWT and the scale statistics; with @p use_correlation,
     * also the lag-2 correlation of each detail level and the lag-1
     * correlation of the approximation; with @p with_mean, also the
     * window mean, which only estimates read.
     */
    void extractFeatures(std::span<const double> window,
                         bool use_correlation, bool with_mean,
                         AnalysisWorkspace &ws) const;

    /**
     * The model half of estimate(): combine the features in ws.stats,
     * extracted with the same @p use_correlation by any model that
     * sharesFeatures() with this one, with this model's network and
     * calibrated factors into @p out.
     */
    void applyFeatures(std::span<const std::size_t> use_levels,
                       bool use_correlation, WindowEstimate &out,
                       AnalysisWorkspace &ws) const;

    /** True when @p other has the same window, levels and basis, so
     *  either model's window features serve both. */
    bool sharesFeatures(const VoltageVarianceModel &other) const;

    /**
     * The @p k detail levels with the largest calibrated base factors
     * — the levels nearest the resonance, whose omission the paper
     * shows costs under ~1.6% (Figure 8).
     */
    std::vector<std::size_t> topLevels(std::size_t k) const;

    /** Analysis window length in cycles. */
    std::size_t windowLength() const { return window_; }

    /** Decomposition depth. */
    std::size_t levels() const { return levels_; }

    /** Base (rho = 0) variance gain of detail level @p j. */
    double baseFactor(std::size_t j) const;

    /** Mean training-set variance contribution of detail level @p j
     *  (0 for analytic calibration, which has no training set). */
    double meanContribution(std::size_t j) const;

  private:
    /** kappa_j = c0 + c1 rho1 + c2 rho2 (lag-1/lag-2 coefficient
     *  correlations), clamped at 0. */
    struct Factor
    {
        double c0 = 0.0;
        double c1 = 0.0;
        double c2 = 0.0;

        double at(double rho1, double rho2) const;
    };

    /** Accumulated normal equations for a factor regression. */
    struct Regression
    {
        std::vector<std::vector<double>> xtx;
        std::vector<double> xty;
        std::vector<double> colSum; ///< unweighted feature sums
        std::size_t rows = 0;
        std::size_t cols = 0;
    };

    /** The approximation row has two or more coefficients, so it
     *  carries a variance term. */
    bool hasApproximation() const { return (window_ >> levels_) >= 2; }

    void beginRegression(Regression &reg) const;
    /** Measure @p signal's target and add @p row, its regression row. */
    void accumulateRow(Regression &reg, std::span<const double> row,
                       std::span<const double> signal,
                       AnalysisWorkspace &ws) const;
    void finishRegression(Regression &reg);

    const SupplyNetwork &network_;
    std::size_t window_;
    std::size_t levels_;
    Dwt dwt_;
    std::vector<Factor> detailFactors_; ///< one per detail level
    Factor approxFactor_;
    /** Mean per-level variance contribution over the training set;
     *  used by topLevels() to rank levels by real importance. */
    std::vector<double> meanContribution_;
    bool calibrated_ = false;

    /**
     * Measure the steady-state voltage variance produced by one
     * stimulus window: tile it periodically, convolve through the
     * network, and take the settled output variance. Tiling and the
     * network response live in @p ws.
     */
    double measureOutputVariance(std::span<const double> window_signal,
                                 AnalysisWorkspace &ws) const;
};

} // namespace didt

#endif // DIDT_CORE_VARIANCE_MODEL_HH
