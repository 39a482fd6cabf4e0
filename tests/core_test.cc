/**
 * @file
 * Unit tests for the paper's contribution: window classification, the
 * voltage-variance model, emergency estimation, on-line monitors, and
 * the dI/dt controllers.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.hh"
#include "core/emergency_estimator.hh"
#include "core/monitor.hh"
#include "core/variance_model.hh"
#include "core/window_analysis.hh"
#include "power/stimulus.hh"
#include "power/supply_network.hh"
#include "stats/running_stats.hh"
#include "util/rng.hh"
#include "wavelet/basis.hh"

namespace didt
{
namespace
{

SupplyNetwork
testNetwork(double scale = 1.0)
{
    SupplyNetworkConfig cfg;
    cfg.clockHz = 3.0e9;
    cfg.resonantHz = 125.0e6;
    cfg.qualityFactor = 5.0;
    cfg.dcResistance = 3.0e-4;
    cfg.impedanceScale = scale;
    return SupplyNetwork(cfg);
}

// ---------------------------------------------------------------------------
// Window analysis
// ---------------------------------------------------------------------------

TEST(WindowAnalysis, GaussianTraceMostlyAccepted)
{
    Rng rng(1);
    const CurrentTrace trace = gaussianCurrent(40.0, 6.0, 50000, rng);
    Rng sampler(2);
    const auto summary = classifyWindows(trace, 64, 300, sampler);
    EXPECT_EQ(summary.windows, 300u);
    EXPECT_GT(summary.acceptanceRate(), 0.8);
}

TEST(WindowAnalysis, SquareWaveRejected)
{
    const CurrentTrace trace =
        resonantSquareWave(3.0e9, 125.0e6, 20.0, 80.0, 400);
    Rng sampler(3);
    const auto summary = classifyWindows(trace, 64, 200, sampler);
    EXPECT_LT(summary.acceptanceRate(), 0.1);
}

TEST(WindowAnalysis, ConstantTraceRejectedAsDegenerate)
{
    const CurrentTrace trace = constantCurrent(40.0, 10000);
    Rng sampler(4);
    const auto summary = classifyWindows(trace, 64, 50, sampler);
    EXPECT_EQ(summary.accepted, 0u);
    // And its variance is tiny compared to any active workload.
    EXPECT_NEAR(summary.meanVarianceNonGaussian, 0.0, 1e-12);
}

TEST(WindowAnalysis, OverallVarianceMatchesTrace)
{
    Rng rng(5);
    const CurrentTrace trace = gaussianCurrent(40.0, 5.0, 20000, rng);
    Rng sampler(6);
    const auto summary = classifyWindows(trace, 32, 50, sampler);
    EXPECT_NEAR(summary.overallVariance, 25.0, 2.0);
}

// ---------------------------------------------------------------------------
// Variance model
// ---------------------------------------------------------------------------

TEST(VarianceModel, AnalyticFactorsPeakAtResonantLevel)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    model.calibrateAnalytic();
    // 125 MHz falls in detail level 3 (94-188 MHz at 3 GHz).
    std::size_t peak = 0;
    for (std::size_t j = 1; j < model.levels(); ++j)
        if (model.baseFactor(j) > model.baseFactor(peak))
            peak = j;
    EXPECT_EQ(peak, 3u);
}

TEST(VarianceModel, TopLevelsSelectsResonantNeighbourhood)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    model.calibrateAnalytic();
    const auto top = model.topLevels(4);
    ASSERT_EQ(top.size(), 4u);
    EXPECT_TRUE(std::find(top.begin(), top.end(), 3u) != top.end());
}

TEST(VarianceModel, SyntheticCalibrationPredictsHeldOutStimuli)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    Rng rng(7);
    model.calibrate(rng, 8);
    ASSERT_TRUE(model.calibrated());

    // Held-out stimuli: resonant square waves must be predicted to
    // the right order of magnitude. (The synthetic ensemble is the
    // fallback calibration; the production path is calibrateOnTraces,
    // whose end-to-end accuracy is covered by the integration tests.)
    const CurrentTrace wave =
        resonantSquareWave(3.0e9, 125.0e6, 30.0, 60.0, 200);
    const VoltageTrace v = net.computeVoltage(wave);
    RunningStats vs;
    for (std::size_t n = 1024; n < v.size(); ++n)
        vs.push(v[n]);

    const std::span<const double> span(wave.data(), wave.size());
    RunningStats est_var;
    for (std::size_t off = 1024; off + 256 <= wave.size(); off += 256)
        est_var.push(model.estimate(span.subspan(off, 256)).variance);
    EXPECT_GT(est_var.mean(), vs.variance() / 8.0);
    EXPECT_LT(est_var.mean(), vs.variance() * 8.0);
}

TEST(VarianceModel, EstimateMeanIsIrDrop)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    model.calibrateAnalytic();
    const std::vector<double> window(256, 50.0);
    const auto est = model.estimate(window);
    EXPECT_NEAR(est.mean, net.steadyStateVoltage(50.0), 1e-9);
    EXPECT_NEAR(est.variance, 0.0, 1e-15);
}

TEST(VarianceModel, ContributionsSumToVariance)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    Rng rng(9);
    model.calibrate(rng, 4);
    const CurrentTrace wave =
        resonantSquareWave(3.0e9, 125.0e6, 30.0, 60.0, 16);
    const std::span<const double> span(wave.data(), 256);
    const auto est = model.estimate(span);
    double sum = 0.0;
    for (double c : est.contributions)
        sum += c;
    EXPECT_NEAR(sum, est.variance, 1e-12);
}

TEST(VarianceModel, LevelSubsetOnlyCountsSelectedLevels)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    model.calibrateAnalytic();
    Rng rng(10);
    CurrentTrace noise = gaussianCurrent(40.0, 8.0, 256, rng);
    const std::span<const double> span(noise.data(), 256);
    const std::vector<std::size_t> only3{3};
    const auto full = model.estimate(span);
    const auto subset = model.estimate(span, only3);
    EXPECT_LT(subset.variance, full.variance);
    EXPECT_NEAR(subset.variance, full.contributions[3], 1e-12);
}

TEST(VarianceModel, CorrelationToggleChangesEstimate)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    Rng rng(11);
    model.calibrate(rng, 4);
    const CurrentTrace wave =
        resonantSquareWave(3.0e9, 125.0e6, 30.0, 60.0, 16);
    const std::span<const double> span(wave.data(), 256);
    const auto with = model.estimate(span, {}, true);
    const auto without = model.estimate(span, {}, false);
    EXPECT_NE(with.variance, without.variance);
}

TEST(VarianceModel, CalibrateOnTracesWorks)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    Rng rng(12);
    std::vector<CurrentTrace> traces;
    traces.push_back(gaussianCurrent(40.0, 6.0, 8192, rng));
    traces.push_back(resonantSquareWave(3.0e9, 125.0e6, 25.0, 70.0, 400));
    traces.push_back(resonantSquareWave(3.0e9, 60.0e6, 30.0, 60.0, 200));
    model.calibrateOnTraces(traces);
    EXPECT_TRUE(model.calibrated());
    EXPECT_GT(model.baseFactor(3), 0.0);
}

/** A small training family: broadband noise and two square waves. */
std::vector<CurrentTrace>
trainingFamily()
{
    Rng rng(12);
    std::vector<CurrentTrace> traces;
    traces.push_back(gaussianCurrent(40.0, 6.0, 8192, rng));
    traces.push_back(resonantSquareWave(3.0e9, 125.0e6, 25.0, 70.0, 400));
    traces.push_back(resonantSquareWave(3.0e9, 60.0e6, 30.0, 60.0, 200));
    return traces;
}

/** The bit pattern of @p value, so equal means equal to the bit. */
std::uint64_t
bitsOf(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

TEST(VarianceModel, SharedTrainingRowsFitLikeCalibrateOnTraces)
{
    // Regression rows are window features: rows that a unit-scale
    // model extracts trace by trace into one buffer fit a 1.5x model
    // to exactly the factors of that model's own calibrateOnTraces.
    const std::vector<CurrentTrace> training = trainingFamily();
    const SupplyNetwork unit = testNetwork(1.0);
    const SupplyNetwork scaled = testNetwork(1.5);
    for (const char *basis : {"haar", "db4"}) {
        SCOPED_TRACE(basis);
        const VoltageVarianceModel shape(unit, 256, 8,
                                         WaveletBasis::byName(basis));
        const std::size_t cols = shape.regressionColumns();
        std::vector<double> rows;
        AnalysisWorkspace ws;
        for (const CurrentTrace &trace : training) {
            std::vector<double> part(trace.size() / 256 * cols);
            shape.regressionRows(trace, part, ws);
            rows.insert(rows.end(), part.begin(), part.end());
        }
        VoltageVarianceModel from_rows(scaled, 256, 8,
                                       WaveletBasis::byName(basis));
        from_rows.calibrateOnRows(training, rows);
        VoltageVarianceModel direct(scaled, 256, 8,
                                    WaveletBasis::byName(basis));
        direct.calibrateOnTraces(training);
        for (std::size_t j = 0; j < direct.levels(); ++j) {
            EXPECT_EQ(bitsOf(from_rows.baseFactor(j)),
                      bitsOf(direct.baseFactor(j)))
                << "level " << j;
            EXPECT_EQ(bitsOf(from_rows.meanContribution(j)),
                      bitsOf(direct.meanContribution(j)))
                << "level " << j;
        }
        // The correlation and approximation factors show in estimates.
        const std::span<const double> window(training[1].data(), 256);
        EXPECT_EQ(bitsOf(from_rows.estimate(window).variance),
                  bitsOf(direct.estimate(window).variance));
    }
}

TEST(EmergencyEstimator, ManyModelEstimateMatchesOneModelCalls)
{
    // One feature extraction per window serves every scale: each
    // profile of a five-scale call has the bits of a one-model call
    // with that scale's model alone. Applying the five models in turn
    // through one workspace would expose any state that leaks from
    // one model to the next.
    const std::vector<CurrentTrace> training = trainingFamily();
    Rng rng(31);
    CurrentTrace trace = gaussianCurrent(40.0, 12.0, 256 * 12, rng);
    const CurrentTrace burst =
        resonantSquareWave(3.0e9, 125.0e6, 25.0, 75.0, 256);
    trace.insert(trace.end(), burst.begin(), burst.end());
    const std::vector<std::size_t> some_levels{1, 2, 3, 5};

    std::vector<SupplyNetwork> networks;
    for (double scale : {1.0, 1.2, 1.5, 1.8, 2.0})
        networks.push_back(testNetwork(scale));
    for (const auto &[basis, correlation] :
         {std::pair{"haar", true}, std::pair{"db4", false}}) {
        SCOPED_TRACE(basis);
        std::vector<std::unique_ptr<VoltageVarianceModel>> owned;
        std::vector<const VoltageVarianceModel *> models;
        for (const SupplyNetwork &net : networks) {
            owned.push_back(std::make_unique<VoltageVarianceModel>(
                net, 256, 8, WaveletBasis::byName(basis)));
            owned.back()->calibrateOnTraces(training);
            models.push_back(owned.back().get());
        }
        AnalysisWorkspace ws;
        const std::vector<EmergencyProfile> all = estimateEmergencies(
            trace, models, 0.97, 1.03, ws, some_levels, correlation);
        ASSERT_EQ(all.size(), models.size());
        for (std::size_t i = 0; i < models.size(); ++i) {
            SCOPED_TRACE("model " + std::to_string(i));
            AnalysisWorkspace fresh;
            const EmergencyProfile one =
                estimateEmergencies(trace, *models[i], 0.97, 1.03, fresh,
                                    some_levels, correlation);
            EXPECT_EQ(bitsOf(all[i].estimatedBelow),
                      bitsOf(one.estimatedBelow));
            EXPECT_EQ(bitsOf(all[i].estimatedAbove),
                      bitsOf(one.estimatedAbove));
            EXPECT_EQ(bitsOf(all[i].estimatedVariance),
                      bitsOf(one.estimatedVariance));
            EXPECT_EQ(all[i].windows, one.windows);
        }
        // Scales differ, so a profile copied across models would show.
        EXPECT_NE(bitsOf(all.front().estimatedVariance),
                  bitsOf(all.back().estimatedVariance));
    }
}

TEST(WindowEstimate, GaussianTailProbabilities)
{
    WindowEstimate est;
    est.mean = 0.99;
    est.variance = 1e-4; // sigma = 0.01
    EXPECT_NEAR(est.probBelow(0.99), 0.5, 1e-9);
    EXPECT_NEAR(est.probBelow(0.97), stdNormalCdf(-2.0), 1e-9);
    EXPECT_NEAR(est.probAbove(1.01), 1.0 - stdNormalCdf(2.0), 1e-9);
}

TEST(VarianceModelDeath, EstimateBeforeCalibrationPanics)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    const std::vector<double> window(256, 40.0);
    EXPECT_DEATH((void)model.estimate(window), "before calibration");
}

TEST(VarianceModelDeath, WrongWindowLengthPanics)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    model.calibrateAnalytic();
    const std::vector<double> window(128, 40.0);
    EXPECT_DEATH((void)model.estimate(window), "expects 256");
}

// ---------------------------------------------------------------------------
// Emergency estimation
// ---------------------------------------------------------------------------

TEST(EmergencyEstimator, QuietTraceHasNoEmergencies)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    model.calibrateAnalytic();
    Rng rng(13);
    const CurrentTrace trace = gaussianCurrent(30.0, 1.0, 20000, rng);
    const auto profile = profileTrace(trace, net, model, 0.97, 1.03);
    EXPECT_LT(profile.estimatedBelow, 1e-4);
    EXPECT_DOUBLE_EQ(profile.measuredBelow, 0.0);
}

TEST(EmergencyEstimator, ResonantTraceHasEmergencies)
{
    const SupplyNetwork net = testNetwork(1.5);
    VoltageVarianceModel model(net);
    Rng rng(14);
    model.calibrate(rng, 6);
    const CurrentTrace trace =
        resonantSquareWave(3.0e9, 125.0e6, 25.0, 75.0, 2000);
    const auto profile = profileTrace(trace, net, model, 0.97, 1.03);
    EXPECT_GT(profile.measuredBelow, 0.05);
    EXPECT_GT(profile.estimatedBelow, 0.02);
}

TEST(EmergencyEstimator, WindowCountMatchesTraceLength)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    model.calibrateAnalytic();
    const CurrentTrace trace = constantCurrent(40.0, 256 * 10 + 100);
    const auto profile = profileTrace(trace, net, model, 0.97, 1.03);
    EXPECT_EQ(profile.windows, 10u);
}

// ---------------------------------------------------------------------------
// Monitors
// ---------------------------------------------------------------------------

TEST(WaveletMonitor, FullTermCountIsExactWithinWindow)
{
    const SupplyNetwork net = testNetwork(1.5);
    Rng rng(15);
    const CurrentTrace trace = gaussianCurrent(40.0, 10.0, 4000, rng);
    const VoltageTrace v = net.computeVoltage(trace);
    WaveletMonitor mon(net, 256);
    for (std::size_t n = 0; n < trace.size(); ++n) {
        const Volt est = mon.update(trace[n], v[n]);
        if (n > 512) {
            EXPECT_NEAR(est, v[n], 2e-4) << "cycle " << n;
        }
    }
}

TEST(WaveletMonitor, MatchesFullConvolutionAtFullTerms)
{
    const SupplyNetwork net = testNetwork(1.5);
    Rng rng(16);
    const CurrentTrace trace = gaussianCurrent(40.0, 10.0, 2000, rng);
    WaveletMonitor wm(net, 256);
    FullConvolutionMonitor fc(net);
    for (std::size_t n = 0; n < trace.size(); ++n) {
        const Volt a = wm.update(trace[n], 0.0);
        const Volt b = fc.update(trace[n], 0.0);
        if (n > 512) {
            EXPECT_NEAR(a, b, 2e-4);
        }
    }
}

TEST(WaveletMonitor, ErrorDecreasesWithTerms)
{
    const SupplyNetwork net = testNetwork(1.5);
    Rng rng(17);
    const CurrentTrace trace = gaussianCurrent(40.0, 10.0, 3000, rng);
    const VoltageTrace v = net.computeVoltage(trace);
    double prev_err = 1e9;
    for (std::size_t terms : {1u, 4u, 16u, 64u, 256u}) {
        WaveletMonitor mon(net, terms);
        double max_err = 0.0;
        for (std::size_t n = 0; n < trace.size(); ++n) {
            const Volt est = mon.update(trace[n], v[n]);
            if (n > 512)
                max_err = std::max(max_err, std::fabs(est - v[n]));
        }
        EXPECT_LE(max_err, prev_err * 1.5) << terms;
        prev_err = max_err;
    }
    EXPECT_LT(prev_err, 1e-3);
}

TEST(WaveletMonitor, MaxErrorBoundDecreasing)
{
    const SupplyNetwork net = testNetwork(1.5);
    double prev = 1e9;
    for (std::size_t terms : {1u, 5u, 9u, 13u, 20u, 64u, 256u}) {
        const WaveletMonitor mon(net, terms);
        const Volt bound = mon.maxError(40.0);
        EXPECT_LE(bound, prev + 1e-12);
        prev = bound;
    }
    EXPECT_NEAR(prev, 0.0, 1e-6);
}

TEST(WaveletMonitor, BoundDominatesObservedError)
{
    const SupplyNetwork net = testNetwork(1.5);
    Rng rng(18);
    // Current bounded within 40 +/- 20 A.
    CurrentTrace trace(3000);
    for (auto &x : trace)
        x = 40.0 + (rng.bernoulli(0.5) ? 20.0 : -20.0);
    const VoltageTrace v = net.computeVoltage(trace);
    WaveletMonitor mon(net, 13);
    double max_err = 0.0;
    for (std::size_t n = 0; n < trace.size(); ++n) {
        const Volt est = mon.update(trace[n], v[n]);
        if (n > 512)
            max_err = std::max(max_err, std::fabs(est - v[n]));
    }
    EXPECT_LE(max_err, mon.maxError(20.0) + 1e-6);
}

TEST(WaveletMonitor, TermOrderApproxFirstThenByMagnitude)
{
    // Approximation terms (the IR-drop carriers) are always retained
    // first; remaining detail terms are sorted by weight magnitude.
    const SupplyNetwork net = testNetwork();
    const WaveletMonitor mon(net, 32);
    const auto &terms = mon.terms();
    ASSERT_EQ(terms.size(), 32u);
    EXPECT_EQ(terms[0].level, 8u); // the single approximation term
    for (std::size_t i = 2; i < terms.size(); ++i) {
        EXPECT_NE(terms[i].level, 8u);
        EXPECT_GE(std::fabs(terms[i - 1].weight),
                  std::fabs(terms[i].weight));
    }
}

TEST(WaveletMonitor, SteadyStateTracksIrDrop)
{
    const SupplyNetwork net = testNetwork();
    WaveletMonitor mon(net, 13);
    Volt est = 0.0;
    for (int n = 0; n < 1000; ++n)
        est = mon.update(50.0, 0.0);
    EXPECT_NEAR(est, net.steadyStateVoltage(50.0), 1e-3);
}

TEST(FullConvolutionMonitor, TracksTrueVoltage)
{
    const SupplyNetwork net = testNetwork(1.5);
    Rng rng(19);
    const CurrentTrace trace = gaussianCurrent(40.0, 10.0, 2000, rng);
    const VoltageTrace v = net.computeVoltage(trace);
    FullConvolutionMonitor mon(net);
    for (std::size_t n = 0; n < trace.size(); ++n) {
        const Volt est = mon.update(trace[n], v[n]);
        if (n > mon.termCount()) {
            EXPECT_NEAR(est, v[n], 5e-4);
        }
    }
    // Hundreds of taps: the hardware cost the paper criticizes.
    EXPECT_GT(mon.termCount(), 100u);
}

TEST(AnalogSensorMonitor, DelaysTrueVoltage)
{
    const SupplyNetwork net = testNetwork();
    AnalogSensorMonitor mon(net, 3);
    std::vector<Volt> history;
    for (int n = 0; n < 50; ++n) {
        const Volt truth = 1.0 - 0.001 * n;
        const Volt est = mon.update(0.0, truth);
        history.push_back(truth);
        if (n >= 3) {
            EXPECT_DOUBLE_EQ(est, history[n - 3]);
        }
    }
}

// ---------------------------------------------------------------------------
// Controllers
// ---------------------------------------------------------------------------

TEST(ControlConfig, ControlPointsFromTolerance)
{
    ControlConfig cfg;
    cfg.tolerance = 0.010;
    EXPECT_DOUBLE_EQ(cfg.lowControl(), 0.96);
    EXPECT_DOUBLE_EQ(cfg.highControl(), 1.04);
}

TEST(ThresholdController, StallsBelowLowControl)
{
    ThresholdController ctl(ControlConfig{});
    const auto actions = ctl.decide(0.955);
    EXPECT_TRUE(actions.stallIssue);
    EXPECT_FALSE(actions.injectNoops);
}

TEST(ThresholdController, InjectsAboveHighControl)
{
    ThresholdController ctl(ControlConfig{});
    const auto actions = ctl.decide(1.045);
    EXPECT_FALSE(actions.stallIssue);
    EXPECT_TRUE(actions.injectNoops);
}

TEST(ThresholdController, QuietInsideBand)
{
    ThresholdController ctl(ControlConfig{});
    const auto actions = ctl.decide(1.0);
    EXPECT_FALSE(actions.stallIssue);
    EXPECT_FALSE(actions.injectNoops);
    EXPECT_EQ(ctl.controlCycles(), 0u);
}

TEST(ThresholdController, CountsActivity)
{
    ThresholdController ctl(ControlConfig{});
    ctl.decide(0.95);
    ctl.decide(1.05);
    ctl.decide(1.0);
    EXPECT_EQ(ctl.controlCycles(), 2u);
    EXPECT_EQ(ctl.stallCycles(), 1u);
    EXPECT_EQ(ctl.noopCycles(), 1u);
}

TEST(ThresholdControllerDeath, EmptyBandIsFatal)
{
    ControlConfig cfg;
    cfg.tolerance = 0.06; // 0.95+0.06 > 1.05-0.06
    EXPECT_EXIT(ThresholdController ctl(cfg), ::testing::ExitedWithCode(1),
                "control window");
}

TEST(PipelineDamping, TriggersOnRisingCurrent)
{
    PipelineDampingController ctl(8, 10.0);
    for (int i = 0; i < 8; ++i)
        ctl.decide(20.0);
    const auto actions = ctl.decide(35.0); // +15 over the window
    EXPECT_TRUE(actions.stallIssue);
}

TEST(PipelineDamping, TriggersOnFallingCurrent)
{
    PipelineDampingController ctl(8, 10.0);
    for (int i = 0; i < 8; ++i)
        ctl.decide(50.0);
    const auto actions = ctl.decide(30.0);
    EXPECT_TRUE(actions.injectNoops);
}

TEST(PipelineDamping, QuietWithinDelta)
{
    PipelineDampingController ctl(8, 10.0);
    for (int i = 0; i < 32; ++i) {
        const auto actions = ctl.decide(40.0 + (i % 2 ? 3.0 : -3.0));
        EXPECT_FALSE(actions.stallIssue);
        EXPECT_FALSE(actions.injectNoops);
    }
    EXPECT_EQ(ctl.controlCycles(), 0u);
}

TEST(PipelineDamping, InactiveUntilWindowFills)
{
    PipelineDampingController ctl(16, 5.0);
    for (int i = 0; i < 15; ++i) {
        const auto actions = ctl.decide(i % 2 ? 100.0 : 0.0);
        EXPECT_FALSE(actions.stallIssue);
        EXPECT_FALSE(actions.injectNoops);
    }
}

} // namespace
} // namespace didt
