/**
 * @file
 * Equivalence guarantees for the zero-allocation analysis paths: a
 * reused DwtWorkspace carries no state from one transform to the
 * next, the workspace-threaded estimate and profileTrace forms are
 * bit-for-bit interchangeable with their value forms, and campaign
 * results stay byte-identical regardless of how many workers (and
 * therefore how many reused per-worker workspaces) run the sweep.
 * Everything here uses EXPECT_EQ on doubles on purpose: both forms run
 * the same floating-point accumulation order, so approximate
 * comparison would mask a regression.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/emergency_estimator.hh"
#include "core/experiment.hh"
#include "core/variance_model.hh"
#include "power/stimulus.hh"
#include "power/supply_network.hh"
#include "runner/campaign.hh"
#include "runner/result_json.hh"
#include "runner/trace_repository.hh"
#include "util/rng.hh"
#include "wavelet/dwt.hh"

namespace didt
{
namespace
{

std::vector<double>
randomSignal(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> xs(n);
    for (auto &x : xs)
        x = rng.normal(40.0, 10.0);
    return xs;
}

SupplyNetwork
testNetwork()
{
    SupplyNetworkConfig cfg;
    cfg.clockHz = 3.0e9;
    cfg.resonantHz = 125.0e6;
    cfg.qualityFactor = 5.0;
    cfg.dcResistance = 3.0e-4;
    return SupplyNetwork(cfg);
}

// ---------------------------------------------------------------------------
// DWT workspace reuse
// ---------------------------------------------------------------------------

TEST(RefactorDwt, ReusedWorkspaceIsStateless)
{
    // A workspace warmed on one signal (and one shape) must not leak
    // state into the next transform: recomputing through a dirty
    // workspace gives the same bits as a fresh one.
    const Dwt dwt(WaveletBasis::daubechies4());
    FlatDecomposition dirty_dec;
    DwtWorkspace dirty_ws;
    dwt.forward(randomSignal(1024, 7), dwt.maxLevels(1024), dirty_dec,
                dirty_ws);

    const auto signal = randomSignal(256, 8);
    const std::size_t levels = dwt.maxLevels(signal.size());
    FlatDecomposition fresh_dec;
    DwtWorkspace fresh_ws;
    dwt.forward(signal, levels, fresh_dec, fresh_ws);
    dwt.forward(signal, levels, dirty_dec, dirty_ws);

    ASSERT_EQ(fresh_dec.totalCoefficients(),
              dirty_dec.totalCoefficients());
    const auto fresh = fresh_dec.coefficients();
    const auto dirty = dirty_dec.coefficients();
    for (std::size_t i = 0; i < fresh.size(); ++i)
        EXPECT_EQ(fresh[i], dirty[i]) << "coefficient " << i;
}

// ---------------------------------------------------------------------------
// Analysis model and trace profiling
// ---------------------------------------------------------------------------

TEST(RefactorModel, WorkspaceEstimateMatchesLegacyBitForBit)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    model.calibrateAnalytic();

    AnalysisWorkspace ws;
    const std::vector<std::size_t> some_levels{2, 3, 4};
    for (std::uint64_t seed = 20; seed < 24; ++seed) {
        const auto window = randomSignal(model.windowLength(), seed);
        for (const bool correlated : {true, false}) {
            const WindowEstimate want =
                model.estimate(window, {}, correlated);
            WindowEstimate got;
            model.estimate(window, {}, correlated, got, ws);
            EXPECT_EQ(want.mean, got.mean);
            EXPECT_EQ(want.variance, got.variance);
        }
        const WindowEstimate want =
            model.estimate(window, some_levels, true);
        WindowEstimate got;
        model.estimate(window, some_levels, true, got, ws);
        EXPECT_EQ(want.mean, got.mean);
        EXPECT_EQ(want.variance, got.variance);
    }
}

TEST(RefactorModel, WorkspaceProfileTraceMatchesLegacyBitForBit)
{
    const SupplyNetwork net = testNetwork();
    VoltageVarianceModel model(net);
    model.calibrateAnalytic();

    Rng rng(21);
    const CurrentTrace trace =
        gaussianCurrent(40.0, 8.0, model.windowLength() * 16, rng);

    const EmergencyProfile want =
        profileTrace(trace, net, model, 0.97, 1.03);
    AnalysisWorkspace ws;
    const EmergencyProfile got =
        profileTrace(trace, net, model, 0.97, 1.03, ws);

    EXPECT_EQ(want.windows, got.windows);
    EXPECT_EQ(want.estimatedBelow, got.estimatedBelow);
    EXPECT_EQ(want.measuredBelow, got.measuredBelow);
    EXPECT_EQ(want.estimatedAbove, got.estimatedAbove);
    EXPECT_EQ(want.measuredAbove, got.measuredAbove);
    EXPECT_EQ(want.estimatedVariance, got.estimatedVariance);
    EXPECT_EQ(want.measuredVariance, got.measuredVariance);

    // Profiling a second trace through the same workspace must be
    // unaffected by the leftovers of the first.
    Rng rng2(22);
    const CurrentTrace second =
        gaussianCurrent(45.0, 5.0, model.windowLength() * 8, rng2);
    const EmergencyProfile want2 =
        profileTrace(second, net, model, 0.97, 1.03);
    const EmergencyProfile got2 =
        profileTrace(second, net, model, 0.97, 1.03, ws);
    EXPECT_EQ(want2.estimatedVariance, got2.estimatedVariance);
    EXPECT_EQ(want2.measuredVariance, got2.measuredVariance);
    EXPECT_EQ(want2.estimatedBelow, got2.estimatedBelow);
}

// ---------------------------------------------------------------------------
// Campaign byte-identity across job counts
// ---------------------------------------------------------------------------

BenchmarkProfile
refactorProfile(const std::string &name, std::uint64_t seed)
{
    BenchmarkProfile prof;
    prof.name = name;
    prof.seed = seed;
    WorkloadPhase phase;
    phase.lengthInsts = 5000;
    prof.phases = {phase};
    return prof;
}

TEST(RefactorCampaign, JsonByteIdenticalAcrossJobCounts)
{
    // The per-worker workspace striping means jobs=1 funnels every
    // cell through one workspace while jobs=4 spreads cells over four
    // plus the caller's slot. The serialized campaign must not be able
    // to tell the difference.
    static const ExperimentSetup setup = makeStandardSetup();
    CampaignSpec spec;
    spec.profiles = {refactorProfile("flat-a", 51),
                     refactorProfile("flat-b", 52),
                     refactorProfile("flat-c", 53)};
    spec.impedanceScales = {1.0, 1.3};
    spec.windowLength = 64;
    spec.levels = 4;
    spec.instructions = 6000;

    TraceRepository serial_repo(setup);
    const CampaignResult serial =
        runCharacterizationCampaign(setup, spec, serial_repo, 1);
    TraceRepository parallel_repo(setup);
    const CampaignResult parallel =
        runCharacterizationCampaign(setup, spec, parallel_repo, 4);

    EXPECT_EQ(campaignToJson(serial).dump(),
              campaignToJson(parallel).dump())
        << "shared workspaces must not leak state between cells";
}

} // namespace
} // namespace didt
