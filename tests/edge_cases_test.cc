/**
 * @file
 * Edge-case and robustness tests across modules: boundary conditions,
 * unusual-but-legal configurations, and failure-injection paths that
 * the mainline suites do not reach.
 */

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/emergency_estimator.hh"
#include "core/monitor.hh"
#include "core/variance_model.hh"
#include "power/stimulus.hh"
#include "power/supply_network.hh"
#include "sim/processor.hh"
#include "stats/histogram.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "wavelet/dwt.hh"
#include "wavelet/scalogram.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace didt
{
namespace
{

SupplyNetwork
edgeNetwork()
{
    SupplyNetworkConfig cfg;
    cfg.clockHz = 3.0e9;
    cfg.resonantHz = 125.0e6;
    cfg.qualityFactor = 5.0;
    cfg.dcResistance = 3.0e-4;
    return SupplyNetwork(cfg);
}

// ---------------------------------------------------------------------------
// Wavelet edge cases
// ---------------------------------------------------------------------------

TEST(EdgeDwt, MinimalSignalOneLevel)
{
    const Dwt dwt(WaveletBasis::haar());
    const std::vector<double> x{3.0, 5.0};
    const auto dec = dwt.forward(x, 1);
    EXPECT_NEAR(dec.approximation()[0], 8.0 / std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(dec.detail(0)[0], -2.0 / std::sqrt(2.0), 1e-12);
    const auto back = dwt.inverse(dec);
    EXPECT_NEAR(back[0], 3.0, 1e-12);
    EXPECT_NEAR(back[1], 5.0, 1e-12);
}

TEST(EdgeDwt, FullDepthLeavesOneApproximation)
{
    const Dwt dwt(WaveletBasis::haar());
    Rng rng(1);
    std::vector<double> x(64);
    for (auto &v : x)
        v = rng.normal();
    const auto dec = dwt.forward(x, 6);
    EXPECT_EQ(dec.approximation().size(), 1u);
    EXPECT_EQ(dec.detail(dec.levels() - 1).size(), 1u);
}

TEST(EdgeDwt, NegativeSignalsRoundTrip)
{
    const Dwt dwt(WaveletBasis::daubechies4());
    std::vector<double> x(32);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = -100.0 + static_cast<double>(i);
    const auto back = dwt.inverse(dwt.forward(x, 3));
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(back[i], x[i], 1e-9);
}

TEST(EdgeDwtDeath, IndivisibleLengthPanics)
{
    const Dwt dwt(WaveletBasis::haar());
    const std::vector<double> x(12, 1.0);
    EXPECT_DEATH((void)dwt.forward(x, 3), "not divisible");
}

TEST(EdgeDwtDeath, EmptySignalPanics)
{
    const Dwt dwt(WaveletBasis::haar());
    const std::vector<double> x;
    EXPECT_DEATH((void)dwt.forward(x, 1), "empty signal");
}

TEST(EdgeDwtDeath, ZeroLevelsPanics)
{
    const Dwt dwt(WaveletBasis::haar());
    const std::vector<double> x(16, 1.0);
    EXPECT_DEATH((void)dwt.forward(x, 0), "at least one level");
}

TEST(EdgeProfile, TraceShorterThanWindowThrows)
{
    const SupplyNetwork net = edgeNetwork();
    VoltageVarianceModel model(net);
    model.calibrateAnalytic();
    const CurrentTrace trace(model.windowLength() - 1, 40.0);
    EXPECT_THROW((void)profileTrace(trace, net, model, 0.97, 1.03),
                 std::invalid_argument);
}

TEST(EdgeScalogram, SingleLevel)
{
    const Dwt dwt(WaveletBasis::haar());
    const std::vector<double> x{1, 2, 3, 4};
    const Scalogram sc(dwt.forward(x, 1));
    EXPECT_EQ(sc.scales(), 1u);
    std::ostringstream os;
    sc.renderAscii(os, 8);
    EXPECT_FALSE(os.str().empty());
}

TEST(EdgeScalogram, AllZeroSignal)
{
    const Dwt dwt(WaveletBasis::haar());
    const std::vector<double> x(16, 0.0);
    const Scalogram sc(dwt.forward(x, 2));
    EXPECT_DOUBLE_EQ(sc.maxMagnitude(), 0.0);
    std::ostringstream os;
    sc.renderAscii(os, 16); // must not divide by zero
    EXPECT_FALSE(os.str().empty());
}

// ---------------------------------------------------------------------------
// Supply network edge cases
// ---------------------------------------------------------------------------

TEST(EdgeSupply, ZeroCurrentTraceStaysNominal)
{
    SupplyNetworkConfig cfg;
    cfg.dcResistance = 3e-4;
    const SupplyNetwork net(cfg);
    const VoltageTrace v = net.computeVoltage(constantCurrent(0.0, 100));
    for (Volt x : v)
        EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(EdgeSupply, EmptyTraceYieldsEmptyVoltage)
{
    SupplyNetworkConfig cfg;
    cfg.dcResistance = 3e-4;
    const SupplyNetwork net(cfg);
    EXPECT_TRUE(net.computeVoltage({}).empty());
}

TEST(EdgeSupply, VeryLowQStillUnderdamped)
{
    SupplyNetworkConfig cfg;
    cfg.qualityFactor = 0.51; // just above the limit
    cfg.dcResistance = 3e-4;
    const SupplyNetwork net(cfg);
    double sum = 0.0;
    for (double z : net.impulseResponse())
        sum += z;
    EXPECT_NEAR(sum, net.resistance(), 1e-3 * net.resistance());
}

TEST(EdgeSupply, HighQRingsLonger)
{
    auto tail_energy = [](double q) {
        SupplyNetworkConfig cfg;
        cfg.qualityFactor = q;
        cfg.dcResistance = 3e-4;
        const SupplyNetwork net(cfg);
        const auto &z = net.impulseResponse();
        double tail = 0.0;
        for (std::size_t n = 256; n < z.size(); ++n)
            tail += z[n] * z[n];
        return tail;
    };
    EXPECT_GT(tail_energy(10.0), 10.0 * tail_energy(2.0));
}

TEST(EdgeMonitor, SingleTermMonitorStillBounded)
{
    SupplyNetworkConfig cfg;
    cfg.dcResistance = 3e-4;
    const SupplyNetwork net(cfg);
    WaveletMonitor monitor(net, 1);
    // One term = the approximation (IR drop) only.
    Volt est = 0.0;
    for (int n = 0; n < 600; ++n)
        est = monitor.update(50.0, 0.0);
    EXPECT_NEAR(est, net.steadyStateVoltage(50.0), 2e-3);
}

TEST(EdgeMonitorDeath, ZeroTermsIsFatal)
{
    SupplyNetworkConfig cfg;
    cfg.dcResistance = 3e-4;
    const SupplyNetwork net(cfg);
    EXPECT_EXIT(WaveletMonitor monitor(net, 0),
                ::testing::ExitedWithCode(1), "at least one term");
}

TEST(EdgeMonitorDeath, NonPowerOfTwoWindowIsFatal)
{
    SupplyNetworkConfig cfg;
    cfg.dcResistance = 3e-4;
    const SupplyNetwork net(cfg);
    EXPECT_EXIT(WaveletMonitor monitor(net, 8, 100, 2),
                ::testing::ExitedWithCode(1), "power of two");
}

// ---------------------------------------------------------------------------
// Histogram / stats edge cases
// ---------------------------------------------------------------------------

TEST(EdgeHistogram, SingleBin)
{
    Histogram h(0.0, 1.0, 1);
    h.push(0.3);
    h.push(0.9);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 1.0);
}

TEST(EdgeHistogram, FractionBelowOutsideRange)
{
    Histogram h(0.0, 1.0, 4);
    h.push(0.5);
    EXPECT_DOUBLE_EQ(h.fractionBelow(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionBelow(2.0), 1.0);
}

// ---------------------------------------------------------------------------
// Processor edge cases
// ---------------------------------------------------------------------------

/** Empty instruction source. */
class EmptySource : public InstructionSource
{
  public:
    bool
    next(Instruction &) override
    {
        return false;
    }
};

TEST(EdgeProcessor, EmptySourceDrainsImmediately)
{
    EmptySource src;
    Processor proc({}, {}, src);
    Cycle cycles = 0;
    while (proc.step() && cycles < 100)
        ++cycles;
    EXPECT_LT(cycles, 10u);
    EXPECT_EQ(proc.stats().committed, 0u);
}

TEST(EdgeProcessor, SingleInstructionProgram)
{
    SyntheticWorkload w(profileByName("gzip"), 1, 0);
    Processor proc({}, {}, w);
    while (proc.step()) {
    }
    EXPECT_EQ(proc.stats().committed, 1u);
}

TEST(EdgeProcessor, TinyWindowStillCorrect)
{
    ProcessorConfig cfg;
    cfg.ruuSize = 4;
    cfg.lsqSize = 2;
    SyntheticWorkload w(profileByName("gzip"), 2000, 0);
    Processor proc(cfg, {}, w);
    while (proc.step()) {
    }
    EXPECT_EQ(proc.stats().committed, 2000u);
}

TEST(EdgeProcessor, NarrowMachineSlowerThanWide)
{
    auto cycles_for = [](std::size_t width) {
        ProcessorConfig cfg;
        cfg.fetchWidth = width;
        cfg.decodeWidth = width;
        cfg.commitWidth = width;
        SyntheticWorkload w(profileByName("crafty"), 20000, 0);
        Processor proc(cfg, {}, w);
        SyntheticWorkload warm(profileByName("crafty"), 0, 1);
        proc.warmupFootprint(w.dataFootprint(), w.codeFootprint());
        proc.warmup(warm, 100000);
        while (proc.step()) {
        }
        return proc.stats().cycles;
    };
    EXPECT_GT(cycles_for(1), cycles_for(4));
}

TEST(EdgeProcessor, StallAndNoopsCompose)
{
    // Asserting both actuations at once must not crash or deadlock:
    // stall wins on real issue, no-ops fill all units.
    SyntheticWorkload w(profileByName("gzip"), 3000, 0);
    Processor proc({}, {}, w);
    proc.setStallIssue(true);
    proc.setInjectNoops(true);
    for (int n = 0; n < 500; ++n)
        proc.step();
    proc.setStallIssue(false);
    proc.setInjectNoops(false);
    while (proc.step()) {
    }
    EXPECT_EQ(proc.stats().committed, 3000u);
}

// ---------------------------------------------------------------------------
// Workload edge cases
// ---------------------------------------------------------------------------

TEST(EdgeWorkload, UnboundedStreamKeepsProducing)
{
    SyntheticWorkload w(profileByName("gzip"), 0, 0);
    Instruction inst;
    for (int n = 0; n < 100000; ++n)
        ASSERT_TRUE(w.next(inst));
}

TEST(EdgeWorkload, PhaseRotationCoversAllPhases)
{
    // gcc alternates a 1200-instruction compute phase (load fraction
    // ~0.24) with a 900-instruction oscillation phase (~0.03): load
    // density across the boundary must drop sharply.
    SyntheticWorkload w(profileByName("gcc"), 2100, 0);
    Instruction inst;
    int loads_first = 0;  // [0, 1200): compute phase
    int loads_second = 0; // [1200, 2100): oscillation phase
    for (int n = 0; n < 2100; ++n) {
        w.next(inst);
        if (inst.op == OpClass::Load)
            ++(n < 1200 ? loads_first : loads_second);
    }
    const double density_first = loads_first / 1200.0;
    const double density_second = loads_second / 900.0;
    EXPECT_GT(density_first, 3.0 * density_second);
}

TEST(EdgeWorkloadDeath, EmptyPhasesIsFatal)
{
    BenchmarkProfile broken = profileByName("gzip");
    broken.phases.clear();
    EXPECT_EXIT(SyntheticWorkload w(broken, 10, 0),
                ::testing::ExitedWithCode(1), "no phases");
}

// ---------------------------------------------------------------------------
// Logging levels
// ---------------------------------------------------------------------------

TEST(EdgeLogging, LevelsControlOutput)
{
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    didt_warn("suppressed warning");   // must not crash
    didt_inform("suppressed info");
    setLogLevel(LogLevel::Verbose);
    EXPECT_EQ(logLevel(), LogLevel::Verbose);
    setLogLevel(LogLevel::Normal);
}

} // namespace
} // namespace didt
