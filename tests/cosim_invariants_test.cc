/**
 * @file
 * Invariant tests on the closed-loop co-simulation: properties that
 * must hold for every control scheme (commit conservation,
 * determinism, cap behaviour, accounting).
 */

#include <gtest/gtest.h>

#include "core/cosim.hh"
#include "core/experiment.hh"
#include "workload/profile.hh"

namespace didt
{
namespace
{

class CosimInvariants
    : public ::testing::TestWithParam<ControlScheme>
{
  protected:
    static void
    SetUpTestSuite()
    {
        setup_ = new ExperimentSetup(makeStandardSetup());
        network_ = new SupplyNetwork(setup_->makeNetwork(1.5));
        model_ = new VoltageVarianceModel(
            makeCalibratedModel(*setup_, *network_));
    }

    static void
    TearDownTestSuite()
    {
        delete model_;
        delete network_;
        delete setup_;
        model_ = nullptr;
        network_ = nullptr;
        setup_ = nullptr;
    }

    CosimConfig
    config() const
    {
        CosimConfig cfg;
        cfg.instructions = 20000;
        cfg.scheme = GetParam();
        cfg.control.tolerance = 0.020;
        cfg.hazardModel = model_;
        return cfg;
    }

    CosimResult
    run(const CosimConfig &cfg) const
    {
        return runClosedLoop(profileByName("gzip"), setup_->proc,
                             setup_->power, *network_, cfg);
    }

    static ExperimentSetup *setup_;
    static SupplyNetwork *network_;
    static VoltageVarianceModel *model_;
};

ExperimentSetup *CosimInvariants::setup_ = nullptr;
SupplyNetwork *CosimInvariants::network_ = nullptr;
VoltageVarianceModel *CosimInvariants::model_ = nullptr;

TEST_P(CosimInvariants, CommitsEveryInstructionRegardlessOfControl)
{
    const CosimResult r = run(config());
    EXPECT_EQ(r.committed, 20000u);
}

TEST_P(CosimInvariants, DeterministicAcrossRuns)
{
    const CosimResult a = run(config());
    const CosimResult b = run(config());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.lowFaults, b.lowFaults);
    EXPECT_EQ(a.controlCycles, b.controlCycles);
    EXPECT_DOUBLE_EQ(a.minVoltage, b.minVoltage);
}

TEST_P(CosimInvariants, MaxCyclesCapRespected)
{
    CosimConfig cfg = config();
    cfg.maxCycles = 1000;
    const CosimResult r = run(cfg);
    EXPECT_EQ(r.cycles, 1000u);
    EXPECT_LT(r.committed, 20000u);
}

TEST_P(CosimInvariants, AccountingIsConsistent)
{
    const CosimResult r = run(config());
    EXPECT_EQ(r.controlCycles >= r.stallCycles, true);
    EXPECT_LE(r.falsePositives, r.cycles);
    EXPECT_LE(r.minVoltage, r.maxVoltage);
    EXPECT_GT(r.meanCurrent, 0.0);
    EXPECT_GT(r.energyJ, 0.0);
}

TEST_P(CosimInvariants, ControlNeverIncreasesFaultsVsBaseline)
{
    CosimConfig cfg = config();
    cfg.scheme = ControlScheme::None;
    const CosimResult base = run(cfg);
    const CosimResult ctl = run(config());
    if (GetParam() != ControlScheme::None &&
        GetParam() != ControlScheme::AnalogSensor) {
        EXPECT_LE(ctl.lowFaults, base.lowFaults);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CosimInvariants,
    ::testing::Values(ControlScheme::None, ControlScheme::Wavelet,
                      ControlScheme::FullConvolution,
                      ControlScheme::AnalogSensor,
                      ControlScheme::PipelineDamping,
                      ControlScheme::AdaptiveWavelet));

} // namespace
} // namespace didt
