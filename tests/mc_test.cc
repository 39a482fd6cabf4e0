/**
 * @file
 * Tests for the Monte Carlo variation layer: determinism of the draw
 * seeding, byte identity of MC campaign JSON across worker counts and
 * across the batch/served paths, yield-curve shape invariants, spec
 * round-tripping of the mc_* fields, the guarantee that an MC-off
 * campaign emits exactly the pre-MC schema (no draw column, no
 * monte_carlo section, no mc_* spec members), and the group task's
 * contract: one estimate per (workload, cores) for every scale,
 * failures per cell, and a pool.task fault failing its whole group.
 */

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "obs/metrics.hh"
#include "power/variation.hh"
#include "runner/campaign.hh"
#include "runner/result_json.hh"
#include "runner/trace_repository.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "util/json.hh"
#include "verify/failpoint.hh"
#include "verify/oracle.hh"
#include "workload/profile.hh"

namespace didt
{
namespace
{

const ExperimentSetup &
sharedSetup()
{
    static const ExperimentSetup setup = makeStandardSetup();
    return setup;
}

/** A small but real Monte Carlo sweep: 2 workloads x 1 scale x 6
 *  draws, short enough for a unit test, long enough that the yield
 *  curve has structure. */
CampaignSpec
mcSpec()
{
    CampaignSpec spec;
    spec.profiles = {profileByName("gzip"), profileByName("mcf")};
    spec.impedanceScales = {1.2};
    spec.windowLength = 64;
    spec.levels = 4;
    spec.instructions = 8000;
    spec.mcDraws = 6;
    spec.mcSeed = 42;
    spec.mcSigmaR = 0.08;
    spec.mcSigmaResonance = 0.08;
    spec.mcSigmaQ = 0.05;
    return spec;
}

/** Serialize a campaign result to its canonical JSON bytes. */
std::string
resultBytes(const CampaignResult &result)
{
    std::ostringstream out;
    campaignToJson(result).write(out);
    return out.str();
}

/** Run @p spec on a fresh repository at @p jobs workers. */
CampaignResult
runFresh(const CampaignSpec &spec, std::size_t jobs)
{
    TraceRepository repo(sharedSetup());
    return runCharacterizationCampaign(sharedSetup(), spec, repo, jobs);
}

/** Unique short socket path (sun_path caps at ~107 bytes). */
std::string
testSocketPath(const char *tag)
{
    return "/tmp/didt_mc_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".sock";
}

// ---------------------------------------------------------------------------
// Draw seeding
// ---------------------------------------------------------------------------

TEST(McDraws, SeedDerivationIsDeterministicAndDistinct)
{
    const std::uint64_t a0 = deriveDrawSeed(7, 0);
    const std::uint64_t a0_again = deriveDrawSeed(7, 0);
    EXPECT_EQ(a0, a0_again);

    // Distinct draw indices and distinct campaign seeds must map to
    // distinct streams (splitmix64 is a bijection per key).
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t seed : {0ull, 7ull, 42ull})
        for (std::size_t draw = 0; draw < 16; ++draw)
            seeds.push_back(deriveDrawSeed(seed, draw));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());
}

TEST(McDraws, DrawSeedsDoNotCollideWithCoreSeeds)
{
    // The draw-seed stream carries its own tag, so draw 0 of campaign
    // seed S never equals the plain splitmix64 output another
    // subsystem would derive from S.
    EXPECT_NE(deriveDrawSeed(42, 0), 42u);
    EXPECT_NE(deriveDrawSeed(0, 0), deriveDrawSeed(1, 0));
}

TEST(McDraws, OracleVariationChecksPass)
{
    const verify::Oracle oracle(sharedSetup());
    const verify::VariationOracleReport report =
        oracle.checkVariation(profileByName("gzip"));
    EXPECT_TRUE(report.zeroSigmaConfigBitIdentical);
    EXPECT_TRUE(report.zeroSigmaVoltageBitIdentical);
    EXPECT_TRUE(report.drawDeterministic);
    EXPECT_TRUE(report.nonzeroSigmaPerturbs);
    EXPECT_TRUE(report.pass);
}

TEST(McDraws, ZeroSigmaDimensionsStayNominalIndividually)
{
    SupplyNetworkConfig base = sharedSetup().supplyBase;
    base.impedanceScale = 1.2;

    // Perturb only the resonance: R and Q must remain bit-identical
    // (the three normal draws always happen, but zero-sigma
    // dimensions never touch the field).
    SupplyVariationSpec only_f;
    only_f.sigmaResonance = 0.1;
    const SupplyNetworkConfig drawn =
        drawSupplyConfig(base, only_f, deriveDrawSeed(9, 3));
    EXPECT_EQ(drawn.dcResistance, base.dcResistance);
    EXPECT_EQ(drawn.qualityFactor, base.qualityFactor);
    EXPECT_NE(drawn.resonantHz, base.resonantHz);
}

// ---------------------------------------------------------------------------
// Campaign determinism and byte identity
// ---------------------------------------------------------------------------

TEST(McCampaign, JsonByteIdenticalAcrossJobCounts)
{
    const CampaignSpec spec = mcSpec();
    const std::string serial = resultBytes(runFresh(spec, 1));
    const std::string parallel = resultBytes(runFresh(spec, 4));
    EXPECT_EQ(serial, parallel);
}

TEST(McCampaign, SameSeedReproducesDifferentSeedDoesNot)
{
    const CampaignSpec spec = mcSpec();
    const std::string first = resultBytes(runFresh(spec, 2));
    const std::string again = resultBytes(runFresh(spec, 2));
    EXPECT_EQ(first, again);

    CampaignSpec reseeded = spec;
    reseeded.mcSeed = spec.mcSeed + 1;
    const std::string other = resultBytes(runFresh(reseeded, 2));
    EXPECT_NE(first, other);
}

TEST(McCampaign, CellsCarryDrawIndicesInnermost)
{
    const CampaignSpec spec = mcSpec();
    const CampaignResult result = runFresh(spec, 2);
    ASSERT_EQ(result.cells.size(), spec.profiles.size() *
                                       spec.impedanceScales.size() *
                                       spec.mcDraws);
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const CampaignCell &cell = result.cells[i];
        EXPECT_EQ(cell.draw, i % spec.mcDraws);
        EXPECT_FALSE(cell.failed) << cell.error;
    }
    // Draws of one group share the workload and scale; different
    // draws genuinely perturb the measured emergency statistics.
    const CampaignCell &d0 = result.cells[0];
    const CampaignCell &d1 = result.cells[1];
    EXPECT_EQ(d0.benchmark, d1.benchmark);
    EXPECT_EQ(d0.impedanceScale, d1.impedanceScale);
    EXPECT_NE(d0.measuredBelowPct + d0.measuredAbovePct,
              d1.measuredBelowPct + d1.measuredAbovePct);
}

TEST(McCampaign, YieldCurveIsMonotoneNonIncreasing)
{
    const JsonValue doc = parseJson(resultBytes(runFresh(mcSpec(), 2)));
    const JsonValue *mc = doc.find("monte_carlo");
    ASSERT_NE(mc, nullptr);
    EXPECT_EQ(mc->find("draws")->asNumber(), 6.0);
    const JsonValue *groups = mc->find("groups");
    ASSERT_NE(groups, nullptr);
    ASSERT_EQ(groups->items().size(), 2u);
    for (const JsonValue &group : groups->items()) {
        ASSERT_EQ(group.find("completed_draws")->asNumber(), 6.0);
        const JsonValue *curve = group.find("yield_curve");
        ASSERT_NE(curve, nullptr);
        ASSERT_GT(curve->items().size(), 1u);
        double previous = 1.0;
        for (const JsonValue &point : curve->items()) {
            const double frac =
                point.find("exceed_fraction")->asNumber();
            EXPECT_GE(frac, 0.0);
            EXPECT_LE(frac, previous);
            previous = frac;
        }
    }
}

TEST(McCampaign, OffSpecEmitsPreMonteCarloSchema)
{
    CampaignSpec spec = mcSpec();
    spec.mcDraws = 0;
    ASSERT_FALSE(spec.isMonteCarlo());

    const std::string bytes = resultBytes(runFresh(spec, 2));
    EXPECT_EQ(bytes.find("monte_carlo"), std::string::npos);
    EXPECT_EQ(bytes.find("\"draw\""), std::string::npos);
    EXPECT_EQ(bytes.find("mc_draws"), std::string::npos);
    EXPECT_EQ(bytes.find("mc_seed"), std::string::npos);
    EXPECT_EQ(bytes.find("mc_sigma"), std::string::npos);
}

TEST(McCampaign, SpecJsonRoundTripsMonteCarloFields)
{
    const CampaignSpec spec = mcSpec();
    CampaignSpec parsed;
    std::string error;
    ASSERT_TRUE(campaignSpecFromJson(campaignSpecToJson(spec), &parsed,
                                     &error))
        << error;
    EXPECT_EQ(parsed.mcDraws, spec.mcDraws);
    EXPECT_EQ(parsed.mcSeed, spec.mcSeed);
    EXPECT_EQ(parsed.mcSigmaR, spec.mcSigmaR);
    EXPECT_EQ(parsed.mcSigmaResonance, spec.mcSigmaResonance);
    EXPECT_EQ(parsed.mcSigmaQ, spec.mcSigmaQ);

    // And an MC-off spec round-trips to an MC-off spec.
    CampaignSpec off = spec;
    off.mcDraws = 0;
    CampaignSpec parsed_off;
    ASSERT_TRUE(campaignSpecFromJson(campaignSpecToJson(off),
                                     &parsed_off, &error))
        << error;
    EXPECT_FALSE(parsed_off.isMonteCarlo());
}

// ---------------------------------------------------------------------------
// Group tasks: one estimate per (workload, cores), per-cell faults
// ---------------------------------------------------------------------------

/** Every value field of two cells, bit for bit (wall time aside). */
void
expectSameCell(const CampaignCell &a, const CampaignCell &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.impedanceScale, b.impedanceScale);
    EXPECT_EQ(a.cores, b.cores);
    EXPECT_EQ(a.draw, b.draw);
    EXPECT_EQ(a.traceCycles, b.traceCycles);
    EXPECT_EQ(a.windows, b.windows);
    EXPECT_EQ(a.estimatedBelowPct, b.estimatedBelowPct);
    EXPECT_EQ(a.measuredBelowPct, b.measuredBelowPct);
    EXPECT_EQ(a.estimatedAbovePct, b.estimatedAbovePct);
    EXPECT_EQ(a.measuredAbovePct, b.measuredAbovePct);
    EXPECT_EQ(a.estimatedVariance, b.estimatedVariance);
    EXPECT_EQ(a.measuredVariance, b.measuredVariance);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.error, b.error);
}

/** The campaign's analysis work counters, read as deltas over a run. */
struct AnalysisWork
{
    std::uint64_t windows = 0;
    std::uint64_t samplesFiltered = 0;
};

AnalysisWork
analysisWorkOf(const CampaignSpec &spec, std::size_t jobs,
               CampaignResult *result)
{
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    const obs::Counter windows = registry.counter("analysis.windows");
    const obs::Counter samples =
        registry.counter("analysis.samples_filtered");
    const std::uint64_t windows0 = windows.total();
    const std::uint64_t samples0 = samples.total();
    *result = runFresh(spec, jobs);
    return {windows.total() - windows0, samples.total() - samples0};
}

TEST(McCampaign, AnalysisCountersCountOneEstimatePerTrace)
{
    CampaignSpec spec = mcSpec();
    spec.impedanceScales = {1.0, 1.2};
    CampaignResult serial;
    CampaignResult parallel;
    const AnalysisWork one = analysisWorkOf(spec, 1, &serial);
    const AnalysisWork four = analysisWorkOf(spec, 4, &parallel);
    EXPECT_EQ(one.windows, four.windows);
    EXPECT_EQ(one.samplesFiltered, four.samplesFiltered);

    // Each (workload, cores) trace is estimated once for every scale;
    // each draw filters it once.
    std::uint64_t trace_windows = 0;
    std::uint64_t cell_windows = 0;
    std::uint64_t cell_samples = 0;
    for (const CampaignCell &cell : serial.cells) {
        ASSERT_FALSE(cell.failed) << cell.error;
        if (cell.draw == 0 &&
            cell.impedanceScale == spec.impedanceScales.front())
            trace_windows += cell.windows;
        cell_windows += cell.windows;
        cell_samples += cell.traceCycles;
    }
    EXPECT_EQ(one.windows, trace_windows);
    EXPECT_EQ(one.windows * spec.impedanceScales.size() * spec.mcDraws,
              cell_windows);
    EXPECT_EQ(one.samplesFiltered, cell_samples);
}

/** Failpoint tests start and end with a clean registry, and skip in a
 *  build that compiles the injection sites out. */
class McFaults : public ::testing::Test
{
  protected:
    void SetUp() override
    {
#ifdef DIDT_FAILPOINTS_OFF
        GTEST_SKIP() << "built with -DDIDT_FAILPOINTS=OFF";
#endif
        verify::resetFailPoints();
    }
    void TearDown() override { verify::resetFailPoints(); }
};

TEST_F(McFaults, CellFaultOnTheEstimatingDrawFailsOnlyThatCell)
{
    // Draw 0 of the first scale would compute its trace's estimate for
    // every scale; faulted, it leaves the estimate to the next draw
    // that gets its trace, and no other cell may notice. One scale,
    // then two, where the estimate also serves the other scale's group.
    CampaignSpec two_scales = mcSpec();
    two_scales.impedanceScales = {1.0, 1.2};
    for (const CampaignSpec &spec : {mcSpec(), two_scales}) {
        const std::string key = "gzip@" +
                                jsonNumber(spec.impedanceScales.front()) +
                                "@d0";
        SCOPED_TRACE(key);
        const CampaignResult clean = runFresh(spec, 1);
        for (std::size_t jobs : {1u, 4u}) {
            SCOPED_TRACE("jobs " + std::to_string(jobs));
            verify::armFailPoint("campaign.cell",
                                 verify::TriggerPolicy::keyEquals(key));
            const CampaignResult faulted = runFresh(spec, jobs);
            verify::resetFailPoints();
            ASSERT_EQ(faulted.cells.size(), clean.cells.size());
            EXPECT_EQ(faulted.failedCells(), 1u);
            const CampaignCell &hit = faulted.cells[0];
            EXPECT_EQ(hit.benchmark, "gzip");
            EXPECT_EQ(hit.impedanceScale, spec.impedanceScales.front());
            EXPECT_EQ(hit.draw, 0u);
            EXPECT_TRUE(hit.failed);
            EXPECT_NE(hit.error.find("injected fault (campaign.cell)"),
                      std::string::npos);
            for (std::size_t i = 1; i < clean.cells.size(); ++i)
                expectSameCell(faulted.cells[i], clean.cells[i]);
        }
    }
}

TEST_F(McFaults, PoolTaskFaultFailsEveryCellOfItsGroup)
{
    // At --jobs 1 every task evaluates pool.task exactly once, in
    // submission order: the calibration builders, one regression-row
    // task per training trace, one fit task per scale, then the
    // sweep's groups. The first group task carries all of gzip's
    // draws, so all of them fail and nothing else does.
    const CampaignSpec spec = mcSpec();
    const CampaignResult clean = runFresh(spec, 1);
    const std::size_t warmup_tasks =
        2 * calibrationTraceBuilders(sharedSetup()).size() +
        spec.impedanceScales.size();
    verify::armFailPoint("pool.task",
                         verify::TriggerPolicy::nthHit(warmup_tasks + 1));
    const CampaignResult faulted = runFresh(spec, 1);
    ASSERT_EQ(faulted.cells.size(), clean.cells.size());
    EXPECT_EQ(faulted.failedCells(), spec.drawCount());
    for (std::size_t i = 0; i < faulted.cells.size(); ++i) {
        const CampaignCell &cell = faulted.cells[i];
        if (i < spec.drawCount()) {
            EXPECT_EQ(cell.benchmark, "gzip");
            EXPECT_EQ(cell.draw, i);
            EXPECT_TRUE(cell.failed);
            EXPECT_NE(cell.error.find("injected fault (pool.task)"),
                      std::string::npos)
                << cell.error;
        } else {
            expectSameCell(cell, clean.cells[i]);
        }
    }
}

// ---------------------------------------------------------------------------
// Served replay
// ---------------------------------------------------------------------------

TEST(McServe, ServedMonteCarloResultIsByteIdenticalToBatch)
{
    const CampaignSpec spec = mcSpec();

    // Reference: the batch path at --jobs 1 with a fresh repository.
    const std::string batch = resultBytes(runFresh(spec, 1));

    serve::ServerConfig config;
    config.unixPath = testSocketPath("ident");
    config.jobs = 2;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(config.unixPath, &error)) << error;
    std::string payload;
    ASSERT_TRUE(client.call(serve::characterizeRequestJson(
                                "mc1", campaignSpecToJson(spec)),
                            &payload, &error))
        << error;
    const JsonValue response = parseJson(payload);
    ASSERT_EQ(response.find("type")->asString(), "result")
        << response.dump();
    std::ostringstream served;
    response.find("result")->write(served);
    EXPECT_EQ(served.str(), batch);

    // The daemon advertises the capability it just exercised.
    std::string pong_payload;
    ASSERT_TRUE(client.call(serve::pingRequestJson("p"), &pong_payload,
                            &error))
        << error;
    const std::string &features =
        pong_payload; // raw bytes are enough for a membership check
    EXPECT_NE(features.find("\"mc\""), std::string::npos);
}

} // namespace
} // namespace didt
