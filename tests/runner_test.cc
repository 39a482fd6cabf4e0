/**
 * @file
 * Unit tests for the runner subsystem: ThreadPool exception
 * propagation and ordering, TraceRepository hit/miss accounting and
 * disk persistence, campaign result shape, concurrent runs on one
 * Executor, and the JSON document model (escaping, round-trip, strict
 * parsing).
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "obs/metrics.hh"
#include "runner/campaign.hh"
#include "runner/executor.hh"
#include "runner/plan.hh"
#include "runner/result_json.hh"
#include "runner/thread_pool.hh"
#include "runner/trace_repository.hh"

namespace didt
{
namespace
{

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsValues)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    auto a = pool.submit([] { return 7; });
    auto b = pool.submit([] { return std::string("didt"); });
    EXPECT_EQ(a.get(), 7);
    EXPECT_EQ(b.get(), "didt");
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("cell failed"); });
    auto good = pool.submit([] { return 1; });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // A throwing task must not take its worker down with it.
    EXPECT_EQ(good.get(), 1);
}

TEST(ThreadPool, ParallelForRethrowsAfterAllIterationsFinish)
{
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](std::size_t i) {
                                      ++ran;
                                      if (i == 13)
                                          throw std::runtime_error("13");
                                  }),
                 std::runtime_error);
    // Every iteration ran before the rethrow: no silently skipped work.
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<void>> pending;
    for (int i = 0; i < 50; ++i)
        pending.push_back(pool.submit([&order, i] { order.push_back(i); }));
    for (auto &f : pending)
        f.get();
    std::vector<int> expected(50);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, StressManySmallTasks)
{
    ThreadPool pool(8);
    std::atomic<long long> sum{0};
    std::vector<std::future<void>> pending;
    pending.reserve(2000);
    for (int i = 1; i <= 2000; ++i)
        pending.push_back(pool.submit([&sum, i] { sum += i; }));
    for (auto &f : pending)
        f.get();
    EXPECT_EQ(sum.load(), 2000LL * 2001 / 2);
}

TEST(ThreadPool, ResolveJobs)
{
    EXPECT_EQ(ThreadPool::resolveJobs(3), 3u);
    EXPECT_GE(ThreadPool::resolveJobs(0), 1u);
}

// ---------------------------------------------------------------------------
// TraceRepository
// ---------------------------------------------------------------------------

/** A deliberately tiny benchmark so repository tests stay fast. */
BenchmarkProfile
tinyProfile(const std::string &name, std::uint64_t seed)
{
    BenchmarkProfile prof;
    prof.name = name;
    prof.seed = seed;
    WorkloadPhase phase;
    phase.lengthInsts = 4000;
    prof.phases = {phase};
    return prof;
}

const ExperimentSetup &
sharedSetup()
{
    static const ExperimentSetup setup = makeStandardSetup();
    return setup;
}

TEST(Fingerprint, SensitiveToEveryRequestField)
{
    TraceRequest base;
    base.profile = tinyProfile("fp", 1);
    const std::uint64_t h0 = fingerprintTraceRequest(base);
    EXPECT_EQ(fingerprintTraceRequest(base), h0) << "must be stable";

    TraceRequest r = base;
    r.instructions += 1;
    EXPECT_NE(fingerprintTraceRequest(r), h0);
    r = base;
    r.seed += 1;
    EXPECT_NE(fingerprintTraceRequest(r), h0);
    r = base;
    r.trimWarmup += 1;
    EXPECT_NE(fingerprintTraceRequest(r), h0);
    r = base;
    r.profile.seed += 1;
    EXPECT_NE(fingerprintTraceRequest(r), h0);
    r = base;
    r.profile.phases[0].hotProb += 0.001;
    EXPECT_NE(fingerprintTraceRequest(r), h0);
    r = base;
    r.profile.name = "fq";
    EXPECT_NE(fingerprintTraceRequest(r), h0);
}

TEST(TraceRepository, HitAndMissAccounting)
{
    TraceRepository repo(sharedSetup());
    const BenchmarkProfile prof = tinyProfile("acct", 11);

    const auto first = repo.get(prof, 3000);
    const auto second = repo.get(prof, 3000);
    const auto other = repo.get(prof, 2000);

    EXPECT_EQ(first.get(), second.get()) << "same trace object shared";
    EXPECT_NE(first.get(), other.get());

    const TraceCacheStats stats = repo.stats();
    EXPECT_EQ(stats.lookups, 3u);
    EXPECT_EQ(stats.memoryHits, 1u);
    EXPECT_EQ(stats.simulations, 2u);
    EXPECT_EQ(stats.diskLoads, 0u);
    EXPECT_EQ(repo.residentTraces(), 2u);
}

TEST(TraceRepository, ResidentBytesGaugeRecordedWithoutBudget)
{
    TraceRepository repo(sharedSetup());
    ASSERT_EQ(repo.memoryBudgetBytes(), 0u);
    (void)repo.get(tinyProfile("gauge", 13), 3000);
    ASSERT_GT(repo.residentBytes(), 0u);
    EXPECT_EQ(obs::MetricsRegistry::global()
                  .gauge("repo.resident_bytes")
                  .last(),
              static_cast<double>(repo.residentBytes()));
}

TEST(TraceRepository, ConcurrentRequestsSimulateOnce)
{
    TraceRepository repo(sharedSetup());
    const BenchmarkProfile prof = tinyProfile("conc", 12);

    ThreadPool pool(8);
    std::vector<std::future<std::shared_ptr<const CurrentTrace>>> got;
    for (int i = 0; i < 16; ++i)
        got.push_back(
            pool.submit([&] { return repo.get(prof, 3000); }));
    const auto reference = got[0].get();
    for (auto &f : got) {
        if (f.valid()) {
            EXPECT_EQ(f.get().get(), reference.get());
        }
    }

    const TraceCacheStats stats = repo.stats();
    EXPECT_EQ(stats.lookups, 16u);
    EXPECT_EQ(stats.simulations, 1u)
        << "concurrent misses of one key must simulate exactly once";
    EXPECT_EQ(stats.memoryHits, 15u);
}

TEST(TraceRepository, DiskPersistenceRoundTrip)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "didt_repo_test")
            .string();
    std::filesystem::remove_all(dir);
    const BenchmarkProfile prof = tinyProfile("disk", 13);

    CurrentTrace simulated;
    {
        TraceRepository repo(sharedSetup(), dir);
        simulated = *repo.get(prof, 3000);
        EXPECT_EQ(repo.stats().simulations, 1u);
        EXPECT_EQ(repo.stats().diskStores, 1u);
        EXPECT_TRUE(
            std::filesystem::exists(repo.cachePath(TraceRequest{
                prof, 3000, 0, 4096})));
    }
    {
        TraceRepository repo(sharedSetup(), dir);
        const auto loaded = repo.get(prof, 3000);
        const TraceCacheStats stats = repo.stats();
        EXPECT_EQ(stats.simulations, 0u);
        EXPECT_EQ(stats.diskLoads, 1u);
        EXPECT_EQ(stats.diskStores, 0u);
        EXPECT_EQ(stats.diskCorrupt, 0u);
        EXPECT_EQ(*loaded, simulated) << "persisted trace bit-identical";
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceRepository, CorruptCacheFileIsAMiss)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "didt_repo_corrupt")
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const BenchmarkProfile prof = tinyProfile("corrupt", 14);

    TraceRepository repo(sharedSetup(), dir);
    {
        std::ofstream bad(repo.cachePath(TraceRequest{prof, 3000, 0,
                                                      4096}),
                          std::ios::binary);
        bad << "not a trace";
    }
    const auto trace = repo.get(prof, 3000);
    EXPECT_FALSE(trace->empty());
    EXPECT_EQ(repo.stats().simulations, 1u)
        << "corrupt file must fall back to simulation";
    EXPECT_EQ(repo.stats().diskCorrupt, 1u)
        << "the rejected file must be counted";
    EXPECT_EQ(repo.stats().diskStores, 1u)
        << "the corrupt file must be rewritten";
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

CampaignSpec
tinySpec()
{
    CampaignSpec spec;
    spec.profiles = {tinyProfile("cell-a", 21), tinyProfile("cell-b", 22)};
    spec.impedanceScales = {1.0, 1.4};
    spec.windowLength = 64;
    spec.levels = 4;
    spec.instructions = 6000;
    return spec;
}

TEST(Campaign, ResultShapeAndCacheReuse)
{
    const CampaignSpec spec = tinySpec();
    TraceRepository repo(sharedSetup());
    const CampaignResult result =
        runCharacterizationCampaign(sharedSetup(), spec, repo, 2);

    ASSERT_EQ(result.cells.size(), 4u);
    EXPECT_EQ(result.jobs, 2u);
    // Benchmark-major, scale-minor ordering.
    EXPECT_EQ(result.cells[0].benchmark, "cell-a");
    EXPECT_DOUBLE_EQ(result.cells[0].impedanceScale, 1.0);
    EXPECT_EQ(result.cells[1].benchmark, "cell-a");
    EXPECT_DOUBLE_EQ(result.cells[1].impedanceScale, 1.4);
    EXPECT_EQ(result.cells[2].benchmark, "cell-b");
    EXPECT_EQ(result.cells[3].benchmark, "cell-b");

    for (const CampaignCell &cell : result.cells) {
        EXPECT_GT(cell.traceCycles, spec.windowLength);
        EXPECT_GT(cell.windows, 0u);
        EXPECT_GE(cell.measuredBelowPct, 0.0);
        EXPECT_LE(cell.measuredBelowPct, 100.0);
        EXPECT_GT(cell.measuredVariance, 0.0);
        EXPECT_GT(cell.estimatedVariance, 0.0);
    }

    // The sweep shares one trace per benchmark across both scales.
    EXPECT_EQ(result.cacheStats.lookups, 4u);
    EXPECT_EQ(result.cacheStats.simulations, 2u)
        << "each benchmark simulated exactly once";
    EXPECT_EQ(result.cacheStats.memoryHits, 2u);

    // A higher target impedance strictly degrades the voltage.
    EXPECT_GT(result.cells[1].measuredVariance,
              result.cells[0].measuredVariance);
}

TEST(Campaign, CalibrateCountersCountOneRowPassForEveryScale)
{
    // calibrate.models counts the fits, one per scale; calibrate.windows
    // counts the training windows whose regression rows were extracted,
    // once for all of the scales. Work counts carry no timing, so they
    // read the same at any --jobs.
    CampaignSpec spec = tinySpec();
    spec.impedanceScales = {1.0, 1.2, 1.4};
    std::uint64_t training_windows = 0;
    for (const auto &build : calibrationTraceBuilders(sharedSetup()))
        training_windows += build().size() / spec.windowLength;
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    const obs::Counter models = registry.counter("calibrate.models");
    const obs::Counter windows = registry.counter("calibrate.windows");
    for (std::size_t jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const std::uint64_t models0 = models.total();
        const std::uint64_t windows0 = windows.total();
        TraceRepository repo(sharedSetup());
        const CampaignResult result =
            runCharacterizationCampaign(sharedSetup(), spec, repo, jobs);
        EXPECT_EQ(result.failedCells(), 0u);
        EXPECT_EQ(models.total() - models0, spec.impedanceScales.size());
        EXPECT_EQ(windows.total() - windows0, training_windows);
    }
}

/** The members of a result that depend only on its spec. */
std::string
evaluatedBytes(const CampaignResult &result)
{
    const JsonValue doc = campaignToJson(result);
    std::ostringstream out;
    for (const char *member : {"spec", "cells", "rms_estimation_error_pct"})
        doc.find(member)->write(out);
    return out.str();
}

TEST(Campaign, ConcurrentRunsOnOneExecutorMatchSoloRuns)
{
    // Two runs at once on one pool and one repository, sharing the
    // cell-a trace but not the analysis window: each result is what a
    // solo run writes, and the shared trace is simulated once.
    CampaignSpec a = tinySpec();
    CampaignSpec b = tinySpec();
    b.profiles = {tinyProfile("cell-a", 21), tinyProfile("cell-c", 23)};
    b.windowLength = 128;
    const std::vector<CampaignSpec> specs{a, b};

    std::vector<std::string> solo;
    for (const CampaignSpec &spec : specs) {
        TraceRepository repo(sharedSetup());
        solo.push_back(evaluatedBytes(
            runCharacterizationCampaign(sharedSetup(), spec, repo, 1)));
    }

    TraceRepository repo(sharedSetup());
    Executor executor(sharedSetup(), repo, 2);
    std::vector<CampaignResult> results(specs.size());
    std::vector<std::thread> callers;
    for (std::size_t i = 0; i < specs.size(); ++i)
        callers.emplace_back([&, i] {
            results[i] = executor.run(buildCampaignPlan(specs[i]));
        });
    for (std::thread &caller : callers)
        caller.join();

    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(evaluatedBytes(results[i]), solo[i]) << "spec " << i;
    EXPECT_EQ(repo.stats().simulations, 3u)
        << "cell-a, cell-b and cell-c, each simulated once";
}

TEST(Campaign, GenericCellFanOutPreservesIndexOrder)
{
    const std::vector<int> out = runCampaignCells<int>(
        100, 4, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(Campaign, GenericCellFanOutPropagatesExceptions)
{
    EXPECT_THROW(runCampaignCells<int>(10, 4,
                                       [](std::size_t i) -> int {
                                           if (i == 7)
                                               throw std::runtime_error(
                                                   "cell 7");
                                           return 0;
                                       }),
                 std::runtime_error);
}

TEST(Campaign, ValidateSpecRejectsOneBadSpecPerRule)
{
    std::string error;
    ASSERT_TRUE(validateSpec(CampaignSpec{}, &error)) << error;

    // Each case breaks exactly one rule of a default spec; the message
    // names the spec field at fault.
    const struct
    {
        const char *field;
        void (*breakRule)(CampaignSpec &);
    } cases[] = {
        {"impedance_scales", [](CampaignSpec &s) { s.impedanceScales = {}; }},
        {"impedance_scales",
         [](CampaignSpec &s) { s.impedanceScales = {1.0, 0.0}; }},
        {"impedance_scales",
         [](CampaignSpec &s) {
             s.impedanceScales = {1.0,
                                  std::numeric_limits<double>::infinity()};
         }},
        {"low_threshold",
         [](CampaignSpec &s) {
             s.lowThreshold = std::numeric_limits<double>::quiet_NaN();
         }},
        {"high_threshold",
         [](CampaignSpec &s) {
             s.highThreshold = std::numeric_limits<double>::infinity();
         }},
        {"low_threshold",
         [](CampaignSpec &s) {
             s.lowThreshold = 1.05;
             s.highThreshold = 0.9;
         }},
        {"window", [](CampaignSpec &s) { s.windowLength = 0; }},
        {"levels", [](CampaignSpec &s) { s.levels = 0; }},
        {"window", [](CampaignSpec &s) { s.levels = 9; }},
        {"window", [](CampaignSpec &s) { s.levels = 64; }},
        {"basis", [](CampaignSpec &s) { s.basis = "sym9"; }},
        {"cores", [](CampaignSpec &s) { s.coreCounts = {0}; }},
        {"cores", [](CampaignSpec &s) { s.coreCounts = {1, 1025}; }},
        {"mixes",
         [](CampaignSpec &s) {
             s.profiles = {profileByName("gzip")};
             s.mixes = {"mixed4"};
         }},
        {"l2_banks", [](CampaignSpec &s) { s.l2Banks = 0; }},
        {"l2_banks", [](CampaignSpec &s) { s.l2Banks = 6; }},
        {"l2_banks", [](CampaignSpec &s) { s.l2Banks = 2048; }},
        {"sample_detail", [](CampaignSpec &s) { s.sampleSkip = 1000; }},
        {"sample_warmup",
         [](CampaignSpec &s) {
             s.sampleDetail = 1000;
             s.sampleSkip = 100;
             s.sampleWarmup = 512;
         }},
        {"mc_draws", [](CampaignSpec &s) { s.mcDraws = 100001; }},
        {"mc_sigma", [](CampaignSpec &s) { s.mcSigmaR = -0.1; }},
        {"mc_sigma", [](CampaignSpec &s) { s.mcSigmaResonance = 1.5; }},
        {"mc_sigma", [](CampaignSpec &s) { s.mcSigmaQ = 2.0; }},
    };
    for (const auto &c : cases) {
        CampaignSpec spec;
        c.breakRule(spec);
        error.clear();
        EXPECT_FALSE(validateSpec(spec, &error)) << c.field;
        EXPECT_NE(error.find(c.field), std::string::npos)
            << c.field << ": " << error;
    }
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, EscapesControlAndSpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, StringRoundTripThroughParser)
{
    const std::string nasty = "quote\" slash\\ nl\n tab\t ctl\x02 end";
    JsonValue v(nasty);
    const JsonValue back = parseJson(v.dump());
    EXPECT_EQ(back.asString(), nasty);
}

TEST(Json, NumberRoundTripIsExact)
{
    for (double x : {0.0, -1.0, 3.0, 0.1, -2.5e-7, 1.0 / 3.0,
                     123456789.123456789, 1e15, -1e-15}) {
        const JsonValue back = parseJson(JsonValue(x).dump());
        EXPECT_EQ(back.asNumber(), x) << "value " << x;
    }
}

TEST(Json, DocumentRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", "didt \"campaign\"");
    doc.set("count", static_cast<long long>(42));
    doc.set("ratio", 0.9400000000000001);
    doc.set("ok", true);
    doc.set("missing", JsonValue());
    JsonValue arr = JsonValue::array();
    arr.push(1.0);
    arr.push("two");
    arr.push(false);
    JsonValue nested = JsonValue::object();
    nested.set("k", "v");
    arr.push(std::move(nested));
    doc.set("items", std::move(arr));

    const JsonValue back = parseJson(doc.dump());
    EXPECT_TRUE(back == doc);
    EXPECT_EQ(back.dump(), doc.dump()) << "writer is deterministic";
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_THROW(parseJson(""), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(parseJson("[1, 2"), std::runtime_error);
    EXPECT_THROW(parseJson("\"unterminated"), std::runtime_error);
    EXPECT_THROW(parseJson("\"bad \\q escape\""), std::runtime_error);
    EXPECT_THROW(parseJson("12x"), std::runtime_error);
    EXPECT_THROW(parseJson("{} trailing"), std::runtime_error);
    EXPECT_THROW(parseJson("tru"), std::runtime_error);
}

TEST(Json, CampaignDocumentShape)
{
    const CampaignSpec spec = tinySpec();
    TraceRepository repo(sharedSetup());
    const CampaignResult result =
        runCharacterizationCampaign(sharedSetup(), spec, repo, 2);

    const JsonValue doc = campaignToJson(result);
    EXPECT_EQ(doc.find("schema")->asString(), "didt-campaign-v1");
    ASSERT_NE(doc.find("spec"), nullptr);
    EXPECT_EQ(doc.find("spec")->find("benchmarks")->items().size(), 2u);
    ASSERT_NE(doc.find("cache"), nullptr);
    EXPECT_EQ(doc.find("cache")->find("simulations")->asNumber(), 2.0);
    ASSERT_NE(doc.find("cells"), nullptr);
    EXPECT_EQ(doc.find("cells")->items().size(), 4u);
    const JsonValue &cell = doc.find("cells")->items()[0];
    EXPECT_EQ(cell.find("benchmark")->asString(), "cell-a");
    ASSERT_NE(cell.find("measured_below_pct"), nullptr);
    EXPECT_EQ(doc.find("timing"), nullptr)
        << "timing omitted by default for byte-stable output";

    // With timing requested the section appears.
    const JsonValue timed = campaignToJson(result, true);
    ASSERT_NE(timed.find("timing"), nullptr);
    EXPECT_EQ(timed.find("timing")->find("cell_ms")->items().size(), 4u);

    // And the whole document survives a parse round-trip.
    EXPECT_TRUE(parseJson(doc.dump()) == doc);
}

} // namespace
} // namespace didt
