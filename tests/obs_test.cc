/**
 * @file
 * Tests for the observability layer: striped metric aggregation under
 * concurrency, histogram bucket boundaries, scoped-timer spans, the
 * deterministic snapshot JSON, and the invariant that metrics never
 * change campaign result bytes.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "didt/didt.hh"

using namespace didt;

namespace
{

/** A small campaign spec shared by the determinism tests. */
CampaignSpec
tinySpec()
{
    CampaignSpec spec;
    const auto &all = spec2000Profiles();
    spec.profiles.assign(all.begin(), all.begin() + 2);
    spec.impedanceScales = {1.0, 1.2};
    spec.windowLength = 128;
    spec.levels = 6;
    spec.instructions = 20000;
    return spec;
}

} // namespace

TEST(MetricsRegistry, CounterAggregatesAcrossThreads)
{
    obs::MetricsRegistry registry;
    obs::Counter counter = registry.counter("test.hits");

    constexpr int kThreads = 8;
    constexpr int kAddsPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (int i = 0; i < kAddsPerThread; ++i)
                counter.add(1);
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(counter.total(),
              static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(MetricsRegistry, HistogramAggregatesAcrossThreads)
{
    obs::MetricsRegistry registry;
    obs::Histogram histogram =
        registry.histogram("test.latency", {1.0, 10.0, 100.0});

    constexpr int kThreads = 6;
    constexpr int kObsPerThread = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&histogram, t] {
            for (int i = 0; i < kObsPerThread; ++i)
                histogram.observe(static_cast<double>(t) + 1.0);
        });
    }
    for (std::thread &t : threads)
        t.join();

    const obs::HistogramSnapshot snap = histogram.snapshot();
    EXPECT_EQ(snap.count,
              static_cast<std::uint64_t>(kThreads) * kObsPerThread);
    // Serial total: sum over t of (t+1)*kObsPerThread.
    double expected_sum = 0.0;
    for (int t = 0; t < kThreads; ++t)
        expected_sum += (t + 1.0) * kObsPerThread;
    EXPECT_DOUBLE_EQ(snap.sum, expected_sum);
    EXPECT_DOUBLE_EQ(snap.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(kThreads));
}

TEST(MetricsRegistry, HandlesShareStateByName)
{
    obs::MetricsRegistry registry;
    obs::Counter a = registry.counter("test.shared");
    obs::Counter b = registry.counter("test.shared");
    a.add(3);
    b.add(4);
    EXPECT_EQ(a.total(), 7u);
    EXPECT_EQ(b.total(), 7u);
}

TEST(MetricsRegistry, GaugeTracksLastAndMax)
{
    obs::MetricsRegistry registry;
    obs::Gauge gauge = registry.gauge("test.depth");
    gauge.record(5.0);
    gauge.record(12.0);
    gauge.record(3.0);
    EXPECT_DOUBLE_EQ(gauge.last(), 3.0);
    EXPECT_DOUBLE_EQ(gauge.max(), 12.0);
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandles)
{
    obs::MetricsRegistry registry;
    obs::Counter counter = registry.counter("test.count");
    obs::Histogram histogram = registry.histogram("test.h", {1.0});
    counter.add(5);
    histogram.observe(0.5);
    registry.reset();
    EXPECT_EQ(counter.total(), 0u);
    EXPECT_EQ(histogram.snapshot().count, 0u);
    counter.add(2);
    EXPECT_EQ(counter.total(), 2u);
}

TEST(MetricsRegistry, DefaultHandlesNoOp)
{
    obs::Counter counter;
    obs::Gauge gauge;
    obs::Histogram histogram;
    counter.add(1);
    gauge.record(1.0);
    histogram.observe(1.0);
    EXPECT_EQ(counter.total(), 0u);
    EXPECT_FALSE(counter);
    EXPECT_EQ(histogram.snapshot().count, 0u);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperEdges)
{
    obs::MetricsRegistry registry;
    obs::Histogram histogram =
        registry.histogram("test.edges", {1.0, 2.0, 5.0});

    histogram.observe(0.5); // bucket 0
    histogram.observe(1.0); // bucket 0 (inclusive upper edge)
    histogram.observe(1.5); // bucket 1
    histogram.observe(2.0); // bucket 1
    histogram.observe(5.0); // bucket 2
    histogram.observe(7.0); // bucket 3 (overflow)

    const obs::HistogramSnapshot snap = histogram.snapshot();
    ASSERT_EQ(snap.counts.size(), 4u);
    EXPECT_EQ(snap.counts[0], 2u);
    EXPECT_EQ(snap.counts[1], 2u);
    EXPECT_EQ(snap.counts[2], 1u);
    EXPECT_EQ(snap.counts[3], 1u);
    EXPECT_EQ(snap.count, 6u);
    EXPECT_DOUBLE_EQ(snap.min, 0.5);
    EXPECT_DOUBLE_EQ(snap.max, 7.0);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets)
{
    obs::MetricsRegistry registry;
    obs::Histogram histogram =
        registry.histogram("test.q", {10.0, 20.0});
    for (int i = 0; i < 100; ++i)
        histogram.observe(5.0); // all in bucket [0, 10]
    const obs::HistogramSnapshot snap = histogram.snapshot();
    const double p50 = snap.quantile(0.5);
    EXPECT_GE(p50, 0.0);
    EXPECT_LE(p50, 10.0);
}

TEST(Histogram, QuantilesStayWithinObservedRange)
{
    // All samples sit low in one wide bucket, (1, 1000]: interpolating
    // to the bucket's bounds would put the median near 500.
    obs::MetricsRegistry registry;
    obs::Histogram histogram =
        registry.histogram("test.wide", {1.0, 1000.0});
    for (double v : {2.0, 3.0, 4.0, 5.0})
        histogram.observe(v);
    const obs::HistogramSnapshot snap = histogram.snapshot();
    for (int i = 0; i <= 20; ++i) {
        const double q = i / 20.0;
        EXPECT_GE(snap.quantile(q), snap.min) << "q " << q;
        EXPECT_LE(snap.quantile(q), snap.max) << "q " << q;
    }
    EXPECT_DOUBLE_EQ(snap.quantile(0.0), 2.0);
    EXPECT_DOUBLE_EQ(snap.quantile(1.0), 5.0);
}

TEST(ScopedTimer, RecordsIntoHistogram)
{
    obs::MetricsRegistry registry;
    obs::Histogram histogram = registry.histogram("test.span_ms");
    {
        obs::ScopedTimer timer("unit", histogram);
    }
    EXPECT_EQ(histogram.snapshot().count, 1u);
}

TEST(ScopedTimer, NestedSpansLandInSink)
{
    obs::TraceEventSink sink;
    sink.setEnabled(true);
    {
        obs::ScopedTimer outer("outer", obs::Histogram{}, &sink);
        {
            obs::ScopedTimer inner("inner", obs::Histogram{}, &sink);
        }
    }
    const std::vector<obs::TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), 2u);
    // Inner scope exits first, so it is recorded first.
    EXPECT_EQ(events[0].name, "inner");
    EXPECT_EQ(events[1].name, "outer");
    // The outer span must fully contain the inner one.
    EXPECT_LE(events[1].startUs, events[0].startUs);
    EXPECT_GE(events[1].startUs + events[1].durationUs,
              events[0].startUs + events[0].durationUs);
}

TEST(ScopedTimer, DisabledSinkRecordsNothing)
{
    obs::TraceEventSink sink;
    {
        obs::ScopedTimer timer("ignored", obs::Histogram{}, &sink);
    }
    EXPECT_EQ(sink.eventCount(), 0u);
}

TEST(MetricsSnapshot, JsonGolden)
{
    obs::MetricsRegistry registry;
    registry.counter("b.count").add(3);
    registry.gauge("c.depth").record(2.5);
    obs::Histogram histogram = registry.histogram("a.lat_ms", {1.0, 2.0});
    histogram.observe(0.5);
    histogram.observe(1.5);

    const std::string golden = R"({
  "schema": "didt-metrics-v1",
  "metrics": [
    {
      "name": "a.lat_ms",
      "kind": "histogram",
      "count": 2,
      "sum": 2,
      "min": 0.5,
      "max": 1.5,
      "mean": 1,
      "p50": 1,
      "p95": 1.45,
      "bounds": [
        1,
        2
      ],
      "buckets": [
        1,
        1,
        0
      ]
    },
    {
      "name": "b.count",
      "kind": "counter",
      "value": 3
    },
    {
      "name": "c.depth",
      "kind": "gauge",
      "value": 2.5,
      "max": 2.5
    }
  ]
})";
    EXPECT_EQ(registry.snapshot().toJson().dump(), golden);
}

TEST(MetricsSnapshot, DiffSubtractsCountersAndHistograms)
{
    obs::MetricsRegistry registry;
    obs::Counter counter = registry.counter("d.count");
    obs::Gauge gauge = registry.gauge("d.depth");
    obs::Histogram histogram = registry.histogram("d.ms", {1.0, 2.0});
    counter.add(3);
    gauge.record(7.0);
    histogram.observe(0.5);
    const obs::MetricsSnapshot before = registry.snapshot();

    counter.add(4);
    gauge.record(2.0);
    histogram.observe(1.5);
    histogram.observe(1.7);
    registry.counter("d.new").add(1); // born between snapshots
    const obs::MetricsSnapshot after = registry.snapshot();

    const obs::MetricsSnapshot delta = diffSnapshots(before, after);
    const obs::MetricSnapshot *dc = delta.find("d.count");
    ASSERT_NE(dc, nullptr);
    EXPECT_DOUBLE_EQ(dc->value, 4.0);
    // Gauges are instantaneous: the delta carries the current value.
    const obs::MetricSnapshot *dg = delta.find("d.depth");
    ASSERT_NE(dg, nullptr);
    EXPECT_DOUBLE_EQ(dg->value, 2.0);
    const obs::MetricSnapshot *dh = delta.find("d.ms");
    ASSERT_NE(dh, nullptr);
    EXPECT_EQ(dh->histogram.count, 2u);
    EXPECT_DOUBLE_EQ(dh->histogram.sum, 3.2);
    ASSERT_EQ(dh->histogram.counts.size(), 3u);
    EXPECT_EQ(dh->histogram.counts[0], 0u);
    EXPECT_EQ(dh->histogram.counts[1], 2u);
    // A metric absent from the previous snapshot passes through whole.
    const obs::MetricSnapshot *dn = delta.find("d.new");
    ASSERT_NE(dn, nullptr);
    EXPECT_DOUBLE_EQ(dn->value, 1.0);
}

TEST(ScopedTimer, NestedSpansLinkParentIds)
{
    obs::TraceEventSink sink;
    sink.setEnabled(true);
    {
        obs::ScopedTimer outer("outer", obs::Histogram{}, &sink);
        {
            obs::ScopedTimer inner("inner", obs::Histogram{}, &sink);
        }
    }
    const std::vector<obs::TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), 2u);
    const obs::TraceEvent &inner = events[0];
    const obs::TraceEvent &outer = events[1];
    EXPECT_NE(outer.spanId, 0u);
    EXPECT_NE(inner.spanId, 0u);
    EXPECT_NE(inner.spanId, outer.spanId);
    EXPECT_EQ(inner.parentId, outer.spanId);
    // No enclosing ScopedTraceContext: the outer span is a root.
    EXPECT_EQ(outer.parentId, 0u);
}

TEST(TraceContext, PropagatesAcrossThreads)
{
    obs::TraceEventSink sink;
    sink.setEnabled(true);
    {
        obs::ScopedTraceContext request({0, "req-42"});
        obs::ScopedTimer root("request", obs::Histogram{}, &sink);
        // Capture on the dispatching thread, re-apply in the worker —
        // exactly what the executor pool does for cell tasks.
        const obs::TraceContext ctx = obs::currentTraceContext();
        std::thread worker([&ctx, &sink] {
            obs::ScopedTraceContext scope(ctx);
            obs::ScopedTimer span("cell", obs::Histogram{}, &sink);
        });
        worker.join();
    }
    const std::vector<obs::TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), 2u);
    const obs::TraceEvent &cell = events[0];
    const obs::TraceEvent &root = events[1];
    EXPECT_EQ(root.name, "request");
    EXPECT_EQ(root.requestId, "req-42");
    EXPECT_EQ(cell.name, "cell");
    EXPECT_EQ(cell.requestId, "req-42");
    // The worker-side span nests under the request's root span even
    // though it was recorded on a different thread.
    EXPECT_EQ(cell.parentId, root.spanId);
}

TEST(TraceContext, RestoredOnScopeExit)
{
    const obs::TraceContext &outer = obs::currentTraceContext();
    EXPECT_EQ(outer.requestId, "");
    {
        obs::ScopedTraceContext scope({7, "inner-req"});
        EXPECT_EQ(obs::currentTraceContext().parentSpan, 7u);
        EXPECT_EQ(obs::currentTraceContext().requestId, "inner-req");
    }
    EXPECT_EQ(obs::currentTraceContext().parentSpan, 0u);
    EXPECT_EQ(obs::currentTraceContext().requestId, "");
}

TEST(ScopedTimer, LabelsAreInterned)
{
    const std::string &a = obs::internSpanLabel("cell gzip@1.0");
    std::string dynamic = "cell gzip@";
    dynamic += "1.0";
    const std::string &b = obs::internSpanLabel(dynamic);
    EXPECT_EQ(&a, &b); // same table node: no per-span allocation
}

TEST(Prometheus, TextExpositionRendersAllKinds)
{
    obs::MetricsRegistry registry;
    registry.counter("p.requests").add(5);
    registry.gauge("p.depth").record(2.0);
    obs::Histogram histogram = registry.histogram("p.ms", {1.0, 2.0});
    histogram.observe(0.5);
    histogram.observe(1.5);
    const std::string text =
        obs::prometheusText(registry.snapshot());

    EXPECT_NE(text.find("# TYPE didt_p_requests_total counter\n"
                        "didt_p_requests_total 5\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE didt_p_depth gauge\ndidt_p_depth 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE didt_p_ms histogram\n"),
              std::string::npos);
    // Buckets are cumulative; +Inf equals the observation count.
    EXPECT_NE(text.find("didt_p_ms_bucket{le=\"1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("didt_p_ms_bucket{le=\"2\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("didt_p_ms_bucket{le=\"+Inf\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("didt_p_ms_count 2\n"), std::string::npos);
    EXPECT_NE(text.find("didt_p_ms_sum 2\n"), std::string::npos);
}

TEST(TraceEventSink, ChromeTraceCarriesSpanArgs)
{
    obs::TraceEventSink sink;
    sink.setEnabled(true);
    {
        obs::ScopedTraceContext scope({0, "req-7"});
        obs::ScopedTimer timer("work", obs::Histogram{}, &sink);
    }
    const std::string path =
        testing::TempDir() + "obs_trace_args_test.json";
    sink.writeChromeTrace(path);
    const JsonValue doc = readJsonFile(path);
    const JsonValue &event = doc.find("traceEvents")->items()[0];
    const JsonValue *args = event.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_GT(args->find("span")->asNumber(), 0.0);
    EXPECT_EQ(args->find("request")->asString(), "req-7");
}

TEST(MetricsSnapshot, JsonRoundTripsThroughParser)
{
    obs::MetricsRegistry registry;
    registry.counter("x.events").add(41);
    registry.histogram("y.ms").observe(3.0);
    const JsonValue doc = registry.snapshot().toJson();
    const JsonValue reparsed = parseJson(doc.dump());
    EXPECT_EQ(doc, reparsed);
}

TEST(MetricsSnapshot, FindLocatesMetrics)
{
    obs::MetricsRegistry registry;
    registry.counter("k.n").add(9);
    const obs::MetricsSnapshot snap = registry.snapshot();
    const obs::MetricSnapshot *m = snap.find("k.n");
    ASSERT_NE(m, nullptr);
    EXPECT_DOUBLE_EQ(m->value, 9.0);
    EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(TraceEventSink, ChromeTraceIsValidJson)
{
    obs::TraceEventSink sink;
    sink.setEnabled(true);
    {
        obs::ScopedTimer timer("phase", obs::Histogram{}, &sink, "test");
    }
    const std::string path =
        testing::TempDir() + "obs_trace_test.json";
    sink.writeChromeTrace(path);
    const JsonValue doc = readJsonFile(path);
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items().size(), 1u);
    const JsonValue &event = events->items()[0];
    EXPECT_EQ(event.find("name")->asString(), "phase");
    EXPECT_EQ(event.find("cat")->asString(), "test");
    EXPECT_EQ(event.find("ph")->asString(), "X");
    EXPECT_GE(event.find("dur")->asNumber(), 0.0);
}

TEST(ObsDeterminism, MetricsDoNotChangeCampaignBytes)
{
    const ExperimentSetup setup = makeStandardSetup();
    const CampaignSpec spec = tinySpec();

    obs::setMetricsEnabled(false);
    TraceRepository repo_off(setup);
    const std::string off =
        campaignToJson(
            runCharacterizationCampaign(setup, spec, repo_off, 1), false)
            .dump();

    obs::setMetricsEnabled(true);
    obs::TraceEventSink::global().setEnabled(true);
    TraceRepository repo_on(setup);
    const std::string on =
        campaignToJson(
            runCharacterizationCampaign(setup, spec, repo_on, 4), false)
            .dump();
    obs::TraceEventSink::global().setEnabled(false);
    obs::TraceEventSink::global().clear();

    EXPECT_EQ(off, on);
    EXPECT_GT(obs::MetricsRegistry::global()
                  .snapshot()
                  .metrics.size(),
              0u);
}
