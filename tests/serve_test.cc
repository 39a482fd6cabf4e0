/**
 * @file
 * Tests for the didt_serve subsystem: the frame codec (golden bytes,
 * incremental decode, strict rejection of malformed/oversized input),
 * the didt-serve-v1 request schema, and the live daemon —
 * batch-vs-service byte identity and work counts, queue-full
 * backpressure, shared-cache single-flight across concurrent clients,
 * and fault injection on the socket paths (faults become per-request
 * errors, never daemon crashes).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "obs/metrics.hh"
#include "runner/campaign.hh"
#include "runner/result_json.hh"
#include "runner/trace_repository.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "verify/failpoint.hh"
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

/** A small but real spec (wire-expressible profile names). */
CampaignSpec
smallSpec()
{
    CampaignSpec spec;
    spec.profiles = {profileByName("gzip"), profileByName("mcf")};
    spec.impedanceScales = {1.0, 1.2};
    spec.windowLength = 64;
    spec.levels = 4;
    spec.instructions = 8000;
    return spec;
}

/** Unique short socket path (sun_path caps at ~107 bytes). */
std::string
testSocketPath(const char *tag)
{
    return "/tmp/didt_serve_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".sock";
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(Frame, GoldenEncoding)
{
    const std::string frame = serve::encodeFrame("hi");
    // 12-byte header: "DSRV", version 1 LE, reserved 0, length 2 LE.
    const char expected[] = {'D',  'S',  'R',  'V',  0x01, 0x00, 0x00,
                             0x00, 0x02, 0x00, 0x00, 0x00, 'h',  'i'};
    ASSERT_EQ(frame.size(), sizeof(expected));
    EXPECT_EQ(0, std::memcmp(frame.data(), expected, sizeof(expected)));
}

TEST(Frame, DecodeRoundTrip)
{
    for (const std::string &payload :
         {std::string(), std::string("x"),
          std::string("{\"type\": \"ping\"}"),
          std::string(100000, 'z')}) {
        const std::string frame = serve::encodeFrame(payload);
        std::string out;
        std::size_t consumed = 0;
        EXPECT_EQ(serve::decodeFrame(frame.data(), frame.size(), &out,
                                     &consumed),
                  serve::FrameStatus::Ok);
        EXPECT_EQ(out, payload);
        EXPECT_EQ(consumed, serve::kFrameHeaderBytes + payload.size());
    }
}

TEST(Frame, DecodeLeavesTrailingBytes)
{
    const std::string two =
        serve::encodeFrame("first") + serve::encodeFrame("second");
    std::string payload;
    std::size_t consumed = 0;
    ASSERT_EQ(serve::decodeFrame(two.data(), two.size(), &payload,
                                 &consumed),
              serve::FrameStatus::Ok);
    EXPECT_EQ(payload, "first");
    ASSERT_LT(consumed, two.size());
    ASSERT_EQ(serve::decodeFrame(two.data() + consumed,
                                 two.size() - consumed, &payload,
                                 &consumed),
              serve::FrameStatus::Ok);
    EXPECT_EQ(payload, "second");
}

TEST(Frame, IncompletePrefixNeedsMore)
{
    const std::string frame = serve::encodeFrame("payload");
    // Every strict prefix — partial header and partial payload alike.
    for (std::size_t len = 0; len < frame.size(); ++len) {
        std::string payload;
        std::size_t consumed = 99;
        EXPECT_EQ(serve::decodeFrame(frame.data(), len, &payload,
                                     &consumed),
                  serve::FrameStatus::NeedMore)
            << "prefix length " << len;
        EXPECT_EQ(consumed, 0u);
    }
}

TEST(Frame, MalformedHeaderRejected)
{
    std::string frame = serve::encodeFrame("ok");
    std::string payload;
    std::size_t consumed = 0;
    std::string error;

    std::string bad_magic = frame;
    bad_magic[0] = 'X';
    EXPECT_EQ(serve::decodeFrame(bad_magic.data(), bad_magic.size(),
                                 &payload, &consumed,
                                 serve::kDefaultMaxFrameBytes, &error),
              serve::FrameStatus::Malformed);
    EXPECT_NE(error.find("magic"), std::string::npos) << error;

    std::string bad_version = frame;
    bad_version[4] = 0x7f;
    EXPECT_EQ(serve::decodeFrame(bad_version.data(), bad_version.size(),
                                 &payload, &consumed),
              serve::FrameStatus::Malformed);

    std::string bad_reserved = frame;
    bad_reserved[6] = 0x01;
    EXPECT_EQ(serve::decodeFrame(bad_reserved.data(),
                                 bad_reserved.size(), &payload,
                                 &consumed),
              serve::FrameStatus::Malformed);
}

TEST(Frame, OversizedPayloadRejected)
{
    const std::string frame = serve::encodeFrame(std::string(64, 'a'));
    std::string payload;
    std::size_t consumed = 0;
    // The limit is enforced from the header alone: a 12-byte prefix is
    // already enough to reject, so a hostile length can never force a
    // large allocation.
    EXPECT_EQ(serve::decodeFrame(frame.data(),
                                 serve::kFrameHeaderBytes, &payload,
                                 &consumed, 63),
              serve::FrameStatus::Oversized);
}

TEST(Frame, StatusNamesAreStable)
{
    EXPECT_STREQ(serve::frameStatusName(serve::FrameStatus::Ok), "ok");
    EXPECT_STREQ(serve::frameStatusName(serve::FrameStatus::Oversized),
                 "oversized");
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(Protocol, CharacterizeRequestRoundTrip)
{
    const CampaignSpec spec = smallSpec();
    const std::string payload = serve::characterizeRequestJson(
        "req-7", campaignSpecToJson(spec));
    serve::Request request;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(payload, &request, &error)) << error;
    EXPECT_EQ(request.type, serve::RequestType::Characterize);
    EXPECT_EQ(request.id, "req-7");
    ASSERT_EQ(request.spec.profiles.size(), 2u);
    EXPECT_EQ(request.spec.profiles[0].name, "gzip");
    EXPECT_EQ(request.spec.profiles[1].name, "mcf");
    EXPECT_EQ(request.spec.impedanceScales,
              (std::vector<double>{1.0, 1.2}));
    EXPECT_EQ(request.spec.windowLength, 64u);
    EXPECT_EQ(request.spec.instructions, 8000u);
}

TEST(Protocol, RejectsBadRequests)
{
    serve::Request request;
    std::string error;
    // Bad JSON.
    EXPECT_FALSE(serve::parseRequest("{nope", &request, &error));
    // Wrong schema marker.
    EXPECT_FALSE(serve::parseRequest(
        "{\"schema\": \"didt-serve-v2\", \"type\": \"ping\"}", &request,
        &error));
    // Unknown type.
    EXPECT_FALSE(serve::parseRequest(
        "{\"schema\": \"didt-serve-v1\", \"type\": \"reboot\"}",
        &request, &error));
    // Invalid spec (unknown benchmark name).
    EXPECT_FALSE(serve::parseRequest(
        "{\"schema\": \"didt-serve-v1\", \"type\": \"characterize\", "
        "\"spec\": {\"benchmarks\": [\"not-a-spec2000-name\"]}}",
        &request, &error));
    EXPECT_NE(error.find("benchmark"), std::string::npos) << error;
    // A count too large for its field.
    EXPECT_FALSE(serve::parseRequest(
        "{\"schema\": \"didt-serve-v1\", \"type\": \"characterize\", "
        "\"spec\": {\"levels\": 1e30}}",
        &request, &error));
    EXPECT_NE(error.find("levels"), std::string::npos) << error;
}

TEST(Protocol, ErrorCodeNames)
{
    EXPECT_STREQ(serve::errorCodeName(serve::ErrorCode::BadRequest),
                 "bad_request");
    EXPECT_STREQ(serve::errorCodeName(serve::ErrorCode::QueueFull),
                 "queue_full");
    EXPECT_STREQ(serve::errorCodeName(serve::ErrorCode::ShuttingDown),
                 "shutting_down");
    EXPECT_STREQ(serve::errorCodeName(serve::ErrorCode::Internal),
                 "internal");
}

TEST(Protocol, WatchAndEventsRequestsRoundTrip)
{
    serve::Request request;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(
        serve::watchRequestJson("w1", 250.0, 4), &request, &error))
        << error;
    EXPECT_EQ(request.type, serve::RequestType::Watch);
    EXPECT_EQ(request.id, "w1");
    EXPECT_DOUBLE_EQ(request.watchIntervalMs, 250.0);
    EXPECT_EQ(request.watchCount, 4u);

    ASSERT_TRUE(serve::parseRequest(
        serve::eventsRequestJson("e1", 17, 5), &request, &error))
        << error;
    EXPECT_EQ(request.type, serve::RequestType::Events);
    EXPECT_EQ(request.eventsAfter, 17u);
    EXPECT_EQ(request.eventsLimit, 5u);

    // Sub-10ms watch periods are rejected (they would busy-spin the
    // daemon), as are non-numeric ones.
    EXPECT_FALSE(serve::parseRequest(
        "{\"schema\": \"didt-serve-v1\", \"type\": \"watch\", "
        "\"interval_ms\": 1}",
        &request, &error));
}

TEST(Protocol, StatsRequestNegotiatesPrometheusFormat)
{
    serve::Request request;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(serve::statsRequestJson("s", true),
                                    &request, &error))
        << error;
    EXPECT_TRUE(request.wantPrometheus);
    ASSERT_TRUE(serve::parseRequest(serve::statsRequestJson("s"),
                                    &request, &error))
        << error;
    EXPECT_FALSE(request.wantPrometheus);
}

// ---------------------------------------------------------------------------
// Event log
// ---------------------------------------------------------------------------

TEST(EventLog, RingDropsOldestAndCountsDrops)
{
    obs::EventLog log(3);
    for (int i = 1; i <= 5; ++i)
        log.append("type" + std::to_string(i));
    EXPECT_EQ(log.appended(), 5u);
    EXPECT_EQ(log.dropped(), 2u);
    EXPECT_EQ(log.size(), 3u);

    const obs::EventLog::Query all = log.since(0);
    ASSERT_EQ(all.events.size(), 3u);
    EXPECT_EQ(all.events[0].seq, 3u);
    EXPECT_EQ(all.events[0].type, "type3");
    EXPECT_EQ(all.events[2].seq, 5u);
    EXPECT_EQ(all.dropped, 2u);
    EXPECT_EQ(all.next, 5u);
}

TEST(EventLog, SinceCursorAndLimitPaginate)
{
    obs::EventLog log(8);
    for (int i = 0; i < 6; ++i) {
        std::string detail = "d";
        detail += std::to_string(i);
        log.append("t", detail);
    }
    const obs::EventLog::Query page1 = log.since(0, 2);
    ASSERT_EQ(page1.events.size(), 2u);
    EXPECT_EQ(page1.events[0].seq, 1u);
    EXPECT_EQ(page1.next, 2u);
    const obs::EventLog::Query page2 = log.since(page1.next, 2);
    ASSERT_EQ(page2.events.size(), 2u);
    EXPECT_EQ(page2.events[0].seq, 3u);
    // Past the end: empty page, cursor unchanged.
    const obs::EventLog::Query done = log.since(6);
    EXPECT_TRUE(done.events.empty());
    EXPECT_EQ(done.next, 6u);
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/** Parse a response payload, asserting it is didt-serve-v1. */
JsonValue
parseResponse(const std::string &payload)
{
    const JsonValue doc = parseJson(payload);
    EXPECT_EQ(doc.find("schema")->asString(), "didt-serve-v1");
    return doc;
}

/** One blocking request/response against a running server. */
std::string
callServer(const std::string &socket_path, const std::string &request)
{
    serve::Client client;
    std::string error;
    EXPECT_TRUE(client.connectUnix(socket_path, &error)) << error;
    std::string response;
    EXPECT_TRUE(client.call(request, &response, &error)) << error;
    return response;
}

TEST(Server, PingAndStatsOverUnixSocket)
{
    serve::ServerConfig config;
    config.unixPath = testSocketPath("ping");
    config.jobs = 1;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const JsonValue pong =
        parseResponse(callServer(config.unixPath,
                                 serve::pingRequestJson("p1")));
    EXPECT_EQ(pong.find("type")->asString(), "pong");
    EXPECT_EQ(pong.find("id")->asString(), "p1");

    const JsonValue stats =
        parseResponse(callServer(config.unixPath,
                                 serve::statsRequestJson("")));
    EXPECT_EQ(stats.find("type")->asString(), "stats");
    EXPECT_GE(stats.find("stats")->find("requests")->asNumber(), 1.0);

    server.requestStop();
    server.wait();
    // The drained daemon removed its socket: connecting again fails.
    serve::Client client;
    EXPECT_FALSE(client.connectUnix(config.unixPath, &error));
}

TEST(Server, PingOverEphemeralTcpPort)
{
    serve::ServerConfig config;
    config.tcpPort = 0;
    config.jobs = 1;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_GT(server.tcpPort(), 0);

    serve::Client client;
    ASSERT_TRUE(client.connectTcp("127.0.0.1", server.tcpPort(),
                                  &error))
        << error;
    std::string response;
    ASSERT_TRUE(client.call(serve::pingRequestJson("tcp"), &response,
                            &error))
        << error;
    EXPECT_EQ(parseResponse(response).find("type")->asString(), "pong");
}

/** Totals of the work counters, which carry no timing. */
std::vector<std::uint64_t>
workCounts()
{
    std::vector<std::uint64_t> totals;
    for (const char *name : {"analysis.windows", "analysis.samples_filtered",
                             "calibrate.models", "calibrate.windows"})
        totals.push_back(
            obs::MetricsRegistry::global().counter(name).total());
    return totals;
}

/** workCounts() minus @p before. */
std::vector<std::uint64_t>
workSince(const std::vector<std::uint64_t> &before)
{
    std::vector<std::uint64_t> delta = workCounts();
    for (std::size_t i = 0; i < delta.size(); ++i)
        delta[i] -= before[i];
    return delta;
}

TEST(Server, ServedResultIsByteIdenticalToBatchCampaign)
{
    // The second spec repeats a benchmark and a scale: its cache
    // section counts every one of its cells' lookups, as the batch
    // run does.
    CampaignSpec repeated = smallSpec();
    repeated.profiles = {profileByName("gzip"), profileByName("mcf"),
                         profileByName("gzip")};
    repeated.impedanceScales = {1.0, 1.2, 1.0};
    const std::vector<CampaignSpec> specs{smallSpec(), repeated};
    for (std::size_t si = 0; si < specs.size(); ++si) {
        SCOPED_TRACE("spec " + std::to_string(si));
        const CampaignSpec &spec = specs[si];
        // Reference: the batch path at --jobs 1 with a fresh repository.
        const std::vector<std::uint64_t> batch_start = workCounts();
        TraceRepository batch_repo(sharedSetup());
        const CampaignResult batch = runCharacterizationCampaign(
            sharedSetup(), spec, batch_repo, 1);
        const std::vector<std::uint64_t> batch_work =
            workSince(batch_start);
        std::ostringstream batch_json;
        campaignToJson(batch).write(batch_json);

        // Service path: a fresh daemon per spec, a different job count.
        serve::ServerConfig config;
        config.unixPath = testSocketPath("ident");
        config.jobs = 2;
        serve::Server server(sharedSetup(), config);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;

        const std::vector<std::uint64_t> served_start = workCounts();
        const JsonValue response = parseResponse(
            callServer(config.unixPath,
                       serve::characterizeRequestJson(
                           "c1", campaignSpecToJson(spec))));
        ASSERT_EQ(response.find("type")->asString(), "result")
            << response.dump();
        std::ostringstream served_json;
        response.find("result")->write(served_json);
        EXPECT_EQ(served_json.str(), batch_json.str());
        // Both paths estimate, filter and calibrate the same work.
        EXPECT_EQ(workSince(served_start), batch_work);
    }
}

TEST(Server, ZeroCapacityQueueRejectsWithTypedBackpressure)
{
    serve::ServerConfig config;
    config.unixPath = testSocketPath("full");
    config.jobs = 1;
    config.maxQueue = 0;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const JsonValue response = parseResponse(
        callServer(config.unixPath,
                   serve::characterizeRequestJson(
                       "q1", campaignSpecToJson(smallSpec()))));
    ASSERT_EQ(response.find("type")->asString(), "error");
    EXPECT_EQ(response.find("error")->find("code")->asString(),
              "queue_full");
    EXPECT_EQ(response.find("id")->asString(), "q1");
    server.requestStop();
    server.wait();

    // With room for one request in flight, requests sent one after the
    // other on one connection are all admitted: each answer releases
    // its slot for the next.
    config.maxQueue = 1;
    serve::Server one(sharedSetup(), config);
    ASSERT_TRUE(one.start(&error)) << error;
    serve::Client client;
    ASSERT_TRUE(client.connectUnix(config.unixPath, &error)) << error;
    for (const char *id : {"s1", "s2"}) {
        std::string payload;
        ASSERT_TRUE(client.call(serve::characterizeRequestJson(
                                    id, campaignSpecToJson(smallSpec())),
                                &payload, &error))
            << error;
        const JsonValue result = parseResponse(payload);
        EXPECT_EQ(result.find("type")->asString(), "result")
            << result.dump();
    }
    EXPECT_EQ(one.statsJson().find("queue_depth")->asNumber(), 0.0);
}

TEST(Server, ConcurrentClientsShareOneSimulationPerBenchmark)
{
    CampaignSpec spec = smallSpec();
    spec.profiles = {profileByName("gzip")};

    serve::ServerConfig config;
    config.unixPath = testSocketPath("flight");
    config.jobs = 2;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Two clients ask for the same sweep at the same time.
    std::vector<std::string> responses(2);
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < responses.size(); ++i)
        clients.emplace_back([&, i] {
            responses[i] = callServer(
                config.unixPath,
                serve::characterizeRequestJson(
                    "cc" + std::to_string(i),
                    campaignSpecToJson(spec)));
        });
    for (std::thread &t : clients)
        t.join();

    // Identical evaluated content — the cells, spec, and summary bytes
    // cannot depend on how the two runs' tasks interleaved on the pool.
    // (The cache section legitimately can: whichever request reaches
    // the trace first simulates it, the other waits for that simulation
    // or hits the warm shared tier.)
    JsonValue r0 = parseResponse(responses[0]);
    JsonValue r1 = parseResponse(responses[1]);
    ASSERT_EQ(r0.find("type")->asString(), "result") << r0.dump();
    ASSERT_EQ(r1.find("type")->asString(), "result") << r1.dump();
    for (const char *member : {"spec", "cells", "rms_estimation_error_pct"}) {
        std::ostringstream d0, d1;
        r0.find("result")->find(member)->write(d0);
        r1.find("result")->find(member)->write(d1);
        EXPECT_EQ(d0.str(), d1.str()) << member;
    }

    // ...and the shared tier simulated the benchmark exactly once,
    // however the two runs interleaved.
    const JsonValue stats = server.statsJson();
    EXPECT_EQ(stats.find("cache")->find("simulations")->asNumber(),
              1.0);
    EXPECT_EQ(stats.find("characterizations")->asNumber(), 2.0);
}

TEST(Server, DecodeFailpointBecomesPerRequestError)
{
    verify::resetFailPoints();
    verify::armFailPoint("serve.decode",
                         verify::TriggerPolicy::nthHit(1));

    serve::ServerConfig config;
    config.unixPath = testSocketPath("fp");
    config.jobs = 1;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(config.unixPath, &error)) << error;
    std::string response;
    ASSERT_TRUE(client.call(serve::pingRequestJson("f1"), &response,
                            &error))
        << error;
    const JsonValue faulted = parseResponse(response);
    ASSERT_EQ(faulted.find("type")->asString(), "error");
    EXPECT_EQ(faulted.find("error")->find("code")->asString(),
              "bad_request");

    // The daemon survived the injected fault; the connection did too.
    ASSERT_TRUE(client.call(serve::pingRequestJson("f2"), &response,
                            &error))
        << error;
    EXPECT_EQ(parseResponse(response).find("type")->asString(), "pong");
    verify::resetFailPoints();
}

/**
 * Send one characterize request for @p spec to a fresh daemon, then a
 * ping: a bad request must cost only its own answer, never the daemon.
 * Returns the characterize response.
 */
JsonValue
characterizeThenPing(const char *tag, const CampaignSpec &spec)
{
    serve::ServerConfig config;
    config.unixPath = testSocketPath(tag);
    config.jobs = 1;
    serve::Server server(sharedSetup(), config);
    std::string error;
    EXPECT_TRUE(server.start(&error)) << error;
    const JsonValue response = parseResponse(
        callServer(config.unixPath,
                   serve::characterizeRequestJson(
                       tag, campaignSpecToJson(spec))));
    const JsonValue pong = parseResponse(
        callServer(config.unixPath, serve::pingRequestJson("after")));
    EXPECT_EQ(pong.find("type")->asString(), "pong");
    return response;
}

/** The request's typed error code ("" when it is not an error). */
std::string
errorCode(const JsonValue &response)
{
    if (response.find("type")->asString() != "error")
        return "";
    return response.find("error")->find("code")->asString();
}

TEST(Server, ZeroLevelsIsABadRequest)
{
    CampaignSpec spec = smallSpec();
    spec.levels = 0;
    EXPECT_EQ(errorCode(characterizeThenPing("lv0", spec)), "bad_request");
}

TEST(Server, MoreLevelsThanTheWindowSplitsIsABadRequest)
{
    CampaignSpec spec = smallSpec();
    spec.windowLength = 256;
    spec.levels = 9;
    EXPECT_EQ(errorCode(characterizeThenPing("lv9", spec)), "bad_request");
}

TEST(Server, WindowNotDivisibleByTwoToTheLevelsIsABadRequest)
{
    CampaignSpec spec = smallSpec();
    spec.windowLength = 100;
    spec.levels = 8;
    EXPECT_EQ(errorCode(characterizeThenPing("w100", spec)),
              "bad_request");
}

TEST(Server, WindowTooLongToCalibrateIsABadRequest)
{
    // A 65536-cycle window leaves fewer than 16 calibration windows.
    // Calibration runs before any cell, outside the per-cell try: the
    // request must get a typed error, and the failed fit must leave no
    // model behind for the same key to trip over on a retry.
    serve::ServerConfig config;
    config.unixPath = testSocketPath("w64k");
    config.jobs = 1;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    CampaignSpec spec = smallSpec();
    spec.profiles = {profileByName("gzip")};
    spec.impedanceScales = {1.0};
    spec.windowLength = 65536;
    spec.levels = 8;
    for (const char *id : {"w64k-1", "w64k-2"}) {
        const JsonValue response = parseResponse(callServer(
            config.unixPath,
            serve::characterizeRequestJson(id, campaignSpecToJson(spec))));
        EXPECT_EQ(errorCode(response), "bad_request") << response.dump();
    }
    const JsonValue pong = parseResponse(
        callServer(config.unixPath, serve::pingRequestJson("after")));
    EXPECT_EQ(pong.find("type")->asString(), "pong");

    const JsonValue ok = parseResponse(callServer(
        config.unixPath, serve::characterizeRequestJson(
                             "default", campaignSpecToJson(smallSpec()))));
    EXPECT_EQ(ok.find("type")->asString(), "result") << ok.dump();
}

TEST(Server, TraceShorterThanOneWindowIsAFailedCell)
{
    // Both scales' groups share the trace's estimate; the one that
    // throws leaves it empty, so the other group retries and fails
    // with the same error.
    CampaignSpec spec = smallSpec();
    spec.profiles = {profileByName("gzip")};
    spec.impedanceScales = {1.0, 1.2};
    spec.windowLength = 256;
    spec.levels = 8;
    spec.instructions = 100;
    const JsonValue response = characterizeThenPing("i100", spec);
    ASSERT_EQ(response.find("type")->asString(), "result")
        << response.dump();
    const JsonValue &cells = *response.find("result")->find("cells");
    ASSERT_EQ(cells.items().size(), 2u);
    for (const JsonValue &cell : cells.items()) {
        ASSERT_NE(cell.find("failed"), nullptr);
        EXPECT_TRUE(cell.find("failed")->asBool());
        EXPECT_NE(cell.find("error")->asString().find(
                      "shorter than one window"),
                  std::string::npos);
    }
    EXPECT_EQ(cells.items()[0].find("error")->asString(),
              cells.items()[1].find("error")->asString());
}

TEST(Server, PongAdvertisesTelemetryFeatures)
{
    serve::ServerConfig config;
    config.unixPath = testSocketPath("feat");
    config.jobs = 1;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const JsonValue pong =
        parseResponse(callServer(config.unixPath,
                                 serve::pingRequestJson("f")));
    const JsonValue *features = pong.find("features");
    ASSERT_NE(features, nullptr);
    std::vector<std::string> names;
    for (const JsonValue &f : features->items())
        names.push_back(f.asString());
    for (const char *required : {"events", "timings", "watch"})
        EXPECT_NE(std::find(names.begin(), names.end(), required),
                  names.end())
            << required;
}

TEST(Server, WatchStreamsFramesUntilNextRequestUnsubscribes)
{
    serve::ServerConfig config;
    config.unixPath = testSocketPath("watch");
    config.jobs = 1;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(config.unixPath, &error)) << error;
    ASSERT_TRUE(client.send(serve::watchRequestJson("w1", 10.0, 0),
                            &error))
        << error;

    // Unbounded subscription: frames keep arriving with ascending seq.
    double lastSeq = 0.0;
    for (int i = 0; i < 3; ++i) {
        std::string payload;
        ASSERT_TRUE(client.receive(&payload, &error)) << error;
        const JsonValue frame = parseResponse(payload);
        ASSERT_EQ(frame.find("type")->asString(), "watch");
        EXPECT_EQ(frame.find("id")->asString(), "w1");
        const double seq = frame.find("seq")->asNumber();
        EXPECT_GT(seq, lastSeq);
        lastSeq = seq;
        const JsonValue *stats = frame.find("stats");
        ASSERT_NE(stats, nullptr);
        EXPECT_GE(stats->find("active_connections")->asNumber(), 1.0);
        EXPECT_GE(stats->find("watchers")->asNumber(), 1.0);
        ASSERT_NE(frame.find("delta"), nullptr);
    }

    // Any further request unsubscribes: the daemon stops streaming and
    // answers it. In-flight watch frames may still be buffered, so
    // drain until the pong arrives.
    ASSERT_TRUE(client.send(serve::pingRequestJson("after-watch"),
                            &error))
        << error;
    std::string payload;
    for (;;) {
        ASSERT_TRUE(client.receive(&payload, &error)) << error;
        const JsonValue response = parseResponse(payload);
        if (response.find("type")->asString() == "watch")
            continue;
        EXPECT_EQ(response.find("type")->asString(), "pong");
        EXPECT_EQ(response.find("id")->asString(), "after-watch");
        break;
    }

    // The connection is back in plain request/response mode.
    ASSERT_TRUE(client.call(serve::statsRequestJson(""), &payload,
                            &error))
        << error;
    EXPECT_EQ(parseResponse(payload).find("type")->asString(), "stats");
}

TEST(Server, WatchFrameBudgetEndsStream)
{
    serve::ServerConfig config;
    config.unixPath = testSocketPath("wbudget");
    config.jobs = 1;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(config.unixPath, &error)) << error;
    ASSERT_TRUE(client.send(serve::watchRequestJson("w2", 10.0, 2),
                            &error))
        << error;
    std::string payload;
    for (int i = 1; i <= 2; ++i) {
        ASSERT_TRUE(client.receive(&payload, &error)) << error;
        EXPECT_EQ(parseResponse(payload).find("seq")->asNumber(),
                  static_cast<double>(i));
    }
    // The budget is spent; the very next frame answers a new request.
    ASSERT_TRUE(client.call(serve::pingRequestJson("done"), &payload,
                            &error))
        << error;
    EXPECT_EQ(parseResponse(payload).find("type")->asString(), "pong");
}

TEST(Server, EventsRequestReturnsRequestLifecycle)
{
    serve::ServerConfig config;
    config.unixPath = testSocketPath("events");
    config.jobs = 1;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    parseResponse(callServer(config.unixPath,
                             serve::characterizeRequestJson(
                                 "ev1", campaignSpecToJson(smallSpec()))));

    const JsonValue response = parseResponse(
        callServer(config.unixPath, serve::eventsRequestJson("q", 0, 0)));
    ASSERT_EQ(response.find("type")->asString(), "events");
    EXPECT_EQ(response.find("dropped")->asNumber(), 0.0);
    const JsonValue *events = response.find("events");
    ASSERT_NE(events, nullptr);
    auto detailOf = [&](const char *type) -> std::string {
        for (const JsonValue &event : events->items())
            if (event.find("type")->asString() == type)
                return event.find("detail")->asString();
        return {};
    };
    EXPECT_NE(detailOf("request_admitted").find("ev1"),
              std::string::npos);
    EXPECT_NE(detailOf("request_completed").find("ev1"),
              std::string::npos);
    EXPECT_GE(response.find("next")->asNumber(), 2.0);

    // The cursor pages: nothing new after the last seq.
    const JsonValue empty = parseResponse(callServer(
        config.unixPath,
        serve::eventsRequestJson(
            "q2",
            static_cast<std::uint64_t>(
                response.find("next")->asNumber()),
            0)));
    EXPECT_TRUE(empty.find("events")->items().empty());
}

TEST(Server, TimingsEchoedOnlyWhenRequested)
{
    serve::ServerConfig config;
    config.unixPath = testSocketPath("timings");
    config.jobs = 1;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    const JsonValue plain = parseResponse(
        callServer(config.unixPath,
                   serve::characterizeRequestJson(
                       "t0", campaignSpecToJson(smallSpec()))));
    ASSERT_EQ(plain.find("type")->asString(), "result");
    EXPECT_EQ(plain.find("timings"), nullptr)
        << "timings must be off by default";

    const JsonValue timed = parseResponse(
        callServer(config.unixPath,
                   serve::characterizeRequestJson(
                       "t1", campaignSpecToJson(smallSpec()), true)));
    ASSERT_EQ(timed.find("type")->asString(), "result");
    const JsonValue *timings = timed.find("timings");
    ASSERT_NE(timings, nullptr);
    for (const char *field : {"execute_ms", "serialize_ms"})
        EXPECT_GE(timings->find(field)->asNumber(), 0.0) << field;
    EXPECT_GE(timings->find("cache")->find("lookups")->asNumber(), 1.0);

    // The attribution rides OUTSIDE the result document: the evaluated
    // members stay byte-identical with and without it.
    for (const char *member :
         {"spec", "cells", "rms_estimation_error_pct"}) {
        std::ostringstream a, b;
        plain.find("result")->find(member)->write(a);
        timed.find("result")->find(member)->write(b);
        EXPECT_EQ(a.str(), b.str()) << member;
    }
}

TEST(Server, ConcurrentRequestsYieldDistinctSpanTrees)
{
    obs::TraceEventSink &sink = obs::TraceEventSink::global();
    sink.clear();
    sink.setEnabled(true);

    serve::ServerConfig config;
    config.unixPath = testSocketPath("spans");
    config.jobs = 2;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Two different campaigns run at once on the shared pool — each
    // request tree must nest its own cell spans.
    std::vector<std::thread> clients;
    for (int i = 0; i < 2; ++i)
        clients.emplace_back([&, i] {
            CampaignSpec spec = smallSpec();
            spec.profiles = {profileByName("gzip")};
            spec.windowLength = i == 0 ? 64 : 128;
            callServer(config.unixPath,
                       serve::characterizeRequestJson(
                           "span" + std::to_string(i),
                           campaignSpecToJson(spec)));
        });
    for (std::thread &t : clients)
        t.join();

    // The root "request" span ends only after the response frame is
    // written, so a read taken the instant the clients return can
    // still miss the tail of either tree. Poll until both trees are
    // complete (bounded), then assert on the final read.
    std::vector<obs::TraceEvent> events;
    const auto spanTreesComplete =
        [](const std::vector<obs::TraceEvent> &all) {
            std::map<std::uint64_t, const obs::TraceEvent *> spans;
            for (const obs::TraceEvent &event : all)
                spans[event.spanId] = &event;
            auto rootId =
                [&](const obs::TraceEvent &event) -> std::uint64_t {
                const obs::TraceEvent *cursor = &event;
                while (cursor->parentId != 0) {
                    const auto it = spans.find(cursor->parentId);
                    if (it == spans.end())
                        return 0;
                    cursor = it->second;
                }
                return cursor->spanId;
            };
            for (const char *id : {"span0", "span1"}) {
                std::uint64_t root = 0;
                for (const obs::TraceEvent &event : all)
                    if (event.name == "request" &&
                        event.requestId == id)
                        root = event.spanId;
                if (root == 0)
                    return false;
                bool cell = false;
                for (const obs::TraceEvent &event : all)
                    if (event.name.rfind("cell ", 0) == 0 &&
                        event.requestId == id &&
                        rootId(event) == root)
                        cell = true;
                if (!cell)
                    return false;
            }
            return true;
        };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (;;) {
        events = sink.events();
        if (spanTreesComplete(events) ||
            std::chrono::steady_clock::now() >= deadline)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    sink.setEnabled(false);
    sink.clear();

    std::map<std::uint64_t, const obs::TraceEvent *> bySpan;
    for (const obs::TraceEvent &event : events)
        bySpan[event.spanId] = &event;
    auto rootOf = [&](const obs::TraceEvent &event) -> std::uint64_t {
        const obs::TraceEvent *cursor = &event;
        while (cursor->parentId != 0) {
            const auto it = bySpan.find(cursor->parentId);
            if (it == bySpan.end())
                return 0; // broken link
            cursor = it->second;
        }
        return cursor->spanId;
    };

    for (const char *id : {"span0", "span1"}) {
        // Each request has exactly one root "request" span...
        const obs::TraceEvent *root = nullptr;
        for (const obs::TraceEvent &event : events)
            if (event.name == "request" && event.requestId == id) {
                EXPECT_EQ(root, nullptr) << "duplicate root for " << id;
                root = &event;
            }
        ASSERT_NE(root, nullptr) << id;
        EXPECT_EQ(root->parentId, 0u);
        // ...whose tree nests at least one per-cell execution span.
        std::size_t cells = 0;
        for (const obs::TraceEvent &event : events)
            if (event.name.rfind("cell ", 0) == 0 &&
                event.requestId == id &&
                rootOf(event) == root->spanId)
                ++cells;
        EXPECT_GE(cells, 1u) << id;
    }
}

TEST(Server, MalformedFrameGetsErrorResponseThenHangup)
{
    serve::ServerConfig config;
    config.unixPath = testSocketPath("mal");
    config.jobs = 1;
    serve::Server server(sharedSetup(), config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Raw socket: the Client class refuses to send garbage for us.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, config.unixPath.c_str(),
                config.unixPath.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    // Exactly one header's worth of garbage: the server consumes all
    // of it, so its hangup is a clean FIN, not a reset.
    const char garbage[serve::kFrameHeaderBytes + 1] = "XXXXXXXXXXXX";
    ASSERT_EQ(::send(fd, garbage, serve::kFrameHeaderBytes,
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(serve::kFrameHeaderBytes));

    // The server answers one typed error frame, then hangs up.
    std::string payload;
    ASSERT_EQ(serve::readFrame(fd, &payload), serve::FrameStatus::Ok);
    const JsonValue response = parseResponse(payload);
    ASSERT_EQ(response.find("type")->asString(), "error");
    EXPECT_EQ(response.find("error")->find("code")->asString(),
              "bad_request");
    EXPECT_EQ(serve::readFrame(fd, &payload),
              serve::FrameStatus::Closed);
    ::close(fd);

    // The poisoned stream cost nothing daemon-wide.
    const JsonValue stats = server.statsJson();
    EXPECT_EQ(stats.find("bad_requests")->asNumber(), 1.0);
}

} // namespace
} // namespace didt
