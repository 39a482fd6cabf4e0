/**
 * @file
 * Client for the didt_serve daemon.
 *
 * Subcommands:
 *   ping          liveness check (prints the daemon's feature list)
 *   stats         print the daemon's counters (JSON; --prom for
 *                 Prometheus text exposition format)
 *   characterize  run a sweep described by the spec options below
 *                 (--timings echoes the daemon's latency breakdown)
 *   replay        re-run a campaign from a didt-campaign-v1 JSON file
 *                 (or a bare spec object) through the daemon
 *   watch         subscribe to live daemon telemetry: one status line
 *                 per tick (connections, requests in flight, cells/s, cache
 *                 hit-rate, p50/p99 request ms)
 *   events        print the daemon's recent structured events
 *
 * Typical use:
 *   didt_client ping --socket /tmp/didt.sock
 *   didt_client characterize --benchmarks gzip,mcf --out result.json
 *   didt_client replay campaign.json --out replayed.json
 *   didt_client watch --interval-ms 500
 *   didt_client stats --prom | promtool check metrics
 *
 * For characterize and replay the daemon's embedded result document is
 * written verbatim (--out file or stdout); it is byte-identical to
 * what `didt_campaign --json` writes for the same spec, so
 * `cmp campaign.json replayed.json` is the end-to-end integrity check.
 *
 * Exit codes: 0 success, 1 usage/configuration error, 3 transport
 * failure or an error response from the daemon (the typed error code
 * and message go to stderr).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "didt/didt.hh"

using namespace didt;

namespace
{

/** Exit status for daemon-side errors and transport failures. */
constexpr int kExitServeError = 3;

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        out.push_back(list.substr(pos, comma - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

/** Connect per the --socket / --tcp-* options; exits on bad usage. */
serve::Client
connectClient(const Options &opts)
{
    serve::Client client;
    std::string error;
    if (const std::string path = opts.get("socket"); !path.empty()) {
        if (!client.connectUnix(path, &error)) {
            std::fprintf(stderr, "didt_client: %s\n", error.c_str());
            std::exit(kExitServeError);
        }
        return client;
    }
    const int port = static_cast<int>(opts.getInt("tcp-port"));
    if (port < 0)
        didt_fatal("need --socket or --tcp-port");
    if (!client.connectTcp(opts.get("tcp-host"), port, &error)) {
        std::fprintf(stderr, "didt_client: %s\n", error.c_str());
        std::exit(kExitServeError);
    }
    return client;
}

/** One request/response round trip; exits on transport failure. */
JsonValue
roundTrip(serve::Client &client, const std::string &request)
{
    std::string payload;
    std::string error;
    if (!client.call(request, &payload, &error)) {
        std::fprintf(stderr, "didt_client: %s\n", error.c_str());
        std::exit(kExitServeError);
    }
    try {
        return parseJson(payload);
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "didt_client: unparseable response: %s\n",
                     e.what());
        std::exit(kExitServeError);
    }
}

/** Exit with the daemon's typed error when @p response carries one. */
void
exitOnErrorResponse(const JsonValue &response)
{
    const JsonValue *type = response.find("type");
    if (!type || type->kind() != JsonValue::Kind::String ||
        type->asString() != "error")
        return;
    const JsonValue *error = response.find("error");
    const JsonValue *code = error ? error->find("code") : nullptr;
    const JsonValue *message = error ? error->find("message") : nullptr;
    std::fprintf(
        stderr, "didt_client: daemon error [%s]: %s\n",
        code && code->kind() == JsonValue::Kind::String
            ? code->asString().c_str()
            : "unknown",
        message && message->kind() == JsonValue::Kind::String
            ? message->asString().c_str()
            : "(no message)");
    std::exit(kExitServeError);
}

/**
 * Write the embedded campaign result exactly as didt_campaign --json
 * writes it (the shared writer is byte-deterministic, so a replay of a
 * campaign file reproduces it byte-for-byte).
 */
void
writeResult(const JsonValue &response, const std::string &out_path)
{
    const JsonValue *result = response.find("result");
    if (!result) {
        std::fprintf(stderr,
                     "didt_client: response carries no result\n");
        std::exit(kExitServeError);
    }
    if (out_path.empty()) {
        result->write(std::cout);
        std::cout << '\n';
        return;
    }
    std::ofstream out(out_path);
    if (!out)
        didt_fatal("cannot open ", out_path, " for writing");
    result->write(out);
    out << '\n';
    if (!out)
        didt_fatal("error writing result to ", out_path);
    std::printf("(result written to %s)\n", out_path.c_str());
}

/** Build the characterize spec JSON from the spec options. */
JsonValue
specFromOptions(const Options &opts)
{
    CampaignSpec spec;
    for (const std::string &name : splitList(opts.get("benchmarks")))
        spec.profiles.push_back(profileByName(name));
    spec.impedanceScales.clear();
    for (const std::string &scale : splitList(opts.get("impedances"))) {
        std::size_t consumed = 0;
        double value = 0.0;
        try {
            value = std::stod(scale, &consumed);
        } catch (const std::exception &) {
            consumed = 0;
        }
        if (consumed != scale.size())
            didt_fatal("--impedances: bad scale '" + scale + "'");
        spec.impedanceScales.push_back(value);
    }
    spec.windowLength = static_cast<std::size_t>(opts.getInt("window"));
    spec.levels = static_cast<std::size_t>(opts.getInt("levels"));
    spec.basis = opts.get("basis");
    spec.lowThreshold = opts.getDouble("low");
    spec.highThreshold = opts.getDouble("high");
    spec.useCorrelation = !opts.getBool("no-correlation");
    spec.instructions =
        static_cast<std::uint64_t>(opts.getInt("instructions"));
    spec.seed = static_cast<std::uint64_t>(opts.getInt("seed"));
    if (std::string error; !validateSpec(spec, &error))
        didt_fatal(error);
    return campaignSpecToJson(spec);
}

/** Numeric field of a JSON object, or 0.0 when absent/non-numeric. */
double
numberField(const JsonValue &object, const char *name)
{
    const JsonValue *value = object.find(name);
    if (!value || value->kind() != JsonValue::Kind::Number)
        return 0.0;
    return value->asNumber();
}

/**
 * Render one watch frame as a single status line. On a terminal the
 * line overwrites itself (carriage return); piped output gets one line
 * per frame so the stream stays grep-able.
 */
void
renderWatchLine(const JsonValue &stats, double seq, bool tty)
{
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "watch #%.0f | conns %.0f queue %.0f watchers %.0f | "
        "cells %.0f (%.1f/s) | hit %.1f%% | req p50 %.1fms p99 %.1fms",
        seq, numberField(stats, "active_connections"),
        numberField(stats, "queue_depth"),
        numberField(stats, "watchers"),
        numberField(stats, "cells_done"),
        numberField(stats, "cells_per_sec"),
        100.0 * numberField(stats, "cache_hit_rate"),
        numberField(stats, "request_ms_p50"),
        numberField(stats, "request_ms_p99"));
    if (tty) {
        std::printf("\r%-110s", line);
        std::fflush(stdout);
    } else {
        std::printf("%s\n", line);
    }
}

/** Extract the spec to replay from a result or bare-spec JSON file. */
JsonValue
specFromFile(const std::string &path)
{
    const JsonValue doc = readJsonFile(path);
    if (doc.kind() != JsonValue::Kind::Object)
        didt_fatal(path, ": expected a JSON object");
    if (const JsonValue *schema = doc.find("schema")) {
        if (schema->kind() != JsonValue::Kind::String ||
            schema->asString() != "didt-campaign-v1")
            didt_fatal(path, ": not a didt-campaign-v1 document");
        const JsonValue *spec = doc.find("spec");
        if (!spec)
            didt_fatal(path, ": document carries no spec");
        return *spec;
    }
    return doc; // a bare spec object
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.declareSubcommands(
        {"ping", "stats", "characterize", "replay", "watch", "events"});
    opts.declarePositionals("campaign.json", 0, 1,
                            "replay: the didt-campaign-v1 result (or "
                            "bare spec) file to re-run");
    opts.declare("socket", "", "daemon unix-domain socket path");
    opts.declare("tcp-host", "127.0.0.1", "daemon TCP address");
    opts.declare("tcp-port", "-1", "daemon TCP port (-1 = use --socket)");
    opts.declare("id", "", "request id echoed back by the daemon");
    opts.declare("out", "",
                 "write the result document here (default: stdout)");
    opts.declare("benchmarks", "",
                 "characterize: benchmark subset (empty = all 26)");
    opts.declare("impedances", "1.0,1.1,1.2,1.3,1.5",
                 "characterize: target-impedance scales");
    opts.declare("instructions", "120000",
                 "characterize: dynamic instructions per benchmark");
    opts.declare("seed", "0", "characterize: extra workload seed");
    opts.declare("window", "256", "characterize: window in cycles");
    opts.declare("levels", "8", "characterize: decomposition depth");
    opts.declare("basis", "haar", "characterize: wavelet basis");
    opts.declare("low", "0.97", "characterize: low control point (V)");
    opts.declare("high", "1.03", "characterize: high control point (V)");
    opts.declare("no-correlation", "false",
                 "characterize: drop the correlation adjustment");
    opts.declare("failpoints", "",
                 "arm client-side fault-injection sites, e.g. "
                 "'serve.write=nth:1'");
    opts.declare("prom", "false",
                 "stats: print Prometheus text exposition format");
    opts.declare("timings", "false",
                 "characterize/replay: print the daemon's latency "
                 "attribution (execute/serialize ms and the "
                 "request's cache traffic) to stderr");
    opts.declare("interval-ms", "1000",
                 "watch: telemetry frame period in milliseconds");
    opts.declare("count", "0",
                 "watch: stop after this many frames (0 = until "
                 "interrupted)");
    opts.declare("after", "0",
                 "events: return only events with seq > this cursor");
    opts.declare("limit", "0",
                 "events: cap the number of events returned (0 = all "
                 "retained)");
    opts.parse(argc, argv);

    verify::armFailPointsFromEnv();
    if (const std::string fp = opts.get("failpoints"); !fp.empty()) {
        std::string error;
        if (!verify::armFailPointsFromSpec(fp, &error))
            didt_fatal("--failpoints: ", error);
    }

    const std::string &command = opts.subcommand();
    serve::Client client = connectClient(opts);

    if (command == "ping") {
        const JsonValue response = roundTrip(
            client, serve::pingRequestJson(opts.get("id")));
        exitOnErrorResponse(response);
        std::printf("pong\n");
        return 0;
    }
    if (command == "stats") {
        const bool prom = opts.getBool("prom");
        const JsonValue response = roundTrip(
            client, serve::statsRequestJson(opts.get("id"), prom));
        exitOnErrorResponse(response);
        if (prom) {
            const JsonValue *text = response.find("prometheus");
            if (!text || text->kind() != JsonValue::Kind::String) {
                std::fprintf(
                    stderr,
                    "didt_client: response carries no prometheus "
                    "text\n");
                return kExitServeError;
            }
            std::fputs(text->asString().c_str(), stdout);
            return 0;
        }
        const JsonValue *stats = response.find("stats");
        if (!stats) {
            std::fprintf(stderr,
                         "didt_client: response carries no stats\n");
            return kExitServeError;
        }
        stats->write(std::cout);
        std::cout << '\n';
        return 0;
    }
    if (command == "watch") {
        const double intervalMs = opts.getDouble("interval-ms");
        const std::uint64_t count =
            static_cast<std::uint64_t>(opts.getInt("count"));
        std::string error;
        if (!client.send(serve::watchRequestJson(opts.get("id"),
                                                 intervalMs, count),
                         &error)) {
            std::fprintf(stderr, "didt_client: %s\n", error.c_str());
            return kExitServeError;
        }
        const bool tty = ::isatty(STDOUT_FILENO) != 0;
        std::uint64_t frames = 0;
        std::string payload;
        while (client.receive(&payload, &error)) {
            JsonValue frame;
            try {
                frame = parseJson(payload);
            } catch (const std::exception &e) {
                std::fprintf(stderr,
                             "didt_client: unparseable frame: %s\n",
                             e.what());
                return kExitServeError;
            }
            exitOnErrorResponse(frame);
            const JsonValue *stats = frame.find("stats");
            if (!stats)
                continue;
            renderWatchLine(*stats, numberField(frame, "seq"), tty);
            ++frames;
            if (count != 0 && frames >= count)
                break;
        }
        if (tty && frames != 0)
            std::printf("\n");
        // The stream ends normally when the frame budget is spent or
        // the daemon drains; report a transport error only if no frame
        // was ever delivered.
        if (frames == 0) {
            std::fprintf(stderr, "didt_client: %s\n", error.c_str());
            return kExitServeError;
        }
        return 0;
    }
    if (command == "events") {
        const JsonValue response = roundTrip(
            client,
            serve::eventsRequestJson(
                opts.get("id"),
                static_cast<std::uint64_t>(opts.getInt("after")),
                static_cast<std::uint64_t>(opts.getInt("limit"))));
        exitOnErrorResponse(response);
        const JsonValue *events = response.find("events");
        if (!events || events->kind() != JsonValue::Kind::Array) {
            std::fprintf(stderr,
                         "didt_client: response carries no events\n");
            return kExitServeError;
        }
        for (const JsonValue &event : events->items()) {
            const JsonValue *type = event.find("type");
            const JsonValue *detail = event.find("detail");
            std::printf(
                "#%-5.0f %9.1fms  %-18s %s\n",
                numberField(event, "seq"), numberField(event, "at_ms"),
                type && type->kind() == JsonValue::Kind::String
                    ? type->asString().c_str()
                    : "?",
                detail && detail->kind() == JsonValue::Kind::String
                    ? detail->asString().c_str()
                    : "");
        }
        std::printf("(dropped %.0f, next cursor %.0f)\n",
                    numberField(response, "dropped"),
                    numberField(response, "next"));
        return 0;
    }

    // characterize / replay: one spec, one result document.
    JsonValue spec;
    if (command == "replay") {
        if (opts.positionals().size() != 1)
            didt_fatal("replay needs exactly one campaign JSON file");
        spec = specFromFile(opts.positionals().front());
    } else {
        spec = specFromOptions(opts);
    }
    const bool wantTimings = opts.getBool("timings");
    const JsonValue response = roundTrip(
        client, serve::characterizeRequestJson(opts.get("id"), spec,
                                               wantTimings));
    exitOnErrorResponse(response);
    writeResult(response, opts.get("out"));
    if (wantTimings) {
        if (const JsonValue *timings = response.find("timings")) {
            std::ostringstream text;
            timings->write(text);
            std::fprintf(stderr, "didt_client: timings %s\n",
                         text.str().c_str());
        }
    }
    return 0;
}
