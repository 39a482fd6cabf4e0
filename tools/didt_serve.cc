/**
 * @file
 * The didt_serve daemon: characterization as a service.
 *
 * Hosts one long-lived Executor and one shared TraceRepository tier
 * (byte-budgeted in-memory LRU + optional disk cache) behind Unix
 * and/or TCP didt-serve-v1 sockets. Each characterize request runs as
 * its own campaign on the shared worker pool; every result is
 * byte-identical to what a standalone didt_campaign run of the same
 * spec writes.
 *
 * Typical use:
 *   didt_serve --socket /tmp/didt.sock --jobs 8 \
 *              --cache-bytes 268435456 --cache-dir /var/cache/didt \
 *              --metrics-out /run/didt_serve.metrics.json
 *
 * SIGINT/SIGTERM drain gracefully: admitted requests finish and their
 * responses are written, new requests are rejected with
 * shutting_down, then the process exits 0.
 */

#include <cerrno>
#include <cstdio>

#include <poll.h>
#include <unistd.h>

#include "didt/didt.hh"

using namespace didt;

int
main(int argc, char **argv)
{
    Options opts;
    opts.declare("socket", "", "unix-domain socket path to listen on");
    opts.declare("tcp-port", "-1",
                 "TCP port to listen on (-1 = no TCP listener, "
                 "0 = ephemeral; the bound port is printed)");
    opts.declare("tcp-host", "127.0.0.1", "TCP bind address");
    opts.declare("max-queue", "64",
                 "admission bound: characterize requests in flight "
                 "(admitted, not yet answered); further ones are "
                 "rejected with queue_full");
    opts.declare("cache-bytes", "0",
                 "trace-cache memory budget in bytes (0 = unlimited)");
    opts.declare("cache-dir", "",
                 "trace-cache directory shared with didt_campaign");
    opts.declare("jobs", "0",
                 "worker threads (0 = one per hardware thread)");
    opts.declare("max-frame-bytes", "16777216",
                 "frame payload size limit in bytes");
    opts.declare("metrics-out", "",
                 "rewrite a live didt-metrics-v1 snapshot here");
    opts.declare("metrics-interval-ms", "1000",
                 "telemetry rewrite period in milliseconds");
    opts.declare("events-capacity", "1024",
                 "daemon-event ring size: newest N events retained "
                 "for `events` queries and the shutdown dump");
    opts.declare("failpoints", "",
                 "arm fault-injection sites, e.g. "
                 "'serve.decode=nth:1;serve.accept=prob:0.1:7' "
                 "(also read from $DIDT_FAILPOINTS)");
    opts.parse(argc, argv);

    verify::armFailPointsFromEnv();
    if (const std::string fp = opts.get("failpoints"); !fp.empty()) {
        std::string error;
        if (!verify::armFailPointsFromSpec(fp, &error))
            didt_fatal("--failpoints: ", error);
    }

    serve::ServerConfig config;
    config.unixPath = opts.get("socket");
    config.tcpPort = static_cast<int>(opts.getInt("tcp-port"));
    config.tcpHost = opts.get("tcp-host");
    config.maxQueue =
        static_cast<std::size_t>(opts.getInt("max-queue"));
    config.cacheBytes =
        static_cast<std::uint64_t>(opts.getInt("cache-bytes"));
    config.cacheDir = opts.get("cache-dir");
    config.jobs = static_cast<std::size_t>(opts.getInt("jobs"));
    config.maxFrameBytes =
        static_cast<std::uint32_t>(opts.getInt("max-frame-bytes"));
    config.metricsOut = opts.get("metrics-out");
    config.metricsIntervalMs = opts.getDouble("metrics-interval-ms");
    config.eventCapacity =
        static_cast<std::size_t>(opts.getInt("events-capacity"));
    if (config.unixPath.empty() && config.tcpPort < 0)
        didt_fatal("need --socket and/or --tcp-port");

    // Install before service threads start so they inherit the mask.
    installShutdownHandler();

    const ExperimentSetup setup = makeStandardSetup();
    serve::Server server(setup, config);
    std::string error;
    if (!server.start(&error))
        didt_fatal("didt_serve: ", error);

    if (!config.unixPath.empty())
        std::printf("didt_serve: listening on %s\n",
                    config.unixPath.c_str());
    if (config.tcpPort >= 0)
        std::printf("didt_serve: listening on %s:%d\n",
                    config.tcpHost.c_str(), server.tcpPort());
    std::printf("didt_serve: %zu jobs, queue %zu, cache budget %llu "
                "bytes%s%s\n",
                server.executor().jobs(), config.maxQueue,
                static_cast<unsigned long long>(config.cacheBytes),
                config.cacheDir.empty() ? "" : ", disk cache ",
                config.cacheDir.c_str());
    std::fflush(stdout);

    // Sleep until the shutdown self-pipe is readable, then drain.
    pollfd wake{shutdownWakeFd(), POLLIN, 0};
    while (!shutdownRequested()) {
        if (wake.fd < 0) {
            // Degraded mode (no pipe): poll the flag.
            ::usleep(50 * 1000);
            continue;
        }
        if (::poll(&wake, 1, -1) < 0 && errno != EINTR)
            break;
    }

    std::printf("didt_serve: draining...\n");
    std::fflush(stdout);
    server.requestStop();
    server.wait();

    const JsonValue stats = server.statsJson();
    std::printf("didt_serve: drained; served %s requests (%s "
                "characterizations)\n",
                jsonNumber(stats.find("requests")->asNumber()).c_str(),
                jsonNumber(
                    stats.find("characterizations")->asNumber())
                    .c_str());

    // Dump the retained event ring so a post-mortem of the service
    // window survives the process (the in-memory ring would not).
    const obs::EventLog::Query tail = server.events().since(0);
    if (tail.dropped != 0)
        std::printf("didt_serve: event %llu older events dropped\n",
                    static_cast<unsigned long long>(tail.dropped));
    for (const obs::Event &event : tail.events)
        std::printf("didt_serve: event #%llu %+.1fms %s %s\n",
                    static_cast<unsigned long long>(event.seq),
                    event.atMs, event.type.c_str(),
                    event.detail.c_str());
    return 0;
}
