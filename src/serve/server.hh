/**
 * @file
 * The didt_serve daemon core: characterization as a service.
 *
 * A Server owns one long-lived Executor (shared worker pool, shared
 * calibrated-model cache) and one long-lived TraceRepository (the
 * shared cross-request cache tier: byte-budgeted in-memory LRU plus
 * the optional disk tier), accepts didt-serve-v1 requests over Unix
 * and/or TCP stream sockets, and evaluates each characterize request
 * as one Executor::run of its own spec — the code batch didt_campaign
 * runs — so a served result is byte-identical to a batch result for
 * the same spec.
 *
 * Threading model:
 *  - an acceptor thread polls the listening sockets (plus a self-pipe
 *    for wakeups) and spawns one thread per connection;
 *  - connection threads read frames and answer each request in order
 *    (each is the sole writer of its socket): ping/stats/events
 *    inline, and an admitted characterize request by planning it,
 *    running it on the executor's shared pool, and serializing the
 *    result, all on the connection thread. Concurrent requests'
 *    tasks interleave on the pool in its FIFO order, and the shared
 *    repository simulates each trace once however many ask for it.
 *
 * Admission control: at most maxQueue characterize requests are in
 * flight (admitted, not yet answered); one that arrives beyond that is
 * rejected immediately with the typed queue_full error — backpressure
 * is explicit, never an OOM or an unbounded latency tail.
 *
 * Shutdown: requestStop() begins a graceful drain — listeners close,
 * idle connections are shut down, requests already admitted run to
 * completion and their responses are written, new requests are
 * rejected with shutting_down. wait() returns once everything is
 * joined; the process can then exit 0.
 *
 * Fault injection: the serve.accept / serve.read / serve.write /
 * serve.decode failpoints turn socket-layer faults into dropped
 * connections or per-request error responses; no failpoint crashes
 * the daemon.
 */

#ifndef DIDT_SERVE_SERVER_HH
#define DIDT_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/experiment.hh"
#include "obs/event_log.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"
#include "runner/executor.hh"
#include "runner/trace_repository.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "util/json.hh"

namespace didt
{
namespace serve
{

/** Everything configurable about one daemon instance. */
struct ServerConfig
{
    /** Unix-domain socket path; empty disables the Unix listener. */
    std::string unixPath;

    /** TCP port; -1 disables the TCP listener, 0 binds ephemeral
     *  (read the bound port back with Server::tcpPort()). */
    int tcpPort = -1;

    /** TCP bind address. */
    std::string tcpHost = "127.0.0.1";

    /** Admission bound: a characterize request arriving when this
     *  many are in flight (admitted, not yet answered) is rejected
     *  with queue_full. */
    std::size_t maxQueue = 64;

    /** Trace-cache memory budget in bytes (0 = unlimited). */
    std::uint64_t cacheBytes = 0;

    /** Trace-cache directory ("" = no disk tier). */
    std::string cacheDir;

    /** Executor worker threads (0 = hardware concurrency). */
    std::size_t jobs = 0;

    /** Frame payload size limit. */
    std::uint32_t maxFrameBytes = kDefaultMaxFrameBytes;

    /** When non-empty, a metrics JSON snapshot (didt-metrics-v1) is
     *  rewritten here every metricsIntervalMs and once on shutdown —
     *  live telemetry for an operator to watch. */
    std::string metricsOut;

    /** Telemetry rewrite period in milliseconds. */
    double metricsIntervalMs = 1000.0;

    /** Event-ring capacity: the newest this many daemon events are
     *  retained for `events` queries and the shutdown dump. */
    std::size_t eventCapacity = 1024;
};

/** The daemon: listeners + admission control + executor. */
class Server
{
  public:
    Server(const ExperimentSetup &setup, ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the configured listeners and start the service threads.
     * False (with @p error set) when a socket cannot be bound; the
     * server is then inert and only needs destruction.
     */
    bool start(std::string *error);

    /** Begin a graceful drain (idempotent; callable from any thread,
     *  but not from a signal handler — signal handlers should set a
     *  flag and let the main loop call this). */
    void requestStop();

    /** Block until the drain completes and every thread is joined. */
    void wait();

    /** The TCP port actually bound (after start; -1 without TCP). */
    int tcpPort() const { return boundTcpPort_; }

    /** The shared execution engine. */
    Executor &executor() { return *executor_; }

    /** The shared trace repository. */
    TraceRepository &repository() { return repo_; }

    /** Daemon counters as the "stats" response payload. */
    JsonValue statsJson() const;

    /** The bounded daemon-event ring (admissions, completions, faults). */
    const obs::EventLog &events() const { return events_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One live client connection. */
    struct Connection
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptorLoop();
    void connectionLoop(Connection *conn);
    void metricsLoop();

    /**
     * Admit a characterize request, run it on this thread, and return
     * the response payload (a result or a typed error; never throws).
     */
    std::string serveCharacterize(const Request &request);

    /**
     * Serve a watch subscription on @p fd: send one live-stats frame
     * per tick until the frame budget is spent, the peer sends another
     * frame (left unread for the connection loop — that request
     * unsubscribes and is answered normally), the peer hangs up, or
     * the daemon drains. False when the connection is dead.
     */
    bool streamWatch(int fd, const Request &request);

    /** The per-tick "stats" object of a watch frame. */
    JsonValue watchStatsJson(double elapsedMs,
                             const obs::MetricsSnapshot &current,
                             const obs::MetricsSnapshot &delta,
                             const TraceCacheStats &cacheDelta) const;

    /** Reap joined connection threads; under connMutex_. */
    void reapConnectionsLocked();

    const ServerConfig config_;
    TraceRepository repo_;
    std::unique_ptr<Executor> executor_;

    int unixFd_ = -1;
    int tcpFd_ = -1;
    int boundTcpPort_ = -1;
    int wakePipe_[2] = {-1, -1};

    std::thread acceptor_;
    std::thread metricsThread_;

    mutable std::mutex admissionMutex_;
    bool draining_ = false;
    /** Characterize requests admitted and not yet answered. */
    std::size_t inFlight_ = 0;
    /** Mirrors draining_ for lock-free polls (watch ticks). */
    std::atomic<bool> drainingFlag_{false};

    std::mutex connMutex_;
    std::list<Connection> connections_;

    std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> characterizations_{0};
    std::atomic<std::uint64_t> rejectedQueueFull_{0};
    std::atomic<std::uint64_t> rejectedDraining_{0};
    std::atomic<std::uint64_t> badRequests_{0};
    std::atomic<std::uint64_t> connectionsAccepted_{0};
    std::atomic<std::uint64_t> droppedConnections_{0};
    std::atomic<std::uint64_t> activeConnections_{0};
    std::atomic<std::uint64_t> watchers_{0};

    obs::EventLog events_;

    bool started_ = false;
};

} // namespace serve
} // namespace didt

#endif // DIDT_SERVE_SERVER_HH
