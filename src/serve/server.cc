#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "obs/prometheus.hh"
#include "obs/scoped_timer.hh"
#include "runner/plan.hh"
#include "runner/result_json.hh"
#include "util/logging.hh"
#include "verify/failpoint.hh"

namespace didt
{
namespace serve
{

namespace
{

/** Daemon-level metrics (sidecar only; stats responses use the
 *  server's own atomics so they survive registry resets). */
struct ServeMetrics
{
    obs::Counter connections;
    obs::Counter requests;
    obs::Counter rejected;
    obs::Counter badRequests;
    obs::Gauge queueDepth; ///< characterize requests in flight
    obs::Histogram requestMs;
    obs::Histogram executeMs;
    obs::Histogram serializeMs;
};

ServeMetrics &
serveMetrics()
{
    auto &registry = obs::MetricsRegistry::global();
    static ServeMetrics metrics{
        registry.counter("serve.connections"),
        registry.counter("serve.requests"),
        registry.counter("serve.rejected"),
        registry.counter("serve.bad_requests"),
        registry.gauge("serve.queue_depth"),
        registry.histogram("serve.request_ms"),
        registry.histogram("serve.execute_ms"),
        registry.histogram("serve.serialize_ms"),
    };
    return metrics;
}

double
millisBetween(std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start)
        .count();
}

/** Request id as it appears in event details ("-" when anonymous). */
std::string
eventId(const std::string &id)
{
    return id.empty() ? "-" : id;
}

/** The optional "timings" sibling of a result response. */
JsonValue
requestTimingsJson(double executeMs, double serializeMs,
                   const TraceCacheStats &cache)
{
    JsonValue timings = JsonValue::object();
    timings.set("execute_ms", executeMs);
    timings.set("serialize_ms", serializeMs);
    JsonValue cache_json = JsonValue::object();
    cache_json.set("lookups", static_cast<long long>(cache.lookups));
    cache_json.set("memory_hits",
                   static_cast<long long>(cache.memoryHits));
    cache_json.set("disk_loads",
                   static_cast<long long>(cache.diskLoads));
    cache_json.set("simulations",
                   static_cast<long long>(cache.simulations));
    timings.set("cache", std::move(cache_json));
    return timings;
}

/** EventLog observer for fired failpoints (registered in start()). */
void
failPointFired(void *state, std::string_view site, std::string_view key)
{
    auto *events = static_cast<obs::EventLog *>(state);
    std::string detail(site);
    if (!key.empty()) {
        detail += " key=";
        detail += key;
    }
    events->append("failpoint_fired", std::move(detail));
}

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

bool
bindUnixListener(const std::string &path, int *out_fd,
                 std::string *error)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        *error = "unix socket path too long: " + path;
        return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    ::unlink(path.c_str()); // replace a stale socket from a dead daemon
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(fd, 64) < 0) {
        *error = "cannot listen on " + path + ": " +
                 std::strerror(errno);
        ::close(fd);
        return false;
    }
    *out_fd = fd;
    return true;
}

bool
bindTcpListener(const std::string &host, int port, int *out_fd,
                int *bound_port, std::string *error)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        *error = "invalid TCP bind address: " + host;
        return false;
    }

    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(fd, 64) < 0) {
        *error = "cannot listen on " + host + ":" +
                 std::to_string(port) + ": " + std::strerror(errno);
        ::close(fd);
        return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) ==
        0)
        *bound_port = ntohs(bound.sin_port);
    *out_fd = fd;
    return true;
}

} // namespace

Server::Server(const ExperimentSetup &setup, ServerConfig config)
    : config_(std::move(config)), repo_(setup, config_.cacheDir),
      executor_(
          std::make_unique<Executor>(setup, repo_, config_.jobs)),
      events_(config_.eventCapacity)
{
    repo_.setMemoryBudgetBytes(config_.cacheBytes);
}

Server::~Server()
{
    if (started_) {
        requestStop();
        wait();
    }
    closeFd(wakePipe_[0]);
    closeFd(wakePipe_[1]);
}

bool
Server::start(std::string *error)
{
    if (config_.unixPath.empty() && config_.tcpPort < 0) {
        *error = "no listener configured (need a unix path or a TCP "
                 "port)";
        return false;
    }
    if (::pipe(wakePipe_) < 0) {
        *error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    if (!config_.unixPath.empty() &&
        !bindUnixListener(config_.unixPath, &unixFd_, error))
        return false;
    if (config_.tcpPort >= 0 &&
        !bindTcpListener(config_.tcpHost, config_.tcpPort, &tcpFd_,
                         &boundTcpPort_, error)) {
        closeFd(unixFd_);
        return false;
    }

    started_ = true;
    // Fired failpoints become ring events. Process-global: the last
    // started server owns the observer (tests run one live daemon at
    // a time); wait() removes it.
    verify::setFailPointObserver(&failPointFired, &events_);
    acceptor_ = std::thread([this] { acceptorLoop(); });
    if (!config_.metricsOut.empty())
        metricsThread_ = std::thread([this] { metricsLoop(); });
    return true;
}

void
Server::requestStop()
{
    {
        std::lock_guard<std::mutex> lock(admissionMutex_);
        if (draining_)
            return;
        draining_ = true;
    }
    drainingFlag_.store(true, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(stopMutex_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
    // Wake the acceptor's poll; a failed write means the pipe is gone
    // (already shut down) and the acceptor is no longer polling.
    const char byte = 1;
    if (wakePipe_[1] >= 0)
        (void)!::write(wakePipe_[1], &byte, 1);
    // Unblock idle connection reads; in-flight responses still write.
    std::lock_guard<std::mutex> lock(connMutex_);
    for (Connection &conn : connections_)
        if (conn.fd >= 0)
            ::shutdown(conn.fd, SHUT_RD);
}

void
Server::wait()
{
    if (!started_)
        return;
    if (acceptor_.joinable())
        acceptor_.join();
    {
        // Each connection thread finishes the request it has admitted
        // and writes its response before it exits. Splice the list out
        // and join without the lock: an exiting connection thread takes
        // connMutex_ to close its fd, so joining it while holding the
        // lock would deadlock. Splicing keeps the Connection nodes at
        // stable addresses for the threads still running their
        // epilogue.
        std::list<Connection> remaining;
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            remaining.splice(remaining.begin(), connections_);
        }
        for (Connection &conn : remaining)
            if (conn.thread.joinable())
                conn.thread.join();
    }
    if (metricsThread_.joinable())
        metricsThread_.join();
    verify::setFailPointObserver(nullptr, nullptr);
    closeFd(unixFd_);
    closeFd(tcpFd_);
    if (!config_.unixPath.empty())
        ::unlink(config_.unixPath.c_str());
    // Final metrics rewrite after the drain settled every counter —
    // the interval thread's last write may predate the tail of the
    // drain, and the operator wants the sidecar to describe the whole
    // run once the process exits.
    if (!config_.metricsOut.empty())
        obs::writeMetricsJson(config_.metricsOut,
                              obs::MetricsRegistry::global().snapshot());
    started_ = false;
}

void
Server::reapConnectionsLocked()
{
    for (auto it = connections_.begin(); it != connections_.end();) {
        if (it->done.load(std::memory_order_acquire)) {
            if (it->thread.joinable())
                it->thread.join();
            it = connections_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Server::acceptorLoop()
{
    std::vector<pollfd> fds;
    if (unixFd_ >= 0)
        fds.push_back({unixFd_, POLLIN, 0});
    if (tcpFd_ >= 0)
        fds.push_back({tcpFd_, POLLIN, 0});
    fds.push_back({wakePipe_[0], POLLIN, 0});

    for (;;) {
        {
            std::lock_guard<std::mutex> lock(admissionMutex_);
            if (draining_)
                return;
        }
        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            didt_warn("didt_serve acceptor poll failed: ",
                      std::strerror(errno));
            return;
        }
        for (const pollfd &pfd : fds) {
            if (!(pfd.revents & POLLIN))
                continue;
            if (pfd.fd == wakePipe_[0])
                continue; // drained via the draining_ check above
            const int client =
                ::accept4(pfd.fd, nullptr, nullptr, SOCK_CLOEXEC);
            if (client < 0)
                continue;
            if (DIDT_FAILPOINT("serve.accept")) {
                // An injected accept failure models resource
                // exhaustion: the connection is dropped, the daemon
                // keeps serving everyone else.
                droppedConnections_.fetch_add(1);
                ::close(client);
                continue;
            }
            connectionsAccepted_.fetch_add(1);
            serveMetrics().connections.add(1);
            std::lock_guard<std::mutex> lock(connMutex_);
            reapConnectionsLocked();
            connections_.emplace_back();
            Connection &conn = connections_.back();
            conn.fd = client;
            conn.thread =
                std::thread([this, &conn] { connectionLoop(&conn); });
        }
    }
}

void
Server::connectionLoop(Connection *conn)
{
    const int fd = conn->fd;
    activeConnections_.fetch_add(1);
    for (;;) {
        std::string payload;
        std::string frame_error;
        const FrameStatus status = readFrame(
            fd, &payload, config_.maxFrameBytes, &frame_error);
        if (status == FrameStatus::Closed)
            break;
        if (status == FrameStatus::Malformed ||
            status == FrameStatus::Oversized) {
            // The stream is poisoned: answer once, then hang up.
            badRequests_.fetch_add(1);
            serveMetrics().badRequests.add(1);
            events_.append("bad_request", frame_error);
            (void)writeFrame(fd,
                             errorResponseJson("",
                                               ErrorCode::BadRequest,
                                               frame_error));
            break;
        }
        if (status != FrameStatus::Ok)
            break; // Truncated / IoError: nothing sane to answer on

        requests_.fetch_add(1);
        serveMetrics().requests.add(1);

        std::string response;
        Request request;
        std::string parse_error;
        if (DIDT_FAILPOINT("serve.decode")) {
            badRequests_.fetch_add(1);
            serveMetrics().badRequests.add(1);
            events_.append("bad_request",
                           "injected fault (serve.decode)");
            response = errorResponseJson(
                "", ErrorCode::BadRequest,
                "injected fault (serve.decode)");
        } else if (!parseRequest(payload, &request, &parse_error)) {
            badRequests_.fetch_add(1);
            serveMetrics().badRequests.add(1);
            events_.append("bad_request", parse_error);
            response = errorResponseJson(
                request.id, ErrorCode::BadRequest, parse_error);
        } else if (request.type == RequestType::Watch) {
            // The stream writes its own frames; when it ends because
            // the peer sent another request, that frame is still
            // unread and the next loop iteration answers it.
            if (!streamWatch(fd, request))
                break;
            continue;
        } else {
            // Root span of the request's trace tree: the context is
            // installed first so the span carries the request id, and
            // the span then parents everything the request does
            // (execute, cells, serialize) — including the cells on
            // pool threads, via ExecutionHooks::traceContext.
            obs::ScopedTraceContext request_scope({0, request.id});
            obs::ScopedTimer timer("request", serveMetrics().requestMs,
                                   nullptr, "serve");
            switch (request.type) {
            case RequestType::Ping:
                response = pongResponseJson(request.id);
                break;
            case RequestType::Stats:
                response =
                    request.wantPrometheus
                        ? statsPrometheusResponseJson(
                              request.id,
                              obs::prometheusText(
                                  obs::MetricsRegistry::global()
                                      .snapshot()))
                        : statsResponseJson(request.id, statsJson());
                break;
            case RequestType::Events:
                response = eventsResponseJson(
                    request.id,
                    events_.since(request.eventsAfter,
                                  request.eventsLimit));
                break;
            case RequestType::Characterize:
                response = serveCharacterize(request);
                break;
            case RequestType::Watch:
                break; // handled above
            }
        }
        if (writeFrame(fd, response) != FrameStatus::Ok)
            break;
    }
    activeConnections_.fetch_sub(1);
    {
        // Close under the lock so requestStop() never shuts down a
        // reused descriptor.
        std::lock_guard<std::mutex> lock(connMutex_);
        ::close(fd);
        conn->fd = -1;
    }
    conn->done.store(true, std::memory_order_release);
}

std::string
Server::serveCharacterize(const Request &request)
{
    {
        std::lock_guard<std::mutex> lock(admissionMutex_);
        if (draining_) {
            rejectedDraining_.fetch_add(1);
            serveMetrics().rejected.add(1);
            events_.append("request_rejected",
                           eventId(request.id) + " shutting_down");
            return errorResponseJson(request.id,
                                     ErrorCode::ShuttingDown,
                                     "daemon is draining");
        }
        if (inFlight_ >= config_.maxQueue) {
            rejectedQueueFull_.fetch_add(1);
            serveMetrics().rejected.add(1);
            events_.append("request_rejected",
                           eventId(request.id) + " queue_full");
            return errorResponseJson(
                request.id, ErrorCode::QueueFull,
                "admission queue is full (" +
                    std::to_string(inFlight_) +
                    " in flight); retry later");
        }
        ++inFlight_;
        serveMetrics().queueDepth.record(static_cast<double>(inFlight_));
        events_.append("request_admitted", eventId(request.id));
        characterizations_.fetch_add(1);
    }

    std::string response;
    try {
        const CampaignPlan plan = buildCampaignPlan(request.spec);
        CampaignResult result;
        double executeMs = 0.0;
        {
            // The execute span parents the run's sweep and cell spans,
            // pool threads included.
            obs::ScopedTimer span("execute", serveMetrics().executeMs,
                                  nullptr, "serve");
            ExecutionHooks hooks;
            hooks.traceContext = obs::currentTraceContext();
            result = executor_->run(plan, hooks);
            executeMs = span.elapsedMillis();
        }
        JsonValue resultJson;
        double serializeMs = 0.0;
        {
            obs::ScopedTimer span("serialize", serveMetrics().serializeMs,
                                  nullptr, "serve");
            resultJson = campaignToJson(result);
            serializeMs = span.elapsedMillis();
        }
        // Log completion before the response is written so a client
        // that has seen its result always finds the event on a
        // subsequent `events` query (matches the failure path).
        events_.append("request_completed", eventId(request.id));
        if (request.wantTimings) {
            const JsonValue timings = requestTimingsJson(
                executeMs, serializeMs, result.cacheStats);
            response = resultResponseJson(request.id,
                                          std::move(resultJson), &timings);
        } else {
            response =
                resultResponseJson(request.id, std::move(resultJson));
        }
    } catch (const std::exception &e) {
        // Executor-level failures (cell-level faults land in the
        // result, not here) fail the request, not the daemon.
        // std::invalid_argument means the spec cannot be evaluated at
        // all (e.g. a window too long to calibrate): the request is at
        // fault, not the daemon.
        const ErrorCode code =
            dynamic_cast<const std::invalid_argument *>(&e) != nullptr
                ? ErrorCode::BadRequest
                : ErrorCode::Internal;
        events_.append("request_failed",
                       eventId(request.id) + " " + std::string(e.what()));
        response = errorResponseJson(request.id, code, e.what());
    }

    std::lock_guard<std::mutex> lock(admissionMutex_);
    --inFlight_;
    serveMetrics().queueDepth.record(static_cast<double>(inFlight_));
    return response;
}

bool
Server::streamWatch(int fd, const Request &request)
{
    watchers_.fetch_add(1);
    auto &registry = obs::MetricsRegistry::global();
    obs::MetricsSnapshot prev = registry.snapshot();
    TraceCacheStats prevCache = repo_.stats();
    Clock::time_point lastTick = Clock::now();
    std::uint64_t seq = 0;
    bool alive = true;

    // First frame immediately (zero-interval deltas), then one per
    // tick: a subscriber sees current state without waiting a period.
    for (;;) {
        if (drainingFlag_.load(std::memory_order_relaxed))
            break;
        obs::MetricsSnapshot current = registry.snapshot();
        const obs::MetricsSnapshot delta =
            obs::diffSnapshots(prev, current);
        const TraceCacheStats cache = repo_.stats();
        TraceCacheStats cacheDelta;
        cacheDelta.lookups = cache.lookups - prevCache.lookups;
        cacheDelta.memoryHits = cache.memoryHits - prevCache.memoryHits;
        cacheDelta.diskLoads = cache.diskLoads - prevCache.diskLoads;
        cacheDelta.simulations =
            cache.simulations - prevCache.simulations;
        const Clock::time_point now = Clock::now();
        const double elapsedMs = millisBetween(lastTick, now);

        JsonValue deltaDoc = delta.toJson();
        JsonValue deltaMetrics;
        if (const JsonValue *metrics = deltaDoc.find("metrics"))
            deltaMetrics = *metrics;
        else
            deltaMetrics = JsonValue::array();
        const std::string frame = watchFrameJson(
            request.id, ++seq,
            watchStatsJson(elapsedMs, current, delta, cacheDelta),
            std::move(deltaMetrics));
        if (writeFrame(fd, frame) != FrameStatus::Ok) {
            alive = false;
            break;
        }
        prev = std::move(current);
        prevCache = cache;
        lastTick = now;
        if (request.watchCount != 0 && seq >= request.watchCount)
            break;

        // Sleep for the tick period, but wake when the peer sends a
        // frame (unsubscribe: the connection loop reads it next) or
        // hangs up. requestStop()'s shutdown(SHUT_RD) also makes the
        // fd readable, ending the stream at drain.
        pollfd pfd{fd, POLLIN, 0};
        const int timeoutMs = std::max(
            1, static_cast<int>(request.watchIntervalMs));
        const int ready = ::poll(&pfd, 1, timeoutMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            alive = false;
            break;
        }
        if (ready > 0)
            break; // readable: next request, EOF, or drain shutdown
    }
    watchers_.fetch_sub(1);
    return alive;
}

JsonValue
Server::watchStatsJson(double elapsedMs,
                       const obs::MetricsSnapshot &current,
                       const obs::MetricsSnapshot &delta,
                       const TraceCacheStats &cacheDelta) const
{
    JsonValue stats = JsonValue::object();
    stats.set("elapsed_ms", elapsedMs);
    stats.set("active_connections",
              static_cast<long long>(activeConnections_.load()));
    stats.set("watchers", static_cast<long long>(watchers_.load()));
    {
        std::lock_guard<std::mutex> lock(admissionMutex_);
        stats.set("queue_depth", static_cast<long long>(inFlight_));
    }
    stats.set("requests", static_cast<long long>(requests_.load()));
    stats.set("characterizations",
              static_cast<long long>(characterizations_.load()));

    const obs::MetricSnapshot *cells = current.find("campaign.cells");
    stats.set("cells_done",
              static_cast<long long>(cells ? cells->value : 0.0));
    const obs::MetricSnapshot *cellsDelta = delta.find("campaign.cells");
    const double cellsPerSec =
        (cellsDelta && elapsedMs > 0.0)
            ? cellsDelta->value * 1000.0 / elapsedMs
            : 0.0;
    stats.set("cells_per_sec", cellsPerSec);

    // Interval hit rate when the tick saw traffic; lifetime otherwise.
    const TraceCacheStats lifetime = repo_.stats();
    double hitRate = 0.0;
    if (cacheDelta.lookups > 0)
        hitRate = static_cast<double>(cacheDelta.memoryHits) /
                  static_cast<double>(cacheDelta.lookups);
    else if (lifetime.lookups > 0)
        hitRate = static_cast<double>(lifetime.memoryHits) /
                  static_cast<double>(lifetime.lookups);
    stats.set("cache_hit_rate", hitRate);

    const obs::MetricSnapshot *requestMs =
        current.find("serve.request_ms");
    stats.set("request_ms_p50",
              requestMs ? requestMs->histogram.quantile(0.5) : 0.0);
    stats.set("request_ms_p99",
              requestMs ? requestMs->histogram.quantile(0.99) : 0.0);
    return stats;
}

void
Server::metricsLoop()
{
    const auto interval = std::chrono::duration<double, std::milli>(
        config_.metricsIntervalMs);
    std::unique_lock<std::mutex> lock(stopMutex_);
    for (;;) {
        const bool stopping = stopCv_.wait_for(
            lock, interval, [this] { return stopRequested_; });
        lock.unlock();
        obs::writeMetricsJson(config_.metricsOut,
                              obs::MetricsRegistry::global().snapshot());
        lock.lock();
        if (stopping)
            return;
    }
}

JsonValue
Server::statsJson() const
{
    JsonValue stats = JsonValue::object();
    stats.set("connections",
              static_cast<long long>(connectionsAccepted_.load()));
    stats.set("dropped_connections",
              static_cast<long long>(droppedConnections_.load()));
    stats.set("requests", static_cast<long long>(requests_.load()));
    stats.set("characterizations",
              static_cast<long long>(characterizations_.load()));
    stats.set("rejected_queue_full",
              static_cast<long long>(rejectedQueueFull_.load()));
    stats.set("rejected_draining",
              static_cast<long long>(rejectedDraining_.load()));
    stats.set("bad_requests",
              static_cast<long long>(badRequests_.load()));
    {
        std::lock_guard<std::mutex> lock(admissionMutex_);
        stats.set("queue_depth", static_cast<long long>(inFlight_));
        stats.set("max_queue",
                  static_cast<long long>(config_.maxQueue));
    }
    stats.set("active_connections",
              static_cast<long long>(activeConnections_.load()));
    stats.set("watchers", static_cast<long long>(watchers_.load()));
    stats.set("events_logged",
              static_cast<long long>(events_.appended()));
    stats.set("events_dropped",
              static_cast<long long>(events_.dropped()));
    stats.set("jobs", static_cast<long long>(executor_->jobs()));
    stats.set("cached_models",
              static_cast<long long>(executor_->cachedModels()));

    const TraceCacheStats cache = repo_.stats();
    JsonValue cache_json = JsonValue::object();
    cache_json.set("lookups", static_cast<long long>(cache.lookups));
    cache_json.set("memory_hits",
                   static_cast<long long>(cache.memoryHits));
    cache_json.set("disk_loads",
                   static_cast<long long>(cache.diskLoads));
    cache_json.set("disk_stores",
                   static_cast<long long>(cache.diskStores));
    cache_json.set("disk_corrupt",
                   static_cast<long long>(cache.diskCorrupt));
    cache_json.set("simulations",
                   static_cast<long long>(cache.simulations));
    cache_json.set("evictions",
                   static_cast<long long>(cache.evictions));
    cache_json.set("resident_traces",
                   static_cast<long long>(repo_.residentTraces()));
    cache_json.set("resident_bytes",
                   static_cast<long long>(repo_.residentBytes()));
    cache_json.set("budget_bytes",
                   static_cast<long long>(repo_.memoryBudgetBytes()));
    stats.set("cache", std::move(cache_json));
    return stats;
}

} // namespace serve
} // namespace didt
