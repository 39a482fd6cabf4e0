/**
 * @file
 * The didt-serve-v1 request/response schema.
 *
 * Frame payloads are JSON documents (util/json). Every request carries
 * the schema marker, a type, and a client-chosen id echoed back in the
 * response so clients can correlate:
 *
 *   {"schema": "didt-serve-v1", "type": "characterize",
 *    "id": "r1", "spec": { ...didt-campaign-v1 spec fields... }}
 *
 * Request types: "ping" (liveness), "stats" (daemon counters),
 * "characterize" (run the embedded campaign spec; every spec field is
 * optional and defaults as in CampaignSpec), "watch" (subscribe to
 * periodic live-stats frames), and "events" (read the daemon's bounded
 * event ring). Responses mirror the envelope with type "pong",
 * "stats", "result", "watch", "events", or "error":
 *
 *   {"schema": "didt-serve-v1", "type": "result", "id": "r1",
 *    "result": { ...didt-campaign-v1 document... }}
 *   {"schema": "didt-serve-v1", "type": "error", "id": "r1",
 *    "error": {"code": "queue_full", "message": "..."}}
 *
 * The embedded result document is byte-identical to what didt_campaign
 * writes for the same spec (both sides share campaignToJson and the
 * deterministic writer), which is what lets didt_client replay a
 * campaign file and reproduce it byte-for-byte.
 *
 * Live-telemetry extension (additive, version-negotiated): a "pong"
 * response advertises the daemon's optional capabilities in a
 * "features" array ("watch", "events", "timings"); a didt-serve-v1
 * peer without the member supports none of them. A characterize
 * request may set "timings": true to receive a wall-time breakdown
 * (execute/serialize ms plus the request's cache traffic) as a "timings"
 * sibling of "result" — never inside the result document, so replay
 * byte-identity is unaffected. A watch request ({"interval_ms": N,
 * "count": M}) turns the connection into a stream: the server sends
 * one "watch" frame per tick ({"seq", "stats", "delta"}) until M
 * frames were sent (0 = unbounded), the client sends any other
 * request (which unsubscribes and is then answered normally), or the
 * daemon drains. An events request ({"after": S, "limit": N}) returns
 * ring entries with seq > S.
 *
 * Error codes are closed-enumeration (ErrorCode) so clients can switch
 * on them: bad_request (unparseable or invalid request — the sender's
 * fault), queue_full (typed backpressure: max_queue requests already
 * in flight; retry later), shutting_down (daemon is draining), internal (the
 * request was valid but evaluation failed).
 */

#ifndef DIDT_SERVE_PROTOCOL_HH
#define DIDT_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event_log.hh"
#include "runner/campaign.hh"
#include "util/json.hh"

namespace didt
{
namespace serve
{

/** Schema marker carried by every request and response. */
inline constexpr const char *kProtocolSchema = "didt-serve-v1";

/** Optional capabilities advertised in "pong" (sorted). "chip" means
 *  characterize specs may carry cores/mixes/l2_banks/l2_bank_penalty
 *  members (N-core chip cells); "mc" means they may carry the
 *  mc_draws/mc_seed/mc_sigma_* members (variation-aware Monte Carlo
 *  cells that replay byte-identically). */
inline constexpr const char *kProtocolFeatures[] = {"chip", "events",
                                                    "mc", "timings",
                                                    "watch"};

/** Typed error codes a response can carry. */
enum class ErrorCode
{
    BadRequest,   ///< malformed or invalid request payload
    QueueFull,    ///< max_queue requests in flight (backpressure)
    ShuttingDown, ///< daemon is draining; no new work accepted
    Internal,     ///< valid request, evaluation failed
};

/** Wire name of an error code ("bad_request", ...). */
const char *errorCodeName(ErrorCode code);

/** What a request asks the daemon to do. */
enum class RequestType
{
    Ping,
    Stats,
    Characterize,
    Watch,
    Events,
};

/** A decoded request. */
struct Request
{
    RequestType type = RequestType::Ping;
    std::string id;    ///< echoed back verbatim; may be empty
    CampaignSpec spec; ///< Characterize only

    /** Characterize: echo a "timings" breakdown in the response. */
    bool wantTimings = false;

    /** Stats: render in Prometheus text exposition format. */
    bool wantPrometheus = false;

    /** Watch: tick period (>= 10 ms enforced at parse). */
    double watchIntervalMs = 1000.0;

    /** Watch: frames to send before the stream ends (0 = unbounded). */
    std::uint64_t watchCount = 0;

    /** Events: return ring entries with seq > after. */
    std::uint64_t eventsAfter = 0;

    /** Events: max entries returned (0 = no limit). */
    std::uint64_t eventsLimit = 0;
};

/**
 * Parse and validate one request payload. Never throws: on any problem
 * (bad JSON, wrong schema, unknown type, invalid spec) fills @p error
 * with a bad_request message and returns false.
 */
bool parseRequest(const std::string &payload, Request *request,
                  std::string *error);

/** Serialize a characterize request (didt_client's encoder). */
std::string characterizeRequestJson(const std::string &id,
                                    const JsonValue &spec,
                                    bool timings = false);

/** Serialize a ping / stats request (Prometheus rendering optional). */
std::string pingRequestJson(const std::string &id);
std::string statsRequestJson(const std::string &id,
                             bool prometheus = false);

/** Serialize a watch subscription request. */
std::string watchRequestJson(const std::string &id, double intervalMs,
                             std::uint64_t count);

/** Serialize an events query request. */
std::string eventsRequestJson(const std::string &id,
                              std::uint64_t after, std::uint64_t limit);

/**
 * Serialize a "result" response embedding a campaign document, plus an
 * optional "timings" sibling (never merged into the result document —
 * replay byte-identity depends on "result" alone).
 */
std::string resultResponseJson(const std::string &id, JsonValue result,
                               const JsonValue *timings = nullptr);

/** Serialize a "pong" response (advertises kProtocolFeatures). */
std::string pongResponseJson(const std::string &id);

/** Serialize a "stats" response embedding a daemon-stats object. */
std::string statsResponseJson(const std::string &id, JsonValue stats);

/** Serialize a "stats" response carrying Prometheus exposition text. */
std::string statsPrometheusResponseJson(const std::string &id,
                                        const std::string &text);

/** Serialize one "watch" stream frame. */
std::string watchFrameJson(const std::string &id, std::uint64_t seq,
                           JsonValue stats, JsonValue delta);

/** Serialize an "events" response from a ring query. */
std::string eventsResponseJson(const std::string &id,
                               const obs::EventLog::Query &query);

/** Serialize an "error" response with a typed code. */
std::string errorResponseJson(const std::string &id, ErrorCode code,
                              const std::string &message);

} // namespace serve
} // namespace didt

#endif // DIDT_SERVE_PROTOCOL_HH
