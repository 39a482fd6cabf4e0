/**
 * @file
 * Bounded in-memory ring of structured daemon events.
 *
 * The serve daemon appends one Event per lifecycle transition
 * (request admitted/rejected/completed/failed, failpoint fired);
 * clients read them back with the `events` request and the daemon
 * dumps the ring on SIGTERM drain. The ring is bounded:
 * when capacity is reached the oldest event is dropped and a drop
 * counter incremented, so a long-lived daemon holds the most recent
 * window of activity at a fixed memory cost.
 *
 * Sequence numbers are assigned at append time, start at 1, and never
 * reuse: a client polls with `after = <last seen seq>` and misses
 * nothing that is still in the ring (the dropped counter tells it how
 * much history fell off the far end).
 */

#ifndef DIDT_OBS_EVENT_LOG_HH
#define DIDT_OBS_EVENT_LOG_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace didt::obs
{

/** One structured daemon event. */
struct Event
{
    std::uint64_t seq = 0; ///< assignment order, starts at 1
    double atMs = 0.0;     ///< milliseconds since the log's epoch
    std::string type;      ///< e.g. "request_admitted", "failpoint_fired"
    std::string detail;    ///< free-form context (request id, site, ...)
};

/** Bounded, thread-safe event ring. */
class EventLog
{
  public:
    using Clock = std::chrono::steady_clock;

    /** @param capacity max retained events (>= 1 enforced). */
    explicit EventLog(std::size_t capacity = 1024);

    /** Append one event, dropping the oldest at capacity. */
    void append(std::string type, std::string detail = {});

    /** What a query returns. */
    struct Query
    {
        std::vector<Event> events; ///< seq-ascending
        std::uint64_t dropped = 0; ///< total evicted since start
        std::uint64_t next = 0;    ///< pass as `after` to resume
    };

    /**
     * Events with seq > @p after, oldest first, at most @p limit
     * (0 = no limit). `next` is the last returned seq (or @p after
     * when nothing matched), i.e. the resume cursor.
     */
    Query since(std::uint64_t after, std::size_t limit = 0) const;

    /** Events ever appended. */
    std::uint64_t appended() const;

    /** Events evicted by the capacity bound. */
    std::uint64_t dropped() const;

    /** Retained ring size. */
    std::size_t size() const;

    std::size_t capacity() const { return capacity_; }

  private:
    const std::size_t capacity_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::deque<Event> ring_;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t dropped_ = 0;
};

} // namespace didt::obs

#endif // DIDT_OBS_EVENT_LOG_HH
