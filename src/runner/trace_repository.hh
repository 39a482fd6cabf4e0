/**
 * @file
 * Content-addressed cache of benchmark current traces.
 *
 * Generating a benchmark's per-cycle current trace (cycle-level
 * simulation of the Table-1 machine) dominates the cost of every
 * evaluation sweep, and a sweep revisits the same trace once per
 * impedance scale / analysis setting. The repository memoizes
 * benchmarkCurrentTrace() results keyed by the full content of the
 * request — every BenchmarkProfile field plus (instructions, seed,
 * trim) — so a campaign simulates each distinct workload exactly once
 * no matter how many cells share it or how many threads ask at once.
 *
 * Concurrency: the first requester of a key claims it and simulates;
 * concurrent requesters of the same key block on a shared future and
 * receive the same immutable trace. This makes the hit/miss counters
 * deterministic: simulations always equals the number of distinct
 * keys, independent of thread interleaving.
 *
 * Persistence: with a cache directory set, traces are also stored as
 * binary didt trace files named by their 64-bit content fingerprint,
 * so repeated campaign invocations skip simulation entirely. A
 * corrupt or truncated file is treated as a miss and overwritten.
 *
 * Memory budget: as a shared cross-request tier (the didt_serve
 * daemon keeps one repository alive for its whole lifetime) the
 * in-memory map can be capped with setMemoryBudgetBytes(). Completed
 * traces are tracked in LRU order; when the resident bytes exceed the
 * budget the least-recently-used complete traces are evicted (the
 * most recent one always stays, and in-flight productions are never
 * evicted). An evicted trace costs a disk load or a re-simulation on
 * its next request; callers holding shared_ptrs are unaffected.
 */

#ifndef DIDT_RUNNER_TRACE_REPOSITORY_HH
#define DIDT_RUNNER_TRACE_REPOSITORY_HH

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "util/types.hh"
#include "workload/profile.hh"

namespace didt
{

/** Parameters fully determining one benchmark current trace. */
struct TraceRequest
{
    BenchmarkProfile profile{};
    std::uint64_t instructions = 120000;
    std::uint64_t seed = 0;
    std::size_t trimWarmup = 4096;

    /**
     * Chip size. 1 (the default) is the legacy uniprocessor path:
     * the request is exactly (profile, instructions, seed, trim) and
     * keeps its historical fingerprint. With cores > 1 the request
     * describes an N-core Chip whose aggregate current is the cached
     * trace; coreProfiles/coreSeeds (both of size cores) give each
     * core its stream, and the shared-L2 parameters below shape the
     * bank-conflict model.
     */
    std::size_t cores = 1;
    std::vector<BenchmarkProfile> coreProfiles{}; ///< per-core, cores > 1
    std::vector<std::uint64_t> coreSeeds{};       ///< per-core, cores > 1
    std::size_t l2Banks = 8;        ///< chip shared-L2 banks
    std::size_t l2BankPenalty = 4;  ///< bank-conflict stall cycles

    /**
     * SimPoint-style sampling (sim/sampling.hh). sampleSkip == 0 (the
     * default) is full-detail simulation: the request hashes exactly
     * as before sampling existed, so every unsampled request keeps its
     * historical fingerprint and on-disk cache file. With
     * sampleSkip > 0 the sampling dimensions join the key — a sampled
     * trace is a different artifact and must never alias a full one.
     */
    Cycle sampleDetail = 0;   ///< detailed cycles per window
    Cycle sampleSkip = 0;     ///< skipped cycles between windows
    Cycle sampleWarmup = 512; ///< detailed refill tail of each skip
};

/**
 * 64-bit FNV-1a fingerprint over every field of the request (profile
 * parameters included, so two profiles that differ only in a phase
 * probability hash apart). Doubles are hashed by bit pattern; the
 * simulator is deterministic, so bit-equal requests produce bit-equal
 * traces.
 */
std::uint64_t fingerprintTraceRequest(const TraceRequest &request);

/** Monotonic counters describing repository effectiveness. */
struct TraceCacheStats
{
    std::uint64_t lookups = 0;     ///< total get() calls
    std::uint64_t memoryHits = 0;  ///< served from the in-memory map
    std::uint64_t diskLoads = 0;   ///< served from the cache directory
    std::uint64_t diskStores = 0;  ///< traces written to the cache dir
    std::uint64_t diskCorrupt = 0; ///< corrupt cache files rejected
    std::uint64_t simulations = 0; ///< actually simulated
    std::uint64_t evictions = 0;   ///< traces evicted by the byte budget

    /** Field-wise sum, for aggregating per-cell deltas. */
    TraceCacheStats &operator+=(const TraceCacheStats &other);
};

/** Thread-safe memoizing store of benchmark current traces. */
class TraceRepository
{
  public:
    /**
     * @param setup experiment environment traces are simulated in
     *        (kept by reference; must outlive the repository)
     * @param cache_dir directory for binary trace persistence; empty
     *        disables the disk tier. Created on first write if absent.
     */
    explicit TraceRepository(const ExperimentSetup &setup,
                             std::string cache_dir = "");

    TraceRepository(const TraceRepository &) = delete;
    TraceRepository &operator=(const TraceRepository &) = delete;

    /**
     * Fetch the trace for @p request, simulating it at most once per
     * repository (and, with a cache directory, at most once per
     * directory lifetime). Safe to call from any number of threads;
     * an exception during generation propagates to every waiter of
     * that key.
     *
     * @param delta when non-null, the counters this call contributed
     *        are also added to @p delta (unsynchronized: the caller
     *        owns it). Lets a multi-request consumer (the didt_serve
     *        daemon) attribute shared-repository traffic per request.
     */
    std::shared_ptr<const CurrentTrace>
    get(const TraceRequest &request, TraceCacheStats *delta = nullptr);

    /** Convenience wrapper building the request inline. */
    std::shared_ptr<const CurrentTrace>
    get(const BenchmarkProfile &profile, std::uint64_t instructions,
        std::uint64_t seed = 0, std::size_t trim_warmup = 4096);

    /**
     * Cap the resident bytes of completed traces. 0 (the default)
     * disables eviction. Shrinking the budget evicts immediately. The
     * budget is approximate: the most recently completed trace is
     * always kept, even when it alone exceeds the budget.
     */
    void setMemoryBudgetBytes(std::uint64_t bytes);

    /** The configured byte budget (0 = unlimited). */
    std::uint64_t memoryBudgetBytes() const;

    /** Bytes of completed traces currently resident in memory. */
    std::uint64_t residentBytes() const;

    /** Snapshot of the counters (consistent under concurrency). */
    TraceCacheStats stats() const;

    /** Number of traces currently resident in memory. */
    std::size_t residentTraces() const;

    /** Disk path a request would persist to ("" without a cache dir). */
    std::string cachePath(const TraceRequest &request) const;

  private:
    using TracePtr = std::shared_ptr<const CurrentTrace>;

    struct Entry
    {
        std::shared_future<TracePtr> future;
        std::uint64_t bytes = 0; ///< 0 until production completes
        bool resident = false;   ///< true once tracked in the LRU list
        std::list<std::uint64_t>::iterator lruIt; ///< valid iff resident
    };

    /** Generate (or load) the trace for one claimed key. */
    TracePtr produce(const TraceRequest &request, TraceCacheStats *delta);

    /** Move @p key to the front (MRU end) of the LRU list. */
    void touchLocked(Entry &entry);

    /** Evict LRU entries until the budget (if any) is satisfied, then
     *  record the resident size in the repo.resident_bytes gauge. */
    void enforceBudgetLocked();

    const ExperimentSetup &setup_;
    const std::string cacheDir_;

    mutable std::mutex mutex_;
    std::map<std::uint64_t, Entry> entries_;
    std::list<std::uint64_t> lru_; ///< front = most recently used
    std::uint64_t residentBytes_ = 0;
    std::uint64_t budgetBytes_ = 0;
    TraceCacheStats stats_;
};

} // namespace didt

#endif // DIDT_RUNNER_TRACE_REPOSITORY_HH
