#include "runner/trace_repository.hh"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <utility>

#include "obs/metrics.hh"
#include "obs/scoped_timer.hh"
#include "power/trace_io.hh"
#include "util/logging.hh"
#include "verify/failpoint.hh"

namespace didt
{

namespace
{

/**
 * Process-wide mirror of the per-repository counters. The per-instance
 * TraceCacheStats stays the authoritative, deterministic source for
 * campaign result JSON; these feed the metrics sidecar only.
 */
struct RepoMetrics
{
    obs::Counter lookups;
    obs::Counter memoryHits;
    obs::Counter diskLoads;
    obs::Counter diskStores;
    obs::Counter diskCorrupt;
    obs::Counter simulations;
    obs::Counter evictions;
    obs::Counter traceBytes;
    obs::Gauge residentBytes;
    obs::Histogram waitMs;
    obs::Histogram simulateMs;
};

RepoMetrics &
repoMetrics()
{
    auto &registry = obs::MetricsRegistry::global();
    static RepoMetrics metrics{
        registry.counter("repo.lookups"),
        registry.counter("repo.memory_hits"),
        registry.counter("repo.disk_loads"),
        registry.counter("repo.disk_stores"),
        registry.counter("repo.disk_corrupt"),
        registry.counter("repo.simulations"),
        registry.counter("repo.evictions"),
        registry.counter("repo.trace_bytes"),
        registry.gauge("repo.resident_bytes"),
        registry.histogram("repo.wait_ms"),
        registry.histogram("repo.simulate_ms"),
    };
    return metrics;
}

/** Incremental FNV-1a over raw bytes. */
class Fnv1a
{
  public:
    void bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }

    void f64(double v)
    {
        // Hash the bit pattern: the simulator is bit-deterministic, so
        // bit-equal parameters are the correct equivalence.
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Hash every field of @p p into @p h (order is part of the key). */
void
hashProfile(Fnv1a &h, const BenchmarkProfile &p)
{
    h.str(p.name);
    h.u64(p.floatingPoint ? 1 : 0);
    h.u64(p.codeBytes);
    h.u64(p.hotBytes);
    h.u64(p.warmBytes);
    h.u64(p.seed);
    h.u64(p.phases.size());
    for (const WorkloadPhase &ph : p.phases) {
        h.f64(ph.loadFrac);
        h.f64(ph.storeFrac);
        h.f64(ph.branchFrac);
        h.f64(ph.fpFrac);
        h.f64(ph.multFrac);
        h.f64(ph.divFrac);
        h.f64(ph.hotProb);
        h.f64(ph.warmProb);
        h.f64(ph.chaseProb);
        h.f64(ph.gateOnLoadProb);
        h.u64(ph.depFixed);
        h.f64(ph.predictableBranchFrac);
        h.f64(ph.depGeomP);
        h.f64(ph.dep2Prob);
        h.u64(ph.lengthInsts);
    }
}

} // namespace

TraceCacheStats &
TraceCacheStats::operator+=(const TraceCacheStats &other)
{
    lookups += other.lookups;
    memoryHits += other.memoryHits;
    diskLoads += other.diskLoads;
    diskStores += other.diskStores;
    diskCorrupt += other.diskCorrupt;
    simulations += other.simulations;
    evictions += other.evictions;
    return *this;
}

std::uint64_t
fingerprintTraceRequest(const TraceRequest &request)
{
    Fnv1a h;
    hashProfile(h, request.profile);
    h.u64(request.instructions);
    h.u64(request.seed);
    h.u64(request.trimWarmup);
    // Chip fields participate only for multi-core requests so every
    // single-core request keeps its historical fingerprint (and its
    // on-disk cache file).
    if (request.cores > 1) {
        h.u64(request.cores);
        h.u64(request.coreProfiles.size());
        for (const BenchmarkProfile &cp : request.coreProfiles)
            hashProfile(h, cp);
        h.u64(request.coreSeeds.size());
        for (std::uint64_t seed : request.coreSeeds)
            h.u64(seed);
        h.u64(request.l2Banks);
        h.u64(request.l2BankPenalty);
    }
    // Sampling dimensions participate only when sampling is on, so
    // unsampled requests keep their historical fingerprint.
    if (request.sampleSkip > 0) {
        h.u64(request.sampleDetail);
        h.u64(request.sampleSkip);
        h.u64(request.sampleWarmup);
    }
    return h.value();
}

TraceRepository::TraceRepository(const ExperimentSetup &setup,
                                 std::string cache_dir)
    : setup_(setup), cacheDir_(std::move(cache_dir))
{
}

std::string
TraceRepository::cachePath(const TraceRequest &request) const
{
    if (cacheDir_.empty())
        return "";
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.trc",
                  static_cast<unsigned long long>(
                      fingerprintTraceRequest(request)));
    return cacheDir_ + "/" + name;
}

void
TraceRepository::touchLocked(Entry &entry)
{
    if (entry.resident && entry.lruIt != lru_.begin())
        lru_.splice(lru_.begin(), lru_, entry.lruIt);
}

void
TraceRepository::enforceBudgetLocked()
{
    // Never evict the MRU entry: the budget is a cap on the *shared*
    // tier, not a way to thrash the trace a request is using right now.
    while (budgetBytes_ > 0 && residentBytes_ > budgetBytes_ &&
           lru_.size() > 1) {
        const std::uint64_t victim = lru_.back();
        auto it = entries_.find(victim);
        if (it != entries_.end()) {
            residentBytes_ -= it->second.bytes;
            entries_.erase(it);
        }
        lru_.pop_back();
        ++stats_.evictions;
        repoMetrics().evictions.add(1);
    }
    repoMetrics().residentBytes.record(
        static_cast<double>(residentBytes_));
}

void
TraceRepository::setMemoryBudgetBytes(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    budgetBytes_ = bytes;
    enforceBudgetLocked();
}

std::uint64_t
TraceRepository::memoryBudgetBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return budgetBytes_;
}

std::uint64_t
TraceRepository::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return residentBytes_;
}

std::shared_ptr<const CurrentTrace>
TraceRepository::get(const TraceRequest &request, TraceCacheStats *delta)
{
    const std::uint64_t key = fingerprintTraceRequest(request);

    std::shared_future<TracePtr> shared;
    std::promise<TracePtr> claim;
    bool producer = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.lookups;
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            // Completed or in flight: either way this caller shares
            // the one production, so it counts as a memory hit.
            ++stats_.memoryHits;
            touchLocked(it->second);
            shared = it->second.future;
        } else {
            producer = true;
            shared = claim.get_future().share();
            Entry entry;
            entry.future = shared;
            entries_.emplace(key, std::move(entry));
        }
    }

    RepoMetrics &metrics = repoMetrics();
    metrics.lookups.add(1);
    if (delta)
        ++delta->lookups;

    if (producer) {
        try {
            claim.set_value(produce(request, delta));
        } catch (...) {
            // Evict the failed production before publishing the
            // exception: waiters already holding the shared future see
            // the error, but the next get() for this key elects a
            // fresh producer instead of replaying a stale failure
            // forever.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                entries_.erase(key);
            }
            claim.set_exception(std::current_exception());
            return shared.get(); // rethrows; never returns
        }
        // Production succeeded: account the trace against the memory
        // budget and evict older entries if the shared tier overflowed.
        const TracePtr trace = shared.get(); // already ready
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = entries_.find(key);
            if (it != entries_.end() && !it->second.resident) {
                it->second.bytes = trace->size() * sizeof(Amp);
                lru_.push_front(key);
                it->second.lruIt = lru_.begin();
                it->second.resident = true;
                residentBytes_ += it->second.bytes;
                enforceBudgetLocked();
            }
        }
        return trace;
    }

    metrics.memoryHits.add(1);
    if (delta)
        ++delta->memoryHits;
    if (obs::metricsEnabled()) {
        // Time how long this consumer blocks behind the elected
        // producer (zero when the entry was already complete).
        const auto start = std::chrono::steady_clock::now();
        TracePtr trace = shared.get();
        metrics.waitMs.observe(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count());
        return trace;
    }
    return shared.get();
}

std::shared_ptr<const CurrentTrace>
TraceRepository::get(const BenchmarkProfile &profile,
                     std::uint64_t instructions, std::uint64_t seed,
                     std::size_t trim_warmup)
{
    TraceRequest request;
    request.profile = profile;
    request.instructions = instructions;
    request.seed = seed;
    request.trimWarmup = trim_warmup;
    return get(request);
}

TraceRepository::TracePtr
TraceRepository::produce(const TraceRequest &request,
                         TraceCacheStats *delta)
{
    if (DIDT_FAILPOINT_KEYED("repo.produce", request.profile.name))
        throw std::runtime_error("injected fault (repo.produce): " +
                                 request.profile.name);

    RepoMetrics &metrics = repoMetrics();
    const std::string path = cachePath(request);
    bool rejected_corrupt = false;
    if (!path.empty()) {
        std::error_code ec;
        const bool on_disk = std::filesystem::exists(path, ec);
        if (on_disk) {
            std::optional<CurrentTrace> cached;
            if (!DIDT_FAILPOINT_KEYED("repo.disk_read", path))
                cached = tryReadTraceBinary(path);
            if (cached) {
                metrics.diskLoads.add(1);
                metrics.traceBytes.add(cached->size() * sizeof(Amp));
                if (delta)
                    ++delta->diskLoads;
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.diskLoads;
                return std::make_shared<const CurrentTrace>(
                    *std::move(cached));
            }
            // Present but unreadable: reject it, regenerate, and let
            // the write below replace the bad file.
            rejected_corrupt = true;
            metrics.diskCorrupt.add(1);
            didt_warn("rejecting corrupt trace cache file ", path);
        }
    }

    CurrentTrace trace;
    {
        obs::ScopedTimer timer("simulate " + request.profile.name,
                               metrics.simulateMs, nullptr, "repo");
        SamplingConfig sampling;
        sampling.detailCycles = request.sampleDetail;
        sampling.skipCycles = request.sampleSkip;
        sampling.warmupCycles = request.sampleWarmup;
        if (request.cores > 1) {
            // Chip request: co-simulate the per-core streams and cache
            // the aggregate chip current.
            if (request.coreProfiles.size() != request.cores ||
                request.coreSeeds.size() != request.cores)
                throw std::runtime_error(
                    "chip trace request: coreProfiles/coreSeeds must "
                    "match cores");
            std::vector<ChipWorkload> workloads(request.cores);
            for (std::size_t i = 0; i < request.cores; ++i) {
                workloads[i].profile = &request.coreProfiles[i];
                workloads[i].seed = request.coreSeeds[i];
            }
            ChipConfig chip;
            chip.l2Banks = request.l2Banks;
            chip.l2BankPenalty = request.l2BankPenalty;
            TraceSet set = chipCurrentTrace(setup_, workloads,
                                            request.instructions,
                                            request.trimWarmup, chip,
                                            sampling);
            trace = std::move(set.aggregate);
        } else {
            trace = benchmarkCurrentTrace(
                setup_, request.profile, request.instructions,
                request.seed, request.trimWarmup, sampling);
        }
    }

    bool stored = false;
    if (!path.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cacheDir_, ec);
        if (ec) {
            didt_warn("cannot create trace cache dir ", cacheDir_, ": ",
                      ec.message());
        } else if (DIDT_FAILPOINT_KEYED("repo.disk_write", path)) {
            // A failed store is not fatal: the trace is already in
            // memory; only a later process pays a re-simulation.
            didt_warn("injected fault (repo.disk_write): not storing ",
                      path);
        } else {
            writeTraceBinary(path, trace);
            stored = true;
            metrics.diskStores.add(1);
        }
    }

    metrics.simulations.add(1);
    metrics.traceBytes.add(trace.size() * sizeof(Amp));
    if (delta) {
        ++delta->simulations;
        if (rejected_corrupt)
            ++delta->diskCorrupt;
        if (stored)
            ++delta->diskStores;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.simulations;
    if (rejected_corrupt)
        ++stats_.diskCorrupt;
    if (stored)
        ++stats_.diskStores;
    return std::make_shared<const CurrentTrace>(std::move(trace));
}

TraceCacheStats
TraceRepository::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
TraceRepository::residentTraces() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace didt
