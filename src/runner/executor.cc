#include "runner/executor.hh"

#include <chrono>
#include <cstring>
#include <future>
#include <optional>
#include <span>
#include <stdexcept>

#include "core/emergency_estimator.hh"
#include "obs/metrics.hh"
#include "power/variation.hh"
#include "obs/scoped_timer.hh"
#include "util/json.hh"
#include "verify/failpoint.hh"
#include "wavelet/basis.hh"
#include "workload/generator.hh"
#include "workload/mix.hh"

namespace didt
{

namespace
{

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Campaign-level metrics (sidecar only; never read for result JSON). */
struct CampaignMetrics
{
    obs::Counter cells;
    obs::Counter cellFailures;
    obs::Counter cellsInterrupted;
    obs::Histogram cellMs;
    obs::Histogram calibrateMs;
    obs::Counter calibrateModels;  ///< variance models fitted
    obs::Counter calibrateWindows; ///< training windows whose rows were extracted
};

CampaignMetrics &
campaignMetrics()
{
    auto &registry = obs::MetricsRegistry::global();
    static CampaignMetrics metrics{
        registry.counter("campaign.cells"),
        registry.counter("campaign.cell_failures"),
        registry.counter("campaign.cells_interrupted"),
        registry.histogram("campaign.cell_ms"),
        registry.histogram("campaign.calibrate_ms"),
        registry.counter("calibrate.models"),
        registry.counter("calibrate.windows"),
    };
    return metrics;
}

/**
 * Stable identity of one campaign cell, used as the failpoint key for
 * the campaign.cell site and in failure messages: "mcf@1.2". The scale
 * prints exactly like the result JSON, so spec strings can be copied
 * from campaign output.
 */
std::string
cellKey(const std::string &benchmark, double scale, std::size_t cores = 1,
        std::size_t draw = 0, bool monte_carlo = false)
{
    std::string key = benchmark + "@" + jsonNumber(scale);
    // Chip and Monte Carlo cells extend the key; single-core MC-off
    // cells keep the historical form so existing failpoint specs stay
    // valid.
    if (cores != 1)
        key += "@c" + std::to_string(cores);
    if (monte_carlo)
        key += "@d" + std::to_string(draw);
    return key;
}

/**
 * Build the trace request for one plan cell. A single-core cell —
 * including a 1-core mix cell, which collapses to its core-0 profile
 * and seed — produces exactly the legacy request, so its cache
 * fingerprint (and on-disk trace file) is unchanged; a multi-core
 * cell carries per-core profiles with deterministically derived
 * seeds. Throws on unknown mix names (serve-safe: the failure lands
 * in the cell, not the process).
 */
TraceRequest
cellTraceRequest(const CampaignSpec &spec, std::size_t workload_index,
                 std::size_t cores)
{
    TraceRequest request;
    request.instructions = spec.instructions;
    request.trimWarmup = spec.trimWarmup;
    request.sampleDetail = spec.sampleDetail;
    request.sampleSkip = spec.sampleSkip;
    request.sampleWarmup = spec.sampleWarmup;

    if (spec.mixes.empty()) {
        // Benchmarks axis: the benchmark is cloned across cores with
        // derived per-core seeds.
        const BenchmarkProfile &profile =
            spec.profiles[workload_index];
        request.profile = profile;
        request.seed = spec.seed;
        if (cores > 1) {
            request.cores = cores;
            request.l2Banks = spec.l2Banks;
            request.l2BankPenalty = spec.l2BankPenalty;
            for (std::size_t i = 0; i < cores; ++i) {
                request.coreProfiles.push_back(profile);
                request.coreSeeds.push_back(
                    deriveCoreSeed(spec.seed, i));
            }
        }
        return request;
    }

    const std::string &name = spec.mixes[workload_index];
    const std::optional<WorkloadMix> mix = findMixByName(name);
    if (!mix)
        throw std::runtime_error("unknown workload mix: " + name);
    request.profile = mixProfileForCore(*mix, 0);
    request.seed = mixCoreSeed(*mix, spec.seed, 0);
    if (cores > 1) {
        request.cores = cores;
        request.l2Banks = spec.l2Banks;
        request.l2BankPenalty = spec.l2BankPenalty;
        for (std::size_t i = 0; i < cores; ++i) {
            request.coreProfiles.push_back(mixProfileForCore(*mix, i));
            request.coreSeeds.push_back(
                mixCoreSeed(*mix, spec.seed, i));
        }
    }
    return request;
}

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

} // namespace

Executor::Executor(const ExperimentSetup &setup, TraceRepository &repo,
                   std::size_t jobs)
    : setup_(setup), repo_(repo), pool_(jobs),
      workspaces_(pool_.size())
{
    // Register every metric a run can touch now, so a sidecar carries
    // them even when every cell fails before it analyses a trace.
    (void)campaignMetrics();
    registerAnalysisMetrics();
}

std::size_t
Executor::cachedModels() const
{
    std::lock_guard<std::mutex> lock(modelsMutex_);
    return models_.size();
}

const std::vector<CurrentTrace> &
Executor::trainingTraces()
{
    std::lock_guard<std::mutex> lock(trainingMutex_);
    if (!trainingBuilt_) {
        const std::vector<std::function<CurrentTrace()>> builders =
            calibrationTraceBuilders(setup_);
        training_.resize(builders.size());
        obs::ScopedTimer phase("campaign.training", {}, nullptr,
                               "campaign");
        // Workers start with an empty TraceContext; re-apply the
        // caller's so the per-trace work nests under the phase span.
        const obs::TraceContext ctx = obs::currentTraceContext();
        pool_.parallelFor(builders.size(), [&](std::size_t i) {
            obs::ScopedTraceContext scope(ctx);
            training_[i] = builders[i]();
        });
        trainingBuilt_ = true;
    }
    return training_;
}

std::vector<const Executor::CalibratedScale *>
Executor::calibratedScales(const CampaignSpec &spec)
{
    const std::vector<double> &scales = spec.impedanceScales;
    std::vector<const CalibratedScale *> result(scales.size(), nullptr);

    // The lock is held across the whole calibration phase: concurrent
    // runs serialize here (the parallelFor still fans out across the
    // pool), and an entry is never replaced once inserted, so returned
    // pointers stay valid for the executor's lifetime.
    std::lock_guard<std::mutex> lock(modelsMutex_);

    std::vector<std::size_t> missing;
    for (std::size_t si = 0; si < scales.size(); ++si) {
        const ModelKey key{doubleBits(scales[si]), spec.windowLength,
                           spec.levels, spec.basis};
        auto it = models_.find(key);
        if (it != models_.end()) {
            result[si] = it->second.get();
        } else {
            auto entry = std::make_unique<CalibratedScale>(
                setup_.makeNetwork(scales[si]));
            result[si] = entry.get();
            models_.emplace(key, std::move(entry));
            missing.push_back(si);
        }
    }
    if (missing.empty())
        return result;

    const std::vector<CurrentTrace> &training = trainingTraces();
    const WaveletBasis basis = WaveletBasis::byName(spec.basis);
    obs::ScopedTimer phase("campaign.calibrate", {}, nullptr,
                           "campaign");
    const obs::TraceContext ctx = obs::currentTraceContext();
    std::vector<std::unique_ptr<VoltageVarianceModel>> fits(missing.size());
    for (std::size_t mi = 0; mi < missing.size(); ++mi)
        fits[mi] = std::make_unique<VoltageVarianceModel>(
            result[missing[mi]]->network, spec.windowLength, spec.levels,
            basis);

    // The training windows' regression rows are window features, the
    // same for every scale: extract them once, one task per training
    // trace, into one buffer in trace order, and let each scale's fit
    // add only its targets.
    const VoltageVarianceModel &shape = *fits.front();
    const std::size_t cols = shape.regressionColumns();
    std::vector<std::size_t> firstRow(training.size() + 1, 0);
    for (std::size_t t = 0; t < training.size(); ++t)
        firstRow[t + 1] =
            firstRow[t] + training[t].size() / spec.windowLength;
    std::vector<double> rows(firstRow.back() * cols);
    std::vector<std::string> errors(missing.size());
    try {
        pool_.parallelFor(training.size(), [&](std::size_t t) {
            obs::ScopedTraceContext scope(ctx);
            obs::ScopedTimer timer("calibrate rows", obs::Histogram{},
                                   nullptr, "campaign");
            AnalysisWorkspace &ws = workspaces_[ThreadPool::workerIndex()];
            shape.regressionRows(
                training[t],
                std::span<double>(rows).subspan(
                    firstRow[t] * cols,
                    (firstRow[t + 1] - firstRow[t]) * cols),
                ws);
        });
        campaignMetrics().calibrateWindows.add(firstRow.back());

        pool_.parallelFor(missing.size(), [&](std::size_t mi) {
            obs::ScopedTraceContext scope(ctx);
            obs::ScopedTimer timer("calibrate scale",
                                   campaignMetrics().calibrateMs, nullptr,
                                   "campaign");
            try {
                fits[mi]->calibrateOnRows(training, rows);
            } catch (const std::invalid_argument &e) {
                // Hand the caller the message, not the exception: the
                // C++ runtime counts references to a thrown object
                // outside ThreadSanitizer's view, so freeing it on
                // another thread than the reader's reports a race.
                errors[mi] = e.what();
                return;
            }
            campaignMetrics().calibrateModels.add(1);
            // result[si] points at the entry this run just inserted, so
            // writing through the const_cast is exclusive to this task.
            const_cast<CalibratedScale *>(result[missing[mi]])->model =
                std::move(fits[mi]);
        });
        for (const std::string &error : errors)
            if (!error.empty())
                throw std::invalid_argument(error);
    } catch (...) {
        // A failed fit leaves no entry behind, so the next run with its
        // key fits again instead of finding a null model.
        std::erase_if(models_, [](const auto &kv) {
            return kv.second->model == nullptr;
        });
        throw;
    }
    return result;
}

CampaignResult
Executor::run(const CampaignPlan &plan, const ExecutionHooks &hooks)
{
    const Clock::time_point campaign_start = Clock::now();

    // Attach this run's spans under the caller-provided context (the
    // daemon passes its request's execute span; batch CLI passes the
    // default root), for this thread and — via capture below — the
    // pool workers evaluating cells.
    obs::ScopedTraceContext run_context(hooks.traceContext);

    CampaignResult result;
    result.spec = plan.spec;
    result.jobs = pool_.size();
    const std::vector<double> &scales = plan.spec.impedanceScales;
    const std::vector<std::size_t> &coreCounts =
        plan.spec.effectiveCoreCounts();

    result.cells.resize(plan.cellCount());
    std::vector<TraceCacheStats> deltas(plan.cellCount());

    // Phase 1+2: training set and per-scale calibrated models, both
    // memoized across runs. A run that arrives pre-cancelled skips
    // calibration entirely and reports every cell as interrupted.
    const bool cancelled_early =
        hooks.cancel && hooks.cancel->load(std::memory_order_relaxed);
    std::vector<const CalibratedScale *> models;
    if (!cancelled_early)
        models = calibratedScales(plan.spec);
    result.calibrationMillis = millisSince(campaign_start);

    // Phase 3: the sweep, one pool task per group: a (workload, cores,
    // scale) with all of its Monte Carlo draws, or a single cell when
    // MC is off. Every draw keeps the nominal trace and model, and the
    // estimate reads the network only through the scale's calibrated
    // factors, so one many-model estimate per trace serves every scale
    // and draw; each draw adds only its measured side. Cells are
    // stored benchmark-major for reporting (a group's draws
    // contiguous), but groups go out in the plan's scale-major order
    // of draw 0, so the first batch of tasks covers distinct workloads
    // and primes the trace cache before the sharing groups queue up
    // behind it.
    std::optional<obs::ScopedTimer> sweep_phase;
    sweep_phase.emplace("campaign.sweep", obs::Histogram{}, nullptr,
                        "campaign");
    // Captured after the sweep span opens, so cell spans evaluated on
    // pool workers parent under it. Labels are precomputed per profile
    // (not per cell) and interned by ScopedTimer, so span creation on
    // the hot path does not allocate.
    const obs::TraceContext cell_context = obs::currentTraceContext();
    std::vector<std::string> cell_labels;
    cell_labels.reserve(plan.workloadCount());
    for (std::size_t pi = 0; pi < plan.workloadCount(); ++pi)
        cell_labels.push_back("cell " + plan.workloadName(pi));
    const std::size_t draws = plan.spec.drawCount();
    // One estimate slot per (workload, cores): the trace's profile for
    // every scale. The first draw of any of the trace's groups that
    // gets past its failpoint and lookup fills it under the slot's
    // lock; the trace's other groups wait on that lock and copy their
    // scale's profile. A throwing estimate leaves the slot empty, so
    // the next draw retries and fails the same way.
    struct TraceEstimate
    {
        std::mutex mutex;
        std::vector<EmergencyProfile> profiles;
    };
    std::vector<TraceEstimate> estimates(plan.workloadCount() *
                                         coreCounts.size());
    std::vector<const VoltageVarianceModel *> scaleModels;
    for (const CalibratedScale *cal : models)
        scaleModels.push_back(cal->model.get());
    std::mutex progress_mutex;
    std::vector<std::future<void>> pending;
    std::vector<std::size_t> pendingGroup; // submission order -> draw 0
    pending.reserve(plan.order.size() / draws);
    pendingGroup.reserve(plan.order.size() / draws);
    for (const PlanCell &head : plan.order) {
        if (head.drawIndex != 0)
            continue;
        const std::size_t first = plan.storageIndex(head);
        const std::size_t pi = head.profileIndex;
        const std::size_t si = head.scaleIndex;
        const std::size_t cores = coreCounts[head.coreIndex];
        // Identity fields are written on this thread before the task
        // runs, so even a task that faults before touching its cells
        // (e.g. an injected pool.task failure) leaves fully identified
        // failed cells behind.
        for (std::size_t di = 0; di < draws; ++di) {
            CampaignCell &submitted = result.cells[first + di];
            submitted.benchmark = plan.workloadName(pi);
            submitted.impedanceScale = scales[si];
            submitted.cores = cores;
            submitted.draw = di;
            if (cancelled_early) {
                submitted.failed = true;
                submitted.error = "interrupted before evaluation";
                campaignMetrics().cellsInterrupted.add(1);
            }
        }
        if (cancelled_early)
            continue;
        pendingGroup.push_back(first);
        const std::size_t ti = pi * coreCounts.size() + head.coreIndex;
        pending.push_back(pool_.submit([&, first, pi, si, cores, ti] {
            obs::ScopedTraceContext cell_scope(cell_context);
            AnalysisWorkspace &ws = workspaces_[ThreadPool::workerIndex()];
            const CalibratedScale &cal = *models[si];
            for (std::size_t di = 0; di < draws; ++di) {
                const std::size_t ci = first + di;
                obs::ScopedTimer span(cell_labels[pi],
                                      campaignMetrics().cellMs, nullptr,
                                      "campaign");
                campaignMetrics().cells.add(1);
                const Clock::time_point cell_start = Clock::now();
                CampaignCell &cell = result.cells[ci];
                try {
                    if (hooks.cancel &&
                        hooks.cancel->load(std::memory_order_relaxed)) {
                        cell.failed = true;
                        cell.error = "interrupted before evaluation";
                        campaignMetrics().cellsInterrupted.add(1);
                    } else {
                        const std::string key = cellKey(
                            plan.workloadName(pi), scales[si], cores, di,
                            plan.spec.isMonteCarlo());
                        if (DIDT_FAILPOINT_KEYED("campaign.cell", key))
                            throw std::runtime_error(
                                "injected fault (campaign.cell): " + key);
                        const TraceRequest request =
                            cellTraceRequest(plan.spec, pi, cores);
                        const std::shared_ptr<const CurrentTrace> trace =
                            repo_.get(request, &deltas[ci]);
                        EmergencyProfile ep;
                        {
                            TraceEstimate &slot = estimates[ti];
                            std::lock_guard<std::mutex> lock(slot.mutex);
                            if (slot.profiles.empty())
                                slot.profiles = estimateEmergencies(
                                    *trace, scaleModels,
                                    plan.spec.lowThreshold,
                                    plan.spec.highThreshold, ws, {},
                                    plan.spec.useCorrelation);
                            ep = slot.profiles[si];
                        }
                        // A draw perturbs the supply network only; the
                        // trace and the calibrated variance model stay
                        // nominal, so the per-draw spread measures
                        // chip yield and model robustness across
                        // process corners at once.
                        std::optional<SupplyNetwork> drawn;
                        if (plan.spec.isMonteCarlo()) {
                            SupplyNetworkConfig varied = drawSupplyConfig(
                                setup_.supplyBase, plan.spec.variation(),
                                deriveDrawSeed(plan.spec.mcSeed, di));
                            varied.impedanceScale = scales[si];
                            drawn.emplace(varied);
                        }
                        measureEmergencies(
                            *trace, drawn ? *drawn : cal.network,
                            plan.spec.lowThreshold, plan.spec.highThreshold,
                            ep);

                        cell.traceCycles = trace->size();
                        cell.windows = ep.windows;
                        cell.estimatedBelowPct = 100.0 * ep.estimatedBelow;
                        cell.measuredBelowPct = 100.0 * ep.measuredBelow;
                        cell.estimatedAbovePct = 100.0 * ep.estimatedAbove;
                        cell.measuredAbovePct = 100.0 * ep.measuredAbove;
                        cell.estimatedVariance = ep.estimatedVariance;
                        cell.measuredVariance = ep.measuredVariance;
                    }
                } catch (const std::exception &e) {
                    // A faulting cell is a result, not an abort: the
                    // rest of the sweep keeps going and the failure
                    // lands in the result JSON.
                    cell.failed = true;
                    cell.error = e.what();
                    campaignMetrics().cellFailures.add(1);
                }
                cell.wallMillis = millisSince(cell_start);
                if (hooks.onCell) {
                    std::lock_guard<std::mutex> lock(progress_mutex);
                    hooks.onCell(cell);
                }
            }
        }));
    }
    for (std::future<void> &f : pending)
        f.wait();
    for (std::size_t i = 0; i < pending.size(); ++i) {
        try {
            pending[i].get();
        } catch (const std::exception &e) {
            // The task itself faulted outside its cells' try blocks (an
            // injected pool.task fault): record it against every cell
            // of that group instead of aborting the campaign.
            for (std::size_t di = 0; di < draws; ++di) {
                CampaignCell &cell = result.cells[pendingGroup[i] + di];
                if (!cell.failed) {
                    cell.failed = true;
                    cell.error = e.what();
                    campaignMetrics().cellFailures.add(1);
                }
            }
        }
    }
    sweep_phase.reset();

    // The result's cache section is the sum of what this run's cells
    // observed — for a fresh repository that equals the repository
    // totals; for the daemon's shared repository it is this request's
    // own traffic.
    for (const TraceCacheStats &delta : deltas)
        result.cacheStats += delta;
    result.interrupted =
        hooks.cancel && hooks.cancel->load(std::memory_order_relaxed);
    result.wallMillis = millisSince(campaign_start);
    return result;
}

} // namespace didt
