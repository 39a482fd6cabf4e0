/**
 * @file
 * Campaign executor: the "pool + repository + metrics" half of the
 * request / plan / execute split.
 *
 * An Executor owns the worker pool, the per-worker analysis
 * workspaces, and a cache of calibrated variance models, and evaluates
 * CampaignPlans against a shared TraceRepository. It is long-lived by
 * design: the didt_serve daemon keeps one Executor for its whole
 * lifetime so every request reuses the same threads, workspaces,
 * calibrated models, and trace cache, while batch didt_campaign builds
 * one per invocation. Both paths produce byte-identical result JSON
 * for identical specs because cell values depend only on the spec —
 * never on scheduling, sharing, or which entry point asked.
 *
 * Calibration caching: the training trace set depends only on the
 * experiment setup and is built once per executor; calibrated models
 * are memoized by (impedance scale, window, levels, basis), so a
 * daemon serving many requests with the paper's standard analysis
 * configuration calibrates each scale exactly once. Calibration is
 * deterministic, so a cached model is bit-identical to a fresh one.
 *
 * run() is safe to call from multiple threads; tasks from concurrent
 * runs interleave on the shared pool. A task evaluates one group: a
 * (workload, cores, scale) with all of its Monte Carlo draws, or one
 * cell when MC is off. A trace's groups share one estimate for every
 * scale through a slot that lives for one run. Each worker owns one
 * workspace and runs one task at a time, so workspace reuse across
 * concurrent runs is race-free.
 */

#ifndef DIDT_RUNNER_EXECUTOR_HH
#define DIDT_RUNNER_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hh"
#include "core/variance_model.hh"
#include "obs/trace_event.hh"
#include "runner/plan.hh"
#include "runner/thread_pool.hh"
#include "runner/trace_repository.hh"

namespace didt
{

/** Optional observers and controls for one Executor::run call. */
struct ExecutionHooks
{
    /** Invoked (serialized) from worker threads as cells finish. */
    std::function<void(const CampaignCell &)> onCell;

    /**
     * Cooperative cancellation: when set and true, cells that have not
     * started are marked failed with an "interrupted" error instead of
     * being evaluated; in-flight cells finish normally. Used for
     * graceful SIGINT/SIGTERM drain.
     */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * Trace context the run's spans attach under. run() installs it on
     * the calling thread and re-applies it inside pool workers, so the
     * sweep/cell spans of a served request nest under the daemon's
     * execute span (and carry its request label) even though they
     * execute on pool threads. Default: root, unattributed — the batch
     * CLI's flat layout.
     */
    obs::TraceContext traceContext;
};

/** Long-lived campaign execution engine (pool + repo + calibration). */
class Executor
{
  public:
    /**
     * @param setup experiment environment (kept by reference)
     * @param repo shared trace store (kept by reference)
     * @param jobs worker threads (0 = hardware concurrency)
     */
    Executor(const ExperimentSetup &setup, TraceRepository &repo,
             std::size_t jobs = 0);

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Evaluate every cell of @p plan; see runCharacterizationCampaign
     *  for the result contract. */
    CampaignResult run(const CampaignPlan &plan,
                       const ExecutionHooks &hooks = {});

    /** Worker threads in the pool. */
    std::size_t jobs() const { return pool_.size(); }

    /** The shared trace repository. */
    TraceRepository &repository() { return repo_; }

    /** The experiment environment plans run in. */
    const ExperimentSetup &setup() const { return setup_; }

    /** Calibrated models currently memoized (for telemetry/tests). */
    std::size_t cachedModels() const;

  private:
    /** One memoized calibration: the network must outlive the model
     *  that references it, so they live and die together. */
    struct CalibratedScale
    {
        explicit CalibratedScale(SupplyNetwork net)
            : network(std::move(net))
        {
        }
        SupplyNetwork network;
        std::unique_ptr<VoltageVarianceModel> model;
    };

    /** (scale bit pattern, window, levels, basis name). */
    using ModelKey =
        std::tuple<std::uint64_t, std::size_t, std::size_t, std::string>;

    /** Training traces, built on first use (pool-parallel). */
    const std::vector<CurrentTrace> &trainingTraces();

    /**
     * Calibrated models for the plan's scales, in scale order. Missing
     * entries share one extraction of the training rows, then fit in
     * parallel; cached entries are returned as-is. Returned pointers
     * stay valid for the executor's lifetime.
     * A fit that throws (std::invalid_argument when the spec's window
     * leaves too few training windows) is rethrown and leaves no
     * entry behind.
     */
    std::vector<const CalibratedScale *>
    calibratedScales(const CampaignSpec &spec);

    const ExperimentSetup &setup_;
    TraceRepository &repo_;
    ThreadPool pool_;
    /** One workspace per pool worker, indexed by workerIndex(): every
     *  task that analyses runs on a worker of pool_. */
    std::vector<AnalysisWorkspace> workspaces_;

    std::mutex trainingMutex_;
    bool trainingBuilt_ = false;
    std::vector<CurrentTrace> training_;

    mutable std::mutex modelsMutex_;
    std::map<ModelKey, std::unique_ptr<CalibratedScale>> models_;
};

} // namespace didt

#endif // DIDT_RUNNER_EXECUTOR_HH
