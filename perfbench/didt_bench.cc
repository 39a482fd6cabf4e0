/**
 * @file
 * Benchmark program for the wavelet dI/dt characterization system.
 *
 * Runs one workload for a fixed measuring time and prints its metrics:
 *
 *   didt_bench --workload sweep_cold --seed 1 --seconds 15 --trace 0
 *
 * Workloads (sizes for --size full; --size smoke shrinks every one to
 * a few seconds):
 *   sweep_cold  26 SPEC profiles x 5 impedance scales, 120k
 *               instructions, fresh repository without a cache dir
 *   sweep_warm  the same sweep over a cache dir filled during set-up
 *   mc_sampled  gzip/mcf/swim/crafty x 5 scales x 50 supply draws,
 *               sampled simulation (4096/28672/512)
 *   serve_warm  a didt_serve daemon primed with the full sweep, driven
 *               by a closed loop of 2 connections
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 interleaves
 * untraced iterations with traced ones that drive the same campaign
 * through the repository's public calls in the Executor's order, with
 * a span around each call, and prints the per-layer split. Every run
 * checks the program's outputs; the last stdout line is the result
 * object {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>

#include <fcntl.h>
#include <spawn.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/emergency_estimator.hh"
#include "core/experiment.hh"
#include "core/variance_model.hh"
#include "obs/metrics.hh"
#include "power/supply_network.hh"
#include "power/variation.hh"
#include "runner/campaign.hh"
#include "runner/executor.hh"
#include "runner/plan.hh"
#include "runner/result_json.hh"
#include "runner/thread_pool.hh"
#include "runner/trace_repository.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "util/json.hh"
#include "util/options.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "wavelet/basis.hh"
#include "wavelet/dwt.hh"
#include "wavelet/wavelet_stats.hh"
#include "workload/profile.hh"

extern char **environ;

namespace fs = std::filesystem;
using namespace didt;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Worker threads of the program and the daemon on every workload: the
 *  core count of the 4-vCPU reference host. */
constexpr std::size_t kJobs = 4;

// ---------------------------------------------------------------------
// Statistics over raw samples.

/** Type-7 (linear interpolation) quantile of @p v; 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------
// Process accounting.

/** User + system CPU seconds of this process (all threads). */
double
selfCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** User + system CPU seconds of process @p pid from /proc. */
double
processCpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(in, line);
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(line.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    // Fields after "(comm)": state is field 3; utime and stime are 14
    // and 15.
    for (int i = 3; i <= 15 && fields >> field; ++i)
        if (i >= 14)
            ticks += std::stod(field);
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/** Reset the peak-RSS high-water mark of @p pid (Linux clear_refs). */
void
resetPeakRss(pid_t pid)
{
    std::ofstream("/proc/" + std::to_string(pid) + "/clear_refs") << "5";
}

/** Peak resident set (VmHWM) of @p pid in MiB. */
double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

// ---------------------------------------------------------------------
// Spans: recorded from this file around calls into each layer.

enum class Layer
{
    Training,     ///< calibrationTraceBuilders() builders
    Fit,          ///< VoltageVarianceModel::calibrateOnTraces
    NetworkBuild, ///< makeNetwork / drawSupplyConfig + SupplyNetwork
    Simulate,     ///< TraceRepository::get that simulated
    Load,         ///< TraceRepository::get that loaded from disk
    Wait,         ///< TraceRepository::get served from memory
    Profile,      ///< profileTrace
    Serialize,    ///< writeCampaignJson (campaignToJson + write)
    Cell,         ///< one campaign cell (parent of get/build/profile)
    Request,      ///< one served request, client side
};

const char *
layerName(Layer layer)
{
    static const char *names[] = {"calibrate.training", "calibrate.fit",
                                  "power.network_build", "sim.simulate",
                                  "repo.load", "repo.wait",
                                  "analysis.profile", "result.serialize",
                                  "cell", "request"};
    return names[static_cast<int>(layer)];
}

struct Span
{
    Layer layer;
    double start; ///< seconds since the tracer's epoch
    double end;
    std::size_t group; ///< cell or request the span belongs to
};

/** In-memory span log; written out once the run ends. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    double now() const { return secondsSince(epoch_); }

    void record(Layer layer, double start, double end, std::size_t group)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({layer, start, end, group});
    }

    /** Spans recorded since @p mark (an index from size()). */
    std::vector<Span> since(std::size_t mark) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return {spans_.begin() + static_cast<std::ptrdiff_t>(mark),
                spans_.end()};
    }

    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

    /** Chrome trace_event JSON of every span. */
    void write(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::ofstream out(path);
        out << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n" : "") << "{\"name\": \""
                << layerName(s.layer) << "\", \"ph\": \"X\", \"pid\": 1, "
                << "\"tid\": " << s.group << ", \"ts\": "
                << jsonNumber(s.start * 1e6)
                << ", \"dur\": " << jsonNumber((s.end - s.start) * 1e6)
                << "}";
        }
        out << "\n]}\n";
    }

  private:
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a null tracer records nothing. */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, Layer layer, std::size_t group = 0)
        : tracer_(tracer), layer_(layer), group_(group),
          start_(tracer ? tracer->now() : 0.0)
    {
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;
    ~SpanScope()
    {
        if (tracer_)
            tracer_->record(layer_, start_, tracer_->now(), group_);
    }

    /** Re-label before the span closes (a get's outcome is known only
     *  after the call returns). */
    void setLayer(Layer layer) { layer_ = layer; }

  private:
    Tracer *tracer_;
    Layer layer_;
    std::size_t group_;
    double start_;
};

/** Summed duration of @p spans per layer. */
std::map<Layer, double>
layerSeconds(const std::vector<Span> &spans)
{
    std::map<Layer, double> sums;
    for (const Span &s : spans)
        sums[s.layer] += s.end - s.start;
    return sums;
}

/** Time in [start, end] during which no span except @p skip is open. */
double
uncoveredSeconds(std::vector<Span> spans, double start, double end,
                 Layer skip)
{
    std::erase_if(spans, [&](const Span &s) { return s.layer == skip; });
    std::sort(spans.begin(), spans.end(),
              [](const Span &a, const Span &b) { return a.start < b.start; });
    double covered = 0.0;
    double reach = start;
    for (const Span &s : spans) {
        const double lo = std::max(s.start, reach);
        const double hi = std::min(s.end, end);
        if (hi > lo) {
            covered += hi - lo;
            reach = hi;
        }
    }
    return std::max(0.0, (end - start) - covered);
}

// ---------------------------------------------------------------------
// Output checks.

class Checks
{
  public:
    void require(bool ok, const std::string &what)
    {
        if (!ok && failures_.size() < 20)
            failures_.push_back(what);
        ok_ = ok_ && ok;
    }

    bool ok() const { return ok_; }

    void print() const
    {
        for (const std::string &f : failures_)
            std::printf("check failed: %s\n", f.c_str());
    }

  private:
    bool ok_ = true;
    std::vector<std::string> failures_;
};

std::string
cellName(const CampaignCell &cell)
{
    return cell.benchmark + "@" + jsonNumber(cell.impedanceScale) + "#" +
           std::to_string(cell.draw);
}

/** Every result field of two cells, compared exactly. */
bool
sameCell(const CampaignCell &a, const CampaignCell &b)
{
    return a.benchmark == b.benchmark &&
           a.impedanceScale == b.impedanceScale && a.cores == b.cores &&
           a.draw == b.draw && a.traceCycles == b.traceCycles &&
           a.windows == b.windows &&
           a.estimatedBelowPct == b.estimatedBelowPct &&
           a.measuredBelowPct == b.measuredBelowPct &&
           a.estimatedAbovePct == b.estimatedAbovePct &&
           a.measuredAbovePct == b.measuredAbovePct &&
           a.estimatedVariance == b.estimatedVariance &&
           a.measuredVariance == b.measuredVariance &&
           a.failed == b.failed;
}

bool
saneCell(const CampaignCell &c, std::size_t window)
{
    auto pct = [](double v) { return std::isfinite(v) && v >= 0 && v <= 100; };
    return !c.failed && c.windows > 0 && c.traceCycles >= window &&
           pct(c.estimatedBelowPct) && pct(c.measuredBelowPct) &&
           pct(c.estimatedAbovePct) && pct(c.measuredAbovePct) &&
           std::isfinite(c.estimatedVariance) && c.estimatedVariance >= 0 &&
           std::isfinite(c.measuredVariance) && c.measuredVariance >= 0;
}

/**
 * Check one campaign result: the expected cell count, every cell
 * completed and in range, a finite RMS error, the expected number of
 * simulations, and (when given) cell-for-cell equality with
 * @p reference.
 */
void
checkCampaign(Checks &checks, const std::string &what,
              const CampaignResult &result, std::size_t expected_cells,
              std::uint64_t expected_simulations,
              const CampaignResult *reference)
{
    checks.require(result.cells.size() == expected_cells,
                   what + ": " + std::to_string(result.cells.size()) +
                       " cells, expected " +
                       std::to_string(expected_cells));
    checks.require(result.failedCells() == 0,
                   what + ": " + std::to_string(result.failedCells()) +
                       " failed cells");
    const double rms = result.rmsEstimationErrorPct();
    checks.require(std::isfinite(rms) && rms > 0,
                   what + ": rms_error_pct not finite and positive");
    checks.require(result.cacheStats.simulations == expected_simulations,
                   what + ": repo.simulations " +
                       std::to_string(result.cacheStats.simulations) +
                       ", expected " +
                       std::to_string(expected_simulations));
    for (const CampaignCell &cell : result.cells)
        checks.require(saneCell(cell, result.spec.windowLength),
                       what + ": cell out of range: " + cellName(cell));
    if (!reference)
        return;
    checks.require(reference->cells.size() == result.cells.size(),
                   what + ": cell count differs from reference");
    for (std::size_t i = 0;
         i < std::min(reference->cells.size(), result.cells.size()); ++i)
        checks.require(sameCell(result.cells[i], reference->cells[i]),
                       what + ": cell differs from reference: " +
                           cellName(result.cells[i]));
}

// ---------------------------------------------------------------------
// Workload inputs.

/** Print a digest of a run's inputs (64-bit FNV-1a of their JSON). */
void
printInputs(const std::vector<std::string> &parts)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::string &part : parts)
        for (unsigned char c : part)
            h = (h ^ c) * 0x100000001b3ULL;
    std::printf("inputs %016llx\n", static_cast<unsigned long long>(h));
}

const std::vector<double> kScales{1.0, 1.1, 1.2, 1.3, 1.5};

std::vector<BenchmarkProfile>
profilesNamed(std::initializer_list<const char *> names)
{
    std::vector<BenchmarkProfile> out;
    for (const char *name : names)
        out.push_back(profileByName(name));
    return out;
}

/** The paper's sweep: every SPEC profile x 5 scales (smoke: 3 x 2). */
CampaignSpec
sweepSpec(std::uint64_t seed, bool smoke)
{
    CampaignSpec spec; // paper defaults: haar, 256, 8 levels, 0.97/1.03
    spec.seed = seed;
    spec.profiles = smoke ? profilesNamed({"gzip", "mcf", "swim"})
                          : spec2000Profiles();
    spec.impedanceScales =
        smoke ? std::vector<double>{1.0, 1.2} : kScales;
    spec.instructions = smoke ? 30000 : 120000;
    return spec;
}

/** Monte Carlo over the supply network at the validated sampling
 *  geometry (smoke: 2 profiles x 2 scales x 4 draws). */
CampaignSpec
mcSpec(std::uint64_t seed, bool smoke)
{
    CampaignSpec spec;
    spec.seed = seed;
    spec.profiles = smoke ? profilesNamed({"gzip", "mcf"})
                          : profilesNamed({"gzip", "mcf", "swim", "crafty"});
    spec.impedanceScales =
        smoke ? std::vector<double>{1.0, 1.2} : kScales;
    spec.instructions = smoke ? 30000 : 120000;
    spec.sampleDetail = 4096;
    spec.sampleSkip = 28672;
    spec.sampleWarmup = 512;
    spec.mcDraws = smoke ? 4 : 50;
    spec.mcSeed = seed;
    spec.mcSigmaR = 0.05;
    spec.mcSigmaResonance = 0.05;
    return spec;
}

std::size_t
cellCount(const CampaignSpec &spec)
{
    return spec.profiles.size() * spec.impedanceScales.size() *
           spec.drawCount();
}

// ---------------------------------------------------------------------
// Batch workloads (sweep_cold, sweep_warm, mc_sampled).

/** One campaign: spec in -> result document written. */
struct Iteration
{
    CampaignResult result;
    double wall = 0.0; ///< seconds
    double cpu = 0.0;  ///< user + system seconds, this process
    std::vector<double> cellLatencyMs; ///< start -> each cell's result
};

/** The program as a batch user runs it: plan, fresh repository and
 *  Executor, run, write the document. */
Iteration
runCampaign(const ExperimentSetup &setup, const CampaignSpec &spec,
            const std::string &cache_dir, std::size_t jobs,
            const std::string &out_path)
{
    Iteration it;
    const Clock::time_point start = Clock::now();
    const double cpu0 = selfCpuSeconds();
    const CampaignPlan plan = buildCampaignPlan(spec);
    TraceRepository repo(setup, cache_dir);
    Executor executor(setup, repo, jobs);
    ExecutionHooks hooks;
    hooks.onCell = [&](const CampaignCell &) {
        it.cellLatencyMs.push_back(1e3 * secondsSince(start));
    };
    it.result = executor.run(plan, hooks);
    writeCampaignJson(out_path, it.result);
    it.wall = secondsSince(start);
    it.cpu = selfCpuSeconds() - cpu0;
    return it;
}

/** The trace request the Executor builds for a single-core cell. */
TraceRequest
cellRequest(const CampaignSpec &spec, std::size_t profile_index)
{
    TraceRequest request;
    request.profile = spec.profiles[profile_index];
    request.instructions = spec.instructions;
    request.seed = spec.seed;
    request.trimWarmup = spec.trimWarmup;
    request.sampleDetail = spec.sampleDetail;
    request.sampleSkip = spec.sampleSkip;
    request.sampleWarmup = spec.sampleWarmup;
    return request;
}

double
registryCounter(const char *name)
{
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    const obs::MetricSnapshot *m = snap.find(name);
    return m ? m->value : 0.0;
}

/** Per-unit kernel costs measured on a workload's own windows. */
struct Probe
{
    double estimateNsPerWindow = 0.0;
    double dwtNsPerWindow = 0.0;
    double scaleStatsNsPerWindow = 0.0;
    double voltageNsPerSample = 0.0;
};

/** Median seconds of one call of @p pass (at least 3 calls and 50 ms). */
double
timePass(const std::function<void()> &pass)
{
    pass(); // warm workspaces and caches
    std::vector<double> times;
    double total = 0.0;
    while (times.size() < 3 || total < 0.05) {
        const Clock::time_point t0 = Clock::now();
        pass();
        times.push_back(secondsSince(t0));
        total += times.back();
    }
    return median(times);
}

Probe
probeKernels(const std::vector<std::shared_ptr<const CurrentTrace>> &traces,
             const VoltageVarianceModel &model, const SupplyNetwork &network,
             const CampaignSpec &spec)
{
    // Up to 2048 windows, strided evenly over every trace.
    const std::size_t window = spec.windowLength;
    std::vector<std::span<const double>> all;
    for (const auto &trace : traces)
        for (std::size_t off = 0; off + window <= trace->size();
             off += window)
            all.emplace_back(trace->data() + off, window);
    const std::size_t stride = std::max<std::size_t>(1, all.size() / 2048);
    std::vector<std::span<const double>> windows;
    for (std::size_t i = 0; i < all.size(); i += stride)
        windows.push_back(all[i]);
    const double n = static_cast<double>(windows.size());

    AnalysisWorkspace ws;
    const Dwt dwt(WaveletBasis::byName(spec.basis));
    std::vector<FlatDecomposition> decs(windows.size());
    double sink = 0.0;
    Probe p;
    p.estimateNsPerWindow = 1e9 / n * timePass([&] {
        for (const auto &w : windows) {
            model.estimate(w, {}, spec.useCorrelation, ws.est, ws);
            sink += ws.est.variance;
        }
    });
    p.dwtNsPerWindow = 1e9 / n * timePass([&] {
        for (std::size_t i = 0; i < windows.size(); ++i)
            dwt.forward(windows[i], spec.levels, decs[i], ws.dwt);
    });
    p.scaleStatsNsPerWindow = 1e9 / n * timePass([&] {
        for (const FlatDecomposition &dec : decs) {
            computeScaleStats(dec, ws.stats);
            sink += ws.stats.approximationVariance;
        }
    });
    double samples = 0.0;
    for (const auto &trace : traces)
        samples += static_cast<double>(trace->size());
    p.voltageNsPerSample = 1e9 / samples * timePass([&] {
        for (const auto &trace : traces) {
            network.computeVoltageInto(*trace, ws.voltage);
            sink += ws.voltage.back();
        }
    });
    if (sink == -1.0) // keeps the timed work observable
        std::printf("%g\n", sink);
    return p;
}

/** What one traced iteration measured, beyond its Iteration. */
struct TracedIteration
{
    Iteration it;
    std::vector<Span> spans;
    double start = 0.0;      ///< tracer time the iteration began
    double sweepWall = 0.0;  ///< seconds of the cell phase
    double simCycles = 0.0;  ///< sim.cycles during the cell phase
    double simCommitted = 0.0;
    TraceCacheStats repoStats;
    double residentMb = 0.0; ///< repository residentBytes()
    std::size_t models = 0;
    std::optional<Probe> probe;
};

/**
 * The same campaign as runCampaign, driven through the repository's
 * public calls in the order the Executor makes them, with a span around
 * each: calibration training traces, per-scale network + model fit,
 * then per cell TraceRepository::get, the (drawn) supply network, and
 * profileTrace, and finally the result document.
 */
TracedIteration
runTracedCampaign(const ExperimentSetup &setup, const CampaignSpec &spec,
                  const std::string &cache_dir, std::size_t jobs,
                  const std::string &out_path, Tracer &tracer, bool probe)
{
    TracedIteration t;
    const std::size_t mark = tracer.size();
    t.start = tracer.now();
    const Clock::time_point start = Clock::now();

    const CampaignPlan plan = buildCampaignPlan(spec);
    const CampaignSpec &ps = plan.spec;
    TraceRepository repo(setup, cache_dir);
    ThreadPool pool(jobs);
    std::vector<AnalysisWorkspace> workspaces(pool.size() + 1);

    // Calibration: training traces, then one network + model per scale.
    const std::vector<std::function<CurrentTrace()>> builders =
        calibrationTraceBuilders(setup);
    std::vector<CurrentTrace> training(builders.size());
    pool.parallelFor(builders.size(), [&](std::size_t i) {
        SpanScope span(&tracer, Layer::Training);
        training[i] = builders[i]();
    });
    const std::vector<double> &scales = ps.impedanceScales;
    std::vector<std::unique_ptr<SupplyNetwork>> networks;
    for (double scale : scales) {
        SpanScope span(&tracer, Layer::NetworkBuild);
        networks.push_back(
            std::make_unique<SupplyNetwork>(setup.makeNetwork(scale)));
    }
    std::vector<std::unique_ptr<VoltageVarianceModel>> models(scales.size());
    const WaveletBasis basis = WaveletBasis::byName(ps.basis);
    pool.parallelFor(scales.size(), [&](std::size_t si) {
        SpanScope span(&tracer, Layer::Fit);
        auto model = std::make_unique<VoltageVarianceModel>(
            *networks[si], ps.windowLength, ps.levels, basis);
        model->calibrateOnTraces(training);
        models[si] = std::move(model);
    });
    t.models = models.size();

    // The cells, submitted in the plan's scale-major order.
    const double cycles0 = registryCounter("sim.cycles");
    const double committed0 = registryCounter("sim.committed");
    const Clock::time_point sweep_start = Clock::now();
    CampaignResult &result = t.it.result;
    result.spec = ps;
    result.jobs = pool.size();
    result.cells.resize(plan.cellCount());
    std::mutex latency_mutex;
    std::vector<std::future<void>> pending;
    for (const PlanCell &pc : plan.order) {
        const std::size_t ci = plan.storageIndex(pc);
        pending.push_back(pool.submit([&, pc, ci] {
            SpanScope cell_span(&tracer, Layer::Cell, ci);
            CampaignCell &cell = result.cells[ci];
            cell.benchmark = plan.workloadName(pc.profileIndex);
            cell.impedanceScale = scales[pc.scaleIndex];
            cell.draw = pc.drawIndex;
            std::shared_ptr<const CurrentTrace> trace;
            {
                SpanScope span(&tracer, Layer::Wait, ci);
                TraceCacheStats delta;
                trace = repo.get(cellRequest(ps, pc.profileIndex), &delta);
                if (delta.simulations > 0)
                    span.setLayer(Layer::Simulate);
                else if (delta.diskLoads > 0)
                    span.setLayer(Layer::Load);
            }
            const SupplyNetwork *network = networks[pc.scaleIndex].get();
            std::optional<SupplyNetwork> drawn;
            if (ps.isMonteCarlo()) {
                SpanScope span(&tracer, Layer::NetworkBuild, ci);
                SupplyNetworkConfig varied = drawSupplyConfig(
                    setup.supplyBase, ps.variation(),
                    deriveDrawSeed(ps.mcSeed, pc.drawIndex));
                varied.impedanceScale = scales[pc.scaleIndex];
                network = &drawn.emplace(varied);
            }
            const std::size_t wi = ThreadPool::workerIndex();
            AnalysisWorkspace &ws =
                workspaces[wi == ThreadPool::kNotAWorker ? pool.size() : wi];
            EmergencyProfile ep;
            {
                SpanScope span(&tracer, Layer::Profile, ci);
                ep = profileTrace(*trace, *network, *models[pc.scaleIndex],
                                  ps.lowThreshold, ps.highThreshold, ws, {},
                                  ps.useCorrelation);
            }
            cell.traceCycles = trace->size();
            cell.windows = ep.windows;
            cell.estimatedBelowPct = 100.0 * ep.estimatedBelow;
            cell.measuredBelowPct = 100.0 * ep.measuredBelow;
            cell.estimatedAbovePct = 100.0 * ep.estimatedAbove;
            cell.measuredAbovePct = 100.0 * ep.measuredAbove;
            cell.estimatedVariance = ep.estimatedVariance;
            cell.measuredVariance = ep.measuredVariance;
            std::lock_guard<std::mutex> lock(latency_mutex);
            t.it.cellLatencyMs.push_back(1e3 * secondsSince(start));
        }));
    }
    for (std::future<void> &f : pending) {
        try {
            f.get();
        } catch (const std::exception &e) {
            std::printf("traced cell failed: %s\n", e.what());
        }
    }
    for (CampaignCell &cell : result.cells)
        cell.failed = cell.windows == 0;
    t.sweepWall = secondsSince(sweep_start);
    t.simCycles = registryCounter("sim.cycles") - cycles0;
    t.simCommitted = registryCounter("sim.committed") - committed0;
    t.repoStats = repo.stats();
    result.cacheStats = t.repoStats;
    {
        SpanScope span(&tracer, Layer::Serialize);
        writeCampaignJson(out_path, result);
    }
    t.it.wall = secondsSince(start);
    t.residentMb = static_cast<double>(repo.residentBytes()) / 1048576.0;
    t.spans = tracer.since(mark);

    if (probe) {
        std::vector<std::shared_ptr<const CurrentTrace>> traces;
        for (std::size_t pi = 0; pi < ps.profiles.size(); ++pi)
            traces.push_back(repo.get(cellRequest(ps, pi)));
        t.probe = probeKernels(traces, *models[0], *networks[0], ps);
    }
    return t;
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Outcome
{
    Checks checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Per-layer metrics of traced batch iterations (means over them). */
void
addBatchLayers(Outcome &out, const std::vector<TracedIteration> &traced,
               const std::vector<double> &untraced_walls, std::size_t jobs)
{
    std::map<std::string, std::vector<double>> v;
    for (const TracedIteration &t : traced) {
        std::map<Layer, double> s = layerSeconds(t.spans);
        double windows = 0.0;
        for (const CampaignCell &c : t.it.result.cells)
            windows += static_cast<double>(c.windows);
        std::size_t networks = 0;
        for (const Span &span : t.spans)
            networks += span.layer == Layer::NetworkBuild;
        const TraceCacheStats &r = t.repoStats;
        v["sim.simulate_s"].push_back(s[Layer::Simulate]);
        v["sim.cycles"].push_back(t.simCycles);
        v["sim.mcycles_per_s"].push_back(
            s[Layer::Simulate] > 0 ? t.simCycles / s[Layer::Simulate] / 1e6
                                   : 0.0);
        v["sim.ipc"].push_back(t.simCycles > 0 ? t.simCommitted / t.simCycles
                                               : 0.0);
        v["repo.lookups"].push_back(static_cast<double>(r.lookups));
        v["repo.simulations"].push_back(static_cast<double>(r.simulations));
        v["repo.disk_loads"].push_back(static_cast<double>(r.diskLoads));
        v["repo.hit_ratio"].push_back(
            r.lookups ? static_cast<double>(r.memoryHits) /
                            static_cast<double>(r.lookups)
                      : 0.0);
        v["repo.load_s"].push_back(s[Layer::Load]);
        v["repo.wait_s"].push_back(s[Layer::Wait]);
        v["repo.resident_mb"].push_back(t.residentMb);
        v["calibrate.training_s"].push_back(s[Layer::Training]);
        v["calibrate.fit_s"].push_back(s[Layer::Fit]);
        v["calibrate.models"].push_back(static_cast<double>(t.models));
        v["pool.busy_frac"].push_back(
            s[Layer::Cell] / (static_cast<double>(jobs) * t.sweepWall));
        v["result.serialize_s"].push_back(s[Layer::Serialize]);
        v["analysis.profile_s"].push_back(s[Layer::Profile]);
        v["analysis.windows"].push_back(windows);
        v["analysis.us_per_window"].push_back(
            windows > 0 ? 1e6 * s[Layer::Profile] / windows : 0.0);
        v["power.network_build_us"].push_back(
            networks ? 1e6 * s[Layer::NetworkBuild] /
                           static_cast<double>(networks)
                     : 0.0);
        v["trace.unattributed_pct"].push_back(
            100.0 *
            uncoveredSeconds(t.spans, t.start, t.start + t.it.wall,
                             Layer::Cell) /
            t.it.wall);
    }
    auto m = [&](const std::string &name) { return mean(v[name]); };

    const Probe p = traced.front().probe.value_or(Probe{});
    // profileTrace = per-window estimates + the measured-voltage side;
    // the estimate share is projected from the probed per-window cost.
    const double estimate_s =
        std::min(m("analysis.profile_s"),
                 m("analysis.windows") * p.estimateNsPerWindow * 1e-9);
    std::vector<double> traced_walls;
    for (const TracedIteration &t : traced)
        traced_walls.push_back(t.it.wall);

    out.add("sim.simulate_s", m("sim.simulate_s"), "s");
    out.add("sim.cycles", m("sim.cycles"), "count");
    out.add("sim.mcycles_per_s", m("sim.mcycles_per_s"), "Mcycles/s");
    out.add("sim.ipc", m("sim.ipc"), "ratio");
    out.add("repo.lookups", m("repo.lookups"), "count");
    out.add("repo.simulations", m("repo.simulations"), "count");
    out.add("repo.disk_loads", m("repo.disk_loads"), "count");
    out.add("repo.hit_ratio", m("repo.hit_ratio"), "ratio");
    out.add("repo.load_s", m("repo.load_s"), "s");
    out.add("repo.wait_s", m("repo.wait_s"), "s");
    out.add("repo.resident_mb", m("repo.resident_mb"), "MiB");
    out.add("calibrate.training_s", m("calibrate.training_s"), "s");
    out.add("calibrate.fit_s", m("calibrate.fit_s"), "s");
    out.add("calibrate.models", m("calibrate.models"), "count");
    out.add("pool.busy_frac", m("pool.busy_frac"), "ratio");
    out.add("result.serialize_s", m("result.serialize_s"), "s");
    out.add("analysis.profile_s", m("analysis.profile_s"), "s");
    out.add("analysis.estimate_s", estimate_s, "s");
    out.add("analysis.measure_s", m("analysis.profile_s") - estimate_s, "s");
    out.add("analysis.windows", m("analysis.windows"), "count");
    out.add("analysis.us_per_window", m("analysis.us_per_window"), "us");
    out.add("wavelet.dwt_ns_per_window", p.dwtNsPerWindow, "ns");
    out.add("wavelet.scale_stats_ns_per_window", p.scaleStatsNsPerWindow,
            "ns");
    out.add("power.voltage_ns_per_sample", p.voltageNsPerSample, "ns");
    out.add("power.network_build_us", m("power.network_build_us"), "us");
    for (const char *name : {"serve.queue_ms", "serve.merge_ms",
                             "serve.execute_ms", "serve.serialize_ms"})
        out.add(name, 0.0, "ms");
    out.add("serve.batch_size", 0.0, "count");
    out.add("serve.transport_ms", 0.0, "ms");
    out.add("obs.trace_overhead_pct",
            100.0 * (median(traced_walls) / median(untraced_walls) - 1.0),
            "%");
    out.add("trace.unattributed_pct", m("trace.unattributed_pct"), "%");
}

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string workDir;
};

/** Set-up repetitions whose median is setup_s. */
constexpr int kSetupRepeats = 3;

Outcome
runBatchWorkload(const RunConfig &cfg)
{
    Outcome out;
    const bool warm = cfg.workload == "sweep_warm";
    const CampaignSpec spec = cfg.workload == "mc_sampled"
                                  ? mcSpec(cfg.seed, cfg.smoke)
                                  : sweepSpec(cfg.seed, cfg.smoke);
    const std::size_t cells = cellCount(spec);
    const std::uint64_t simulations = warm ? 0 : spec.profiles.size();
    const std::string doc = cfg.workDir + "/campaign.json";
    printInputs({campaignSpecToJson(spec).dump()});

    // Set-up: the standard environment, plus (sweep_warm) a cache dir
    // filled by a cold run of the same spec. The fill's cells are the
    // reference every warm iteration must reproduce.
    std::vector<double> setup_times;
    ExperimentSetup setup;
    std::string cache_dir;
    std::optional<CampaignResult> reference;
    // A set-up without a cache fill takes milliseconds, and on a shared
    // host single-thread speed can swing by 2x within seconds: repeat it
    // for a quarter second here and again after the timed phase.
    auto time_bare_setups = [&] {
        double total = 0.0;
        for (int k = 0; k < kSetupRepeats || total < 0.25; ++k) {
            const Clock::time_point t0 = Clock::now();
            setup = makeStandardSetup();
            setup_times.push_back(secondsSince(t0));
            total += setup_times.back();
        }
    };
    for (int k = 0; warm && k < kSetupRepeats; ++k) {
        const Clock::time_point t0 = Clock::now();
        setup = makeStandardSetup();
        if (!cache_dir.empty())
            fs::remove_all(cache_dir);
        cache_dir = cfg.workDir + "/cache" + std::to_string(k);
        Iteration fill = runCampaign(setup, spec, cache_dir, kJobs, doc);
        checkCampaign(out.checks, "cache fill", fill.result, cells,
                      spec.profiles.size(), reference ? &*reference : nullptr);
        reference = std::move(fill.result);
        setup_times.push_back(secondsSince(t0));
    }
    if (!warm)
        time_bare_setups();

    // Timed phase: whole campaigns until the next would overrun.
    resetPeakRss(getpid());
    Tracer tracer(Clock::now());
    std::vector<Iteration> runs;
    std::vector<TracedIteration> traced;
    const Clock::time_point start = Clock::now();
    double last = 0.0;
    while (runs.empty() || (cfg.trace && traced.empty()) ||
           secondsSince(start) + last <= cfg.seconds) {
        if (cfg.trace && traced.size() < runs.size()) {
            traced.push_back(runTracedCampaign(setup, spec, cache_dir,
                                               kJobs, doc, tracer,
                                               traced.empty()));
            checkCampaign(out.checks, "traced campaign",
                          traced.back().it.result, cells, simulations,
                          &*reference);
            last = traced.back().it.wall;
        } else {
            runs.push_back(runCampaign(setup, spec, cache_dir, kJobs, doc));
            checkCampaign(out.checks, "campaign", runs.back().result, cells,
                          simulations, reference ? &*reference : nullptr);
            if (!reference)
                reference = runs.back().result;
            last = runs.back().wall;
        }
    }
    const double timed = secondsSince(start);
    if (!warm)
        time_bare_setups();

    // Cell latencies are summarized per campaign, then across campaigns
    // by the median, so one slow campaign cannot own the p90.
    std::vector<double> walls, cpus, p50s, p90s;
    std::size_t latencies = 0;
    for (const Iteration &it : runs) {
        walls.push_back(it.wall);
        cpus.push_back(it.cpu);
        p50s.push_back(quantile(it.cellLatencyMs, 0.5));
        p90s.push_back(quantile(it.cellLatencyMs, 0.9));
        latencies += it.cellLatencyMs.size();
        out.attempted += it.result.cells.size();
        out.failed += it.result.failedCells();
    }
    for (const TracedIteration &t : traced) {
        out.attempted += t.it.result.cells.size();
        out.failed += t.it.result.failedCells();
    }
    std::printf("%zu untraced + %zu traced campaigns in %.2f s; %zu cell "
                "latencies, %zu beyond p90\nwalls:",
                runs.size(), traced.size(), timed, latencies,
                latencies / 10);
    for (const Iteration &it : runs)
        std::printf(" %.3f", it.wall);
    for (const TracedIteration &t : traced)
        std::printf(" traced %.3f", t.it.wall);
    std::printf("\n");

    if (cfg.trace) {
        addBatchLayers(out, traced, walls, kJobs);
        tracer.write(cfg.workDir + "/../" + cfg.workload + ".trace.json");
        return out;
    }
    out.add("setup_s", median(setup_times), "s");
    out.add("wall_s", median(walls), "s");
    out.add("cpu_s", median(cpus), "s");
    out.add("peak_rss_mb", peakRssMb(getpid()), "MiB");
    out.add("rms_error_pct", reference->rmsEstimationErrorPct(), "%");
    out.add("latency_p50_ms", median(p50s), "ms");
    out.add("latency_p90_ms", median(p90s), "ms");
    out.add("requests_per_s", static_cast<double>(runs.size()) / timed,
            "1/s");
    return out;
}

// ---------------------------------------------------------------------
// serve_warm: a didt_serve daemon and a closed-loop load generator.

/** A didt_serve child process; stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &socket, std::size_t jobs,
           const std::string &log)
        : socket_(socket)
    {
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const std::string jobs_arg = std::to_string(jobs);
        const char *argv[] = {DIDT_BENCH_SERVE_BIN, "--socket",
                              socket.c_str(), "--jobs", jobs_arg.c_str(),
                              nullptr};
        if (posix_spawn(&pid_, DIDT_BENCH_SERVE_BIN, &actions, nullptr,
                        const_cast<char **>(argv), environ) != 0)
            pid_ = -1;
        posix_spawn_file_actions_destroy(&actions);
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;
    ~Daemon() { stop(); }

    pid_t pid() const { return pid_; }

    /** Connect @p client once the socket accepts (up to 60 s). */
    bool connect(serve::Client &client) const
    {
        std::string error;
        const Clock::time_point start = Clock::now();
        while (pid_ > 0 && secondsSince(start) < 60.0) {
            if (client.connectUnix(socket_, &error))
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return false;
    }

    /** SIGTERM (the daemon drains), SIGKILL after 30 s; always reaps. */
    void stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        const Clock::time_point start = Clock::now();
        int status = 0;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (secondsSince(start) > 30.0) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** Number member @p key of @p json; NaN when absent. */
double
number(const JsonValue &json, const char *key)
{
    const JsonValue *v = json.find(key);
    return v && v->kind() == JsonValue::Kind::Number ? v->asNumber() : NAN;
}

/** "benchmark@scale" of a result cell ("" when malformed). */
std::string
cellKey(const JsonValue &cell)
{
    const JsonValue *name = cell.find("benchmark");
    const double scale = number(cell, "impedance_scale");
    if (!name || name->kind() != JsonValue::Kind::String || std::isnan(scale))
        return "";
    return name->asString() + "@" + jsonNumber(scale);
}

/** Parse a response frame; null when it is not JSON. */
std::optional<JsonValue>
parseResponse(const std::string &response)
{
    try {
        return parseJson(response);
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

/** One request/response exchange; the parsed document or null. */
std::optional<JsonValue>
call(serve::Client &client, const std::string &request)
{
    std::string response, error;
    if (!client.call(request, &response, &error))
        return std::nullopt;
    return parseResponse(response);
}

/** Daemon counters: the stats object plus Prometheus samples. */
struct DaemonStats
{
    JsonValue stats;
    std::map<std::string, double> samples;

    /** A stats member, "cache.lookups" for a nested one; 0 if absent. */
    double stat(const std::string &path) const
    {
        const std::size_t dot = path.find('.');
        const JsonValue *v = stats.find(path.substr(0, dot));
        if (v && dot != std::string::npos)
            v = v->find(path.substr(dot + 1));
        return v ? v->asNumber() : 0.0;
    }

    double sample(const std::string &name) const
    {
        const auto it = samples.find(name);
        return it == samples.end() ? 0.0 : it->second;
    }
};

DaemonStats
daemonStats(serve::Client &client)
{
    DaemonStats out;
    if (auto doc = call(client, serve::statsRequestJson("stats")))
        if (const JsonValue *s = doc->find("stats"))
            out.stats = *s;
    if (auto doc = call(client, serve::statsRequestJson("prom", true))) {
        if (const JsonValue *text = doc->find("prometheus")) {
            std::istringstream lines(text->asString());
            std::string line;
            while (std::getline(lines, line)) {
                const std::size_t space = line.rfind(' ');
                if (line.empty() || line[0] == '#' ||
                    space == std::string::npos)
                    continue;
                out.samples[line.substr(0, space)] =
                    std::stod(line.substr(space + 1));
            }
        }
    }
    return out;
}

struct ServedRequest
{
    CampaignSpec spec;
    std::string payload;
};

/**
 * Seeded requests of 1-4 benchmarks x 1-5 scales of the primed grid.
 * Each block of 20 requests holds every shape once, in seeded order,
 * and benchmarks and scales are dealt from reshuffled decks. Every seed
 * thus sends the same amount of work spread evenly over the grid; the
 * seed picks which cells go together and in what order.
 */
std::vector<ServedRequest>
makeRequests(const CampaignSpec &grid, std::uint64_t seed, std::size_t n)
{
    Rng rng(seed ^ 0x5eedULL);
    auto shuffle = [&](auto &v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.uniformInt(i)]);
    };
    struct Deck
    {
        std::vector<std::size_t> cards;
        std::size_t next = 0;
    };
    auto deck = [](std::size_t size) {
        Deck d{std::vector<std::size_t>(size), size};
        for (std::size_t i = 0; i < size; ++i)
            d.cards[i] = i;
        return d;
    };
    // Distinct cards; reshuffles when too few remain for this deal.
    auto deal = [&](Deck &d, std::size_t take) {
        take = std::min(take, d.cards.size());
        if (d.next + take > d.cards.size()) {
            shuffle(d.cards);
            d.next = 0;
        }
        d.next += take;
        return std::vector<std::size_t>(
            d.cards.begin() + static_cast<std::ptrdiff_t>(d.next - take),
            d.cards.begin() + static_cast<std::ptrdiff_t>(d.next));
    };
    Deck profiles = deck(grid.profiles.size());
    Deck scales = deck(grid.impedanceScales.size());
    std::vector<std::pair<std::size_t, std::size_t>> shapes;
    std::vector<ServedRequest> out;
    for (std::size_t r = 0; r < n; ++r) {
        if (r % 20 == 0) {
            shapes.clear();
            for (std::size_t b = 1; b <= 4; ++b)
                for (std::size_t sc = 1; sc <= 5; ++sc)
                    shapes.emplace_back(b, sc);
            shuffle(shapes);
        }
        const auto [nb, ns] = shapes[r % 20];
        ServedRequest req;
        req.spec = grid;
        req.spec.profiles.clear();
        req.spec.impedanceScales.clear();
        for (std::size_t i : deal(profiles, nb))
            req.spec.profiles.push_back(grid.profiles[i]);
        for (std::size_t i : deal(scales, ns))
            req.spec.impedanceScales.push_back(grid.impedanceScales[i]);
        req.payload = serve::characterizeRequestJson(
            "r" + std::to_string(r), campaignSpecToJson(req.spec));
        out.push_back(std::move(req));
    }
    return out;
}

/** Client-side view of one closed-loop pass over some requests. */
struct LoopResult
{
    double wall = 0.0;
    std::vector<double> latencyMs;
    std::vector<std::string> responses; ///< raw frames; "" on failure
    std::vector<Span> spans;
    double start = 0.0;
};

LoopResult
closedLoop(const Daemon &daemon, const std::vector<ServedRequest> &requests,
           std::size_t first, std::size_t count, std::size_t connections,
           Tracer *tracer)
{
    LoopResult out;
    out.latencyMs.assign(count, 0.0);
    out.responses.resize(count);
    std::atomic<std::size_t> next{0};
    const std::size_t mark = tracer ? tracer->size() : 0;
    out.start = tracer ? tracer->now() : 0.0;
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&] {
            serve::Client client;
            if (!daemon.connect(client))
                return;
            for (std::size_t i = next++; i < count; i = next++) {
                SpanScope span(tracer, Layer::Request, i);
                const Clock::time_point t0 = Clock::now();
                std::string error;
                if (!client.call(requests[first + i].payload,
                                 &out.responses[i], &error))
                    daemon.connect(client);
                out.latencyMs[i] = 1e3 * secondsSince(t0);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    out.wall = secondsSince(start);
    if (tracer)
        out.spans = tracer->since(mark);
    return out;
}

/** Check served cells against the primed campaign; count failures. */
std::uint64_t
checkResponses(Checks &checks, const LoopResult &loop,
               const std::vector<ServedRequest> &requests, std::size_t first,
               const std::map<std::string, JsonValue> &primed,
               double *windows)
{
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < loop.responses.size(); ++i) {
        const ServedRequest &req = requests[first + i];
        const std::string id = "request r" + std::to_string(first + i);
        const std::optional<JsonValue> doc =
            parseResponse(loop.responses[i]);
        const JsonValue *type = doc ? doc->find("type") : nullptr;
        const JsonValue *result = doc ? doc->find("result") : nullptr;
        const JsonValue *cells = result ? result->find("cells") : nullptr;
        if (!type || type->asString() != "result" || !cells) {
            ++failed;
            checks.require(false, id + ": no result");
            continue;
        }
        checks.require(cells->items().size() ==
                           req.spec.profiles.size() *
                               req.spec.impedanceScales.size(),
                       id + ": wrong cell count");
        for (const JsonValue &cell : cells->items()) {
            const auto it = primed.find(cellKey(cell));
            checks.require(it != primed.end() && it->second == cell,
                           id + ": cell differs from primed campaign: " +
                               cellKey(cell));
            *windows += number(cell, "windows");
        }
    }
    return failed;
}

Outcome
runServeWorkload(const RunConfig &cfg)
{
    Outcome out;
    const CampaignSpec grid = sweepSpec(cfg.seed, cfg.smoke);
    const std::string prime_payload =
        serve::characterizeRequestJson("prime", campaignSpecToJson(grid));

    // Set-up: start the daemon and prime it with the whole grid, so
    // every trace is resident and every scale's model is calibrated.
    std::vector<double> setup_times;
    std::unique_ptr<Daemon> daemon;
    std::map<std::string, JsonValue> primed;
    double rms = 0.0;
    for (int k = 0; k < kSetupRepeats; ++k) {
        daemon.reset();
        const Clock::time_point t0 = Clock::now();
        daemon = std::make_unique<Daemon>(
            cfg.workDir + "/d" + std::to_string(k) + ".sock", kJobs,
            cfg.workDir + "/daemon" + std::to_string(k) + ".log");
        serve::Client client;
        std::optional<JsonValue> doc;
        if (daemon->connect(client))
            doc = call(client, prime_payload);
        setup_times.push_back(secondsSince(t0));
        const JsonValue *result = doc ? doc->find("result") : nullptr;
        const JsonValue *cells = result ? result->find("cells") : nullptr;
        out.checks.require(cells && cells->items().size() == cellCount(grid),
                           "priming request failed");
        if (!cells)
            return out;
        for (const JsonValue &cell : cells->items()) {
            auto [it, fresh] = primed.emplace(cellKey(cell), cell);
            out.checks.require(!it->first.empty() &&
                                   (fresh || it->second == cell),
                               "primed cells differ between daemons");
        }
        rms = number(*result, "rms_estimation_error_pct");
        out.checks.require(std::isfinite(rms) && rms > 0,
                           "primed rms_error_pct not finite and positive");
    }

    // Timed phase: a fixed number of requests, 20 per measured second
    // and at least 300 (so p90 has 30 samples beyond it), over a closed
    // loop of 2 connections. A traced run sends the first half untraced
    // and times the second half.
    const std::size_t total =
        cfg.smoke ? 24
                  : std::max<std::size_t>(
                        300, static_cast<std::size_t>(20.0 * cfg.seconds));
    const std::size_t n = cfg.trace ? total / 2 : total;
    const std::vector<ServedRequest> requests =
        makeRequests(grid, cfg.seed, total);
    std::vector<std::string> payloads{prime_payload};
    for (const ServedRequest &req : requests)
        payloads.push_back(req.payload);
    printInputs(payloads);
    serve::Client control;
    if (!daemon->connect(control)) {
        out.checks.require(false, "cannot connect to daemon");
        return out;
    }
    const pid_t pid = daemon->pid();
    resetPeakRss(pid);
    std::optional<LoopResult> untraced;
    if (cfg.trace)
        untraced = closedLoop(*daemon, requests, 0, n, 2, nullptr);
    Tracer tracer(Clock::now());
    const DaemonStats before = daemonStats(control);
    const double cpu0 = processCpuSeconds(pid);
    const std::size_t first = cfg.trace ? n : 0;
    const LoopResult loop = closedLoop(*daemon, requests, first, n, 2,
                                       cfg.trace ? &tracer : nullptr);
    const double cpu = processCpuSeconds(pid) - cpu0;
    const DaemonStats after = daemonStats(control);
    const double peak = peakRssMb(pid);

    double windows = 0.0;
    out.attempted = n;
    out.failed =
        checkResponses(out.checks, loop, requests, first, primed, &windows);
    if (untraced) {
        double ignored = 0.0;
        out.attempted += n;
        out.failed += checkResponses(out.checks, *untraced, requests, 0,
                                     primed, &ignored);
    }
    auto delta = [&](const std::string &stat) {
        return after.stat(stat) - before.stat(stat);
    };
    auto sample = [&](const std::string &name) {
        return after.sample(name) - before.sample(name);
    };
    out.checks.require(delta("cache.simulations") == 0,
                       "served requests simulated");
    out.checks.require(delta("characterizations") ==
                           static_cast<double>(n),
                       "daemon did not count every request");
    daemon->stop();

    std::printf("%zu requests in %.2f s over 2 connections; %zu latency "
                "samples, %zu beyond p90\n",
                n, loop.wall, loop.latencyMs.size(),
                loop.latencyMs.size() / 10);
    if (!cfg.trace) {
        out.add("setup_s", median(setup_times), "s");
        out.add("wall_s", loop.wall, "s");
        out.add("cpu_s", cpu, "s");
        out.add("peak_rss_mb", peak, "MiB");
        out.add("rms_error_pct", rms, "%");
        out.add("latency_p50_ms", quantile(loop.latencyMs, 0.5), "ms");
        out.add("latency_p90_ms", quantile(loop.latencyMs, 0.9), "ms");
        out.add("requests_per_s", static_cast<double>(n) / loop.wall,
                "1/s");
        return out;
    }

    tracer.write(cfg.workDir + "/../" + cfg.workload + ".trace.json");
    // Daemon histograms are read as sum and count only.
    auto hist_mean = [&](const std::string &family) {
        const double count = sample("didt_" + family + "_count");
        return count > 0 ? sample("didt_" + family + "_sum") / count : 0.0;
    };
    const double cycles = sample("didt_sim_cycles_total");
    const double cell_s = sample("didt_campaign_cell_ms_sum") / 1e3;
    const double lookups = delta("cache.lookups");
    out.add("sim.simulate_s", sample("didt_repo_simulate_ms_sum") / 1e3, "s");
    out.add("sim.cycles", cycles, "count");
    out.add("sim.mcycles_per_s", 0.0, "Mcycles/s");
    out.add("sim.ipc",
            cycles > 0 ? sample("didt_sim_committed_total") / cycles : 0.0,
            "ratio");
    out.add("repo.lookups", lookups, "count");
    out.add("repo.simulations", delta("cache.simulations"), "count");
    out.add("repo.disk_loads", delta("cache.disk_loads"), "count");
    out.add("repo.hit_ratio",
            lookups > 0 ? delta("cache.memory_hits") / lookups : 0.0,
            "ratio");
    out.add("repo.load_s", 0.0, "s");
    out.add("repo.wait_s", sample("didt_repo_wait_ms_sum") / 1e3, "s");
    out.add("repo.resident_mb", after.stat("cache.resident_bytes") / 1048576.0,
            "MiB");
    out.add("calibrate.training_s", 0.0, "s");
    out.add("calibrate.fit_s", sample("didt_campaign_calibrate_ms_sum") / 1e3,
            "s");
    out.add("calibrate.models", after.stat("cached_models"), "count");
    out.add("pool.busy_frac",
            cell_s / (static_cast<double>(kJobs) * loop.wall), "ratio");
    out.add("result.serialize_s", sample("didt_serve_serialize_ms_sum") / 1e3,
            "s");
    out.add("analysis.profile_s", cell_s, "s");
    out.add("analysis.estimate_s", 0.0, "s");
    out.add("analysis.measure_s", 0.0, "s");
    out.add("analysis.windows", windows, "count");
    out.add("analysis.us_per_window", windows > 0 ? 1e6 * cell_s / windows : 0.0,
            "us");
    out.add("wavelet.dwt_ns_per_window", 0.0, "ns");
    out.add("wavelet.scale_stats_ns_per_window", 0.0, "ns");
    out.add("power.voltage_ns_per_sample", 0.0, "ns");
    out.add("power.network_build_us", 0.0, "us");
    out.add("serve.queue_ms", hist_mean("serve_queue_ms"), "ms");
    out.add("serve.merge_ms", hist_mean("serve_merge_ms"), "ms");
    out.add("serve.execute_ms", hist_mean("serve_execute_ms"), "ms");
    out.add("serve.serialize_ms", hist_mean("serve_serialize_ms"), "ms");
    const double batches = delta("batches");
    out.add("serve.batch_size",
            batches > 0 ? delta("characterizations") / batches : 0.0,
            "count");
    out.add("serve.transport_ms",
            mean(loop.latencyMs) - hist_mean("serve_request_ms"), "ms");
    out.add("obs.trace_overhead_pct",
            100.0 * (loop.wall / untraced->wall - 1.0), "%");
    out.add("trace.unattributed_pct",
            100.0 *
                uncoveredSeconds(loop.spans, loop.start,
                                 loop.start + loop.wall, Layer::Cell) /
                loop.wall,
            "%");
    return out;
}

// ---------------------------------------------------------------------

/** One-line JSON (JsonValue::dump indents); non-finite numbers -> null. */
std::string
compactJson(const JsonValue &v)
{
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        return "null";
      case JsonValue::Kind::Bool:
        return v.asBool() ? "true" : "false";
      case JsonValue::Kind::Number:
        return std::isfinite(v.asNumber()) ? jsonNumber(v.asNumber())
                                           : "null";
      case JsonValue::Kind::String:
        return "\"" + jsonEscape(v.asString()) + "\"";
      case JsonValue::Kind::Array: {
        std::string out = "[";
        for (const JsonValue &item : v.items())
            out += (out.size() > 1 ? ", " : "") + compactJson(item);
        return out + "]";
      }
      case JsonValue::Kind::Object: {
        std::string out = "{";
        for (const auto &[key, value] : v.members())
            out += (out.size() > 1 ? ", \"" : "\"") + jsonEscape(key) +
                   "\": " + compactJson(value);
        return out + "}";
      }
    }
    return "null";
}

/** Host and build facts recorded beside every result set. */
JsonValue
fingerprint(const RunConfig &cfg, const std::string &source_id)
{
    const char *cap = std::getenv("DIDT_SIMD");
    JsonValue fp = JsonValue::object();
    fp.set("nproc", static_cast<long long>(std::thread::hardware_concurrency()));
    fp.set("jobs", static_cast<long long>(kJobs));
    fp.set("build_type", DIDT_BENCH_BUILD_TYPE);
    fp.set("compiler", DIDT_BENCH_COMPILER);
    fp.set("simd", simd::levelName(simd::activeLevel()));
    fp.set("simd_cap", cap ? cap : "");
    fp.set("failpoints_compiled", DIDT_BENCH_FAILPOINTS != 0);
    fp.set("source", source_id);
    fp.set("workload", cfg.workload);
    fp.set("seed", static_cast<long long>(cfg.seed));
    fp.set("size", cfg.smoke ? "smoke" : "full");
    return fp;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.declare("workload", "",
                 "sweep_cold, sweep_warm, mc_sampled or serve_warm");
    opts.declare("seed", "1", "input seed (campaign, MC and request seeds)");
    opts.declare("seconds", "10", "measuring time per run");
    opts.declare("trace", "0", "1 = traced per-layer run");
    opts.declare("size", "full", "full or smoke");
    opts.declare("work-dir", ".bench_build/work",
                 "scratch directory (created, emptied on exit)");
    opts.declare("source-id", "", "commit or source digest to record");
    opts.parse(argc, argv);

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    std::fprintf(stderr, "didt_bench: refusing a sanitizer build\n");
    return 2;
#endif
    if (const char *fp = std::getenv("DIDT_FAILPOINTS"); fp && *fp) {
        std::fprintf(stderr, "didt_bench: refusing: DIDT_FAILPOINTS=%s\n",
                     fp);
        return 2;
    }

    RunConfig cfg;
    cfg.workload = opts.get("workload");
    cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed"));
    cfg.seconds = opts.getDouble("seconds");
    cfg.trace = opts.getInt("trace") != 0;
    cfg.smoke = opts.get("size") == "smoke";
    cfg.workDir = opts.get("work-dir") + "/" + cfg.workload;
    const bool batch = cfg.workload == "sweep_cold" ||
                       cfg.workload == "sweep_warm" ||
                       cfg.workload == "mc_sampled";
    if (!batch && cfg.workload != "serve_warm") {
        std::fprintf(stderr, "didt_bench: unknown workload '%s'\n",
                     cfg.workload.c_str());
        return 2;
    }
    fs::remove_all(cfg.workDir);
    fs::create_directories(cfg.workDir);

    std::printf("fingerprint %s\n",
                compactJson(fingerprint(cfg, opts.get("source-id"))).c_str());
    Outcome out = batch ? runBatchWorkload(cfg) : runServeWorkload(cfg);
    fs::remove_all(cfg.workDir);

    out.checks.require(out.failed == 0, "failed cells or requests");
    out.checks.print();
    JsonValue metrics = JsonValue::object();
    for (const Metric &m : out.metrics) {
        std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        JsonValue entry = JsonValue::object();
        entry.set("value", m.value);
        entry.set("unit", m.unit);
        metrics.set(m.name, std::move(entry));
    }
    JsonValue line = JsonValue::object();
    line.set("correct", out.checks.ok());
    line.set("attempted", static_cast<long long>(out.attempted));
    line.set("failed", static_cast<long long>(out.failed));
    line.set("metrics", std::move(metrics));
    std::printf("%s\n", compactJson(line).c_str());
    return out.checks.ok() ? 0 : 1;
}
