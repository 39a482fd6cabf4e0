/**
 * @file
 * Parallel Section-4 characterization sweep.
 *
 * Runs the paper's full evaluation grid — all 26 SPEC 2000 profiles
 * crossed with the target-impedance scales — through the campaign
 * runner: every benchmark trace is simulated exactly once (shared via
 * the content-addressed TraceRepository), cells fan out over --jobs
 * worker threads, and results land in deterministic JSON/CSV files
 * whose bytes do not depend on the job count.
 *
 * Typical use:
 *   didt_campaign --jobs 8 --json campaign.json --csv campaign.csv
 *   didt_campaign --benchmarks gzip,mcf --impedances 1.0,1.5
 *
 * SIGINT/SIGTERM drain gracefully: in-flight cells finish, cells that
 * have not started are marked failed/"interrupted", and every
 * configured sink (JSON, CSV, metrics, trace) is still flushed before
 * the process exits non-zero.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "didt/didt.hh"

using namespace didt;

namespace
{

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        out.push_back(list.substr(pos, comma - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

/** --report: one line per metric, histograms with count/mean/p95. */
void
printMetricsReport(const obs::MetricsSnapshot &snapshot)
{
    std::printf("\nmetrics (%zu):\n", snapshot.metrics.size());
    for (const obs::MetricSnapshot &m : snapshot.metrics) {
        switch (m.kind) {
          case obs::MetricKind::Counter:
            std::printf("  %-28s %12.0f\n", m.name.c_str(), m.value);
            break;
          case obs::MetricKind::Gauge:
            std::printf("  %-28s last %8.1f  max %8.1f\n",
                        m.name.c_str(), m.value, m.maxValue);
            break;
          case obs::MetricKind::Histogram: {
            const obs::HistogramSnapshot &h = m.histogram;
            std::printf("  %-28s n %8llu  mean %9.3f ms  "
                        "p50 %9.3f  p95 %9.3f  max %9.3f\n",
                        m.name.c_str(),
                        static_cast<unsigned long long>(h.count),
                        h.mean(), h.quantile(0.5), h.quantile(0.95),
                        h.max);
            break;
          }
        }
    }
}

/**
 * runCharacterizationCampaign for the CLI: a spec the library rejects
 * as a whole (e.g. a window too long to calibrate) exits like any
 * other bad option.
 */
CampaignResult
runCampaign(const ExperimentSetup &setup, const CampaignSpec &spec,
            TraceRepository &repo, std::size_t jobs,
            const std::function<void(const CampaignCell &)> &on_cell = {})
{
    try {
        return runCharacterizationCampaign(setup, spec, repo, jobs,
                                           on_cell, &shutdownFlag());
    } catch (const std::invalid_argument &e) {
        didt_fatal(e.what());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.declare("jobs", "0",
                 "worker threads (0 = one per hardware thread)");
    opts.declare("benchmarks", "",
                 "comma-separated benchmark subset (empty = all 26)");
    opts.declare("mix", "",
                 "comma-separated workload mixes (int4, fp4, mem4, "
                 "mixed4, inphase-<bench>, staggered-<bench>); replaces "
                 "the benchmarks axis");
    opts.declare("cores", "",
                 "comma-separated chip sizes to sweep (empty = 1)");
    opts.declare("l2-banks", "8",
                 "shared-L2 banks for chip cells (power of two, at most "
                 "1024)");
    opts.declare("l2-bank-penalty", "4",
                 "bank-conflict stall cycles for chip cells");
    opts.declare("impedances", "1.0,1.1,1.2,1.3,1.5",
                 "comma-separated target-impedance scales");
    opts.declare("sample-detail", "0",
                 "sampled simulation: detailed cycles per window "
                 "(required when --sample-skip is set)");
    opts.declare("sample-skip", "0",
                 "sampled simulation: cycles fast-forwarded between "
                 "detailed windows (0 = full detail)");
    opts.declare("sample-warmup", "512",
                 "sampled simulation: detailed refill cycles at the end "
                 "of each skip (must not exceed --sample-skip)");
    opts.declare("instructions", "120000",
                 "dynamic instructions per benchmark");
    opts.declare("seed", "0", "extra workload seed");
    opts.declare("window", "256", "analysis window in cycles");
    opts.declare("levels", "8", "wavelet decomposition depth");
    opts.declare("basis", "haar",
                 "wavelet basis (haar, db4, db6, ahaar, spline)");
    opts.declare("bases", "",
                 "comma-separated basis ablation: run the sweep once "
                 "per basis and write a combined "
                 "didt-basis-ablation-v1 JSON (overrides --basis)");
    opts.declare("mc-draws", "0",
                 "Monte Carlo supply-network draws per cell "
                 "(0 = nominal network only)");
    opts.declare("mc-seed", "0", "campaign-level Monte Carlo seed");
    opts.declare("mc-sigma", "0.05",
                 "relative sigma on supply DC resistance and resonance "
                 "placement for Monte Carlo draws");
    opts.declare("mc-sigma-q", "0",
                 "lognormal sigma on supply quality factor for Monte "
                 "Carlo draws");
    opts.declare("low", "0.97", "low control point in volts");
    opts.declare("high", "1.03", "high control point in volts");
    opts.declare("no-correlation", "false",
                 "drop the correlation adjustment");
    opts.declare("cache-dir", "",
                 "persist traces here across invocations");
    opts.declare("json", "", "write campaign JSON to this file");
    opts.declare("csv", "", "write per-cell CSV to this file");
    opts.declare("timing-json", "false",
                 "include the (non-deterministic) timing section in "
                 "the JSON output");
    opts.declare("quiet", "false", "suppress per-cell progress lines");
    opts.declare("metrics-out", "",
                 "write a metrics sidecar JSON to this file");
    opts.declare("trace-out", "",
                 "write Chrome trace_event JSON (Perfetto) to this file");
    opts.declare("no-metrics", "false",
                 "disable metrics collection entirely");
    opts.declare("report", "false",
                 "print a human-readable metrics summary at the end");
    opts.declare("failpoints", "",
                 "arm fault-injection sites, e.g. "
                 "'campaign.cell=key:mcf@1.2;repo.disk_write=always' "
                 "(also read from $DIDT_FAILPOINTS)");
    opts.parse(argc, argv);

    // Env first so an explicit --failpoints wins over it.
    verify::armFailPointsFromEnv();
    if (const std::string fp = opts.get("failpoints"); !fp.empty()) {
        std::string error;
        if (!verify::armFailPointsFromSpec(fp, &error))
            didt_fatal("--failpoints: ", error);
    }

    if (opts.getBool("no-metrics"))
        obs::setMetricsEnabled(false);
    const std::string trace_out = opts.get("trace-out");
    if (!trace_out.empty())
        obs::TraceEventSink::global().setEnabled(true);

    CampaignSpec spec;
    for (const std::string &name : splitList(opts.get("benchmarks")))
        spec.profiles.push_back(profileByName(name));
    for (const std::string &name : splitList(opts.get("mix"))) {
        mixByName(name); // fatal on unknown names, with suggestions
        spec.mixes.push_back(name);
    }
    for (const std::string &count : splitList(opts.get("cores"))) {
        std::size_t consumed = 0;
        unsigned long value = 0;
        try {
            value = std::stoul(count, &consumed);
        } catch (const std::exception &) {
            consumed = 0;
        }
        if (consumed != count.size())
            didt_fatal("--cores: bad chip size '" + count + "'");
        spec.coreCounts.push_back(static_cast<std::size_t>(value));
    }
    spec.l2Banks = static_cast<std::size_t>(opts.getInt("l2-banks"));
    spec.l2BankPenalty =
        static_cast<std::size_t>(opts.getInt("l2-bank-penalty"));
    spec.impedanceScales.clear();
    for (const std::string &scale : splitList(opts.get("impedances"))) {
        std::size_t consumed = 0;
        double value = 0.0;
        try {
            value = std::stod(scale, &consumed);
        } catch (const std::exception &) {
            consumed = 0;
        }
        if (consumed != scale.size())
            didt_fatal("--impedances: bad scale '" + scale + "'");
        spec.impedanceScales.push_back(value);
    }
    spec.windowLength = static_cast<std::size_t>(opts.getInt("window"));
    spec.levels = static_cast<std::size_t>(opts.getInt("levels"));
    spec.basis = opts.get("basis");
    spec.lowThreshold = opts.getDouble("low");
    spec.highThreshold = opts.getDouble("high");
    spec.useCorrelation = !opts.getBool("no-correlation");
    spec.instructions =
        static_cast<std::uint64_t>(opts.getInt("instructions"));
    spec.seed = static_cast<std::uint64_t>(opts.getInt("seed"));
    spec.sampleDetail =
        static_cast<Cycle>(opts.getInt("sample-detail"));
    spec.sampleSkip = static_cast<Cycle>(opts.getInt("sample-skip"));
    spec.sampleWarmup =
        static_cast<Cycle>(opts.getInt("sample-warmup"));
    spec.mcDraws = static_cast<std::size_t>(opts.getInt("mc-draws"));
    if (spec.isMonteCarlo()) {
        spec.mcSeed = static_cast<std::uint64_t>(opts.getInt("mc-seed"));
        spec.mcSigmaR = opts.getDouble("mc-sigma");
        spec.mcSigmaResonance = spec.mcSigmaR;
        spec.mcSigmaQ = opts.getDouble("mc-sigma-q");
    }
    if (std::string error; !validateSpec(spec, &error))
        didt_fatal(error);
    const std::vector<std::string> bases = splitList(opts.get("bases"));
    for (const std::string &name : bases)
        if (!WaveletBasis::isKnownName(name))
            didt_fatal("--bases: unknown wavelet basis '", name,
                       "' (try ", WaveletBasis::knownNamesHint(), ")");
    if (!bases.empty() && !opts.get("csv").empty())
        didt_fatal("--bases and --csv are mutually exclusive (the "
                   "ablation writes one combined JSON document)");

    const std::size_t jobs = ThreadPool::resolveJobs(
        static_cast<std::size_t>(opts.getInt("jobs")));
    const bool quiet = opts.getBool("quiet");

    const auto setup_start = std::chrono::steady_clock::now();
    const ExperimentSetup setup = makeStandardSetup();
    const double setup_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - setup_start)
            .count();

    const std::size_t workloads = spec.mixes.empty()
                                      ? spec.effectiveProfiles().size()
                                      : spec.mixes.size();
    const std::size_t chip_sizes = spec.effectiveCoreCounts().size();
    const std::size_t total_cells = workloads * chip_sizes *
                                    spec.impedanceScales.size() *
                                    spec.drawCount();
    if (spec.isMonteCarlo())
        std::printf("campaign: %zu workloads x %zu impedance scales x "
                    "%zu Monte Carlo draws = %zu cells, %zu jobs\n",
                    workloads * chip_sizes, spec.impedanceScales.size(),
                    spec.mcDraws, total_cells, jobs);
    else if (spec.isChipSweep())
        std::printf("campaign: %zu workloads x %zu chip sizes x %zu "
                    "impedance scales = %zu cells, %zu jobs\n",
                    workloads, chip_sizes, spec.impedanceScales.size(),
                    total_cells, jobs);
    else
        std::printf("campaign: %zu benchmarks x %zu impedance scales = "
                    "%zu cells, %zu jobs\n",
                    workloads, spec.impedanceScales.size(), total_cells,
                    jobs);

    TraceRepository repo(setup, opts.get("cache-dir"));

    // Basis ablation: run the identical sweep once per basis through
    // one shared repository (each workload trace simulates exactly
    // once) and combine the runs into one document plus a summary
    // table on stdout.
    if (!bases.empty()) {
        installShutdownHandler();
        JsonValue campaigns = JsonValue::array();
        JsonValue summary = JsonValue::array();
        std::printf("basis ablation: %zu bases x %zu cells\n\n",
                    bases.size(), total_cells);
        std::printf("%-8s %14s %18s %18s\n", "basis", "rms_err_pct",
                    "mean_meas_below", "mean_est_below");
        const bool timing = opts.getBool("timing-json");
        for (const std::string &name : bases) {
            CampaignSpec ablated = spec;
            ablated.basis = name;
            const CampaignResult result =
                runCampaign(setup, ablated, repo, jobs);
            double meas = 0.0;
            double est = 0.0;
            std::size_t completed = 0;
            for (const CampaignCell &cell : result.cells) {
                if (cell.failed)
                    continue;
                meas += cell.measuredBelowPct;
                est += cell.estimatedBelowPct;
                ++completed;
            }
            const double denom =
                completed > 0 ? static_cast<double>(completed) : 1.0;
            std::printf("%-8s %14.4f %18.4f %18.4f\n", name.c_str(),
                        result.rmsEstimationErrorPct(), meas / denom,
                        est / denom);
            JsonValue row = JsonValue::object();
            row.set("basis", name);
            row.set("rms_estimation_error_pct",
                    result.rmsEstimationErrorPct());
            row.set("mean_measured_below_pct", meas / denom);
            row.set("mean_estimated_below_pct", est / denom);
            summary.push(std::move(row));
            campaigns.push(campaignToJson(result, timing));
            if (result.interrupted) {
                std::printf("interrupted during basis '%s'\n",
                            name.c_str());
                return 1;
            }
        }
        if (!opts.get("json").empty()) {
            JsonValue doc = JsonValue::object();
            doc.set("schema", "didt-basis-ablation-v1");
            JsonValue basis_names = JsonValue::array();
            for (const std::string &name : bases)
                basis_names.push(name);
            doc.set("bases", std::move(basis_names));
            doc.set("summary", std::move(summary));
            doc.set("campaigns", std::move(campaigns));
            std::ofstream out(opts.get("json"));
            if (!out)
                didt_fatal("cannot open ", opts.get("json"),
                           " for writing");
            doc.write(out);
            out << '\n';
            std::printf("(json written to %s)\n",
                        opts.get("json").c_str());
        }
        return 0;
    }
    std::size_t done = 0;
    const std::size_t progress_stride =
        std::max<std::size_t>(std::size_t{1}, total_cells / 10);
    const auto sweep_start = std::chrono::steady_clock::now();
    const auto on_cell = [&](const CampaignCell &cell) {
        ++done;
        if (quiet)
            return;
        if (cell.failed)
            std::printf("[%3zu/%zu] %-8s @%.2fx  FAILED: %s\n", done,
                        total_cells, cell.benchmark.c_str(),
                        cell.impedanceScale, cell.error.c_str());
        else
            std::printf("[%3zu/%zu] %-8s @%.2fx  est %6.2f%%  "
                        "meas %6.2f%%  (%.0f ms)\n",
                        done, total_cells, cell.benchmark.c_str(),
                        cell.impedanceScale, cell.estimatedBelowPct,
                        cell.measuredBelowPct, cell.wallMillis);
        if (done % progress_stride == 0 && done != total_cells) {
            const double elapsed_s =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - sweep_start)
                    .count();
            const double eta_s = elapsed_s /
                                 static_cast<double>(done) *
                                 static_cast<double>(total_cells - done);
            std::printf("-- %zu/%zu cells, ETA %.0f s\n", done,
                        total_cells, eta_s);
        }
    };

    // Graceful SIGINT/SIGTERM: the flag cancels not-yet-started cells
    // and the sinks below still flush whatever completed.
    installShutdownHandler();
    const CampaignResult result =
        runCampaign(setup, spec, repo, jobs, on_cell);

    double cell_ms_sum = 0.0;
    for (const CampaignCell &cell : result.cells)
        cell_ms_sum += cell.wallMillis;

    std::printf("\n%zu cells in %.2f s wall (setup %.2f s, calibration "
                "%.2f s; sum of cell times %.2f s, parallel efficiency "
                "proxy %.2fx)\n",
                result.cells.size(), result.wallMillis / 1000.0,
                setup_ms / 1000.0, result.calibrationMillis / 1000.0,
                cell_ms_sum / 1000.0,
                result.wallMillis > 0.0
                    ? cell_ms_sum / result.wallMillis
                    : 0.0);
    std::printf("trace cache: %llu lookups, %llu memory hits, %llu disk "
                "loads, %llu disk stores, %llu corrupt, "
                "%llu simulations\n",
                static_cast<unsigned long long>(
                    result.cacheStats.lookups),
                static_cast<unsigned long long>(
                    result.cacheStats.memoryHits),
                static_cast<unsigned long long>(
                    result.cacheStats.diskLoads),
                static_cast<unsigned long long>(
                    result.cacheStats.diskStores),
                static_cast<unsigned long long>(
                    result.cacheStats.diskCorrupt),
                static_cast<unsigned long long>(
                    result.cacheStats.simulations));
    std::printf("RMS estimation error: %.2f%%\n",
                result.rmsEstimationErrorPct());
    if (const std::size_t failed = result.failedCells(); failed > 0)
        std::printf("failed cells: %zu of %zu (marked in the result "
                    "JSON)\n",
                    failed, result.cells.size());

    const bool timing_json = opts.getBool("timing-json");
    if (!opts.get("json").empty()) {
        writeCampaignJson(opts.get("json"), result, timing_json);
        std::printf("(json written to %s)\n", opts.get("json").c_str());
    }
    if (!opts.get("csv").empty()) {
        writeCampaignCsv(opts.get("csv"), result);
        std::printf("(csv written to %s)\n", opts.get("csv").c_str());
    }

    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();
    if (!opts.get("metrics-out").empty()) {
        obs::writeMetricsJson(opts.get("metrics-out"), snapshot);
        std::printf("(metrics written to %s)\n",
                    opts.get("metrics-out").c_str());
    }
    if (!trace_out.empty()) {
        obs::TraceEventSink::global().writeChromeTrace(trace_out);
        std::printf("(trace written to %s; open in ui.perfetto.dev)\n",
                    trace_out.c_str());
    }
    if (opts.getBool("report"))
        printMetricsReport(snapshot);
    if (result.interrupted) {
        std::printf("interrupted: %zu cells were cancelled before "
                    "evaluation (marked in the result JSON)\n",
                    result.failedCells());
        return 1;
    }
    return 0;
}
