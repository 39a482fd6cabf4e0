#include "runner/result_json.hh"

#include <cmath>
#include <fstream>
#include <limits>

#include "runner/campaign.hh"
#include "stats/quantiles.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "workload/mix.hh"

namespace didt
{

namespace
{

/**
 * Emergency-budget thresholds (percent of cycles outside the voltage
 * band) swept by the Monte Carlo yield curve.
 */
constexpr double kEmergencyBudgetsPct[] = {0.01, 0.1, 0.5, 1.0, 2.0, 5.0};

/** Read a non-negative integer that @p T holds into @p out. */
template <typename T>
bool
countFromJson(const JsonValue &member, const std::string &key, T *out,
              std::string *error)
{
    if (member.kind() != JsonValue::Kind::Number) {
        *error = "spec field '" + key + "' must be a number";
        return false;
    }
    const double value = member.asNumber();
    // Converting a value T cannot hold is undefined, so reject it here.
    constexpr int bits = std::numeric_limits<T>::digits;
    if (value < 0.0 || value != std::floor(value) ||
        value >= std::ldexp(1.0, bits)) {
        *error = "spec field '" + key +
                 "' must be a non-negative integer below 2^" +
                 std::to_string(bits);
        return false;
    }
    *out = static_cast<T>(value);
    return true;
}

/** Read an optional non-negative integer member into @p out. */
template <typename T>
bool
readCount(const JsonValue &json, const std::string &key, T *out,
          std::string *error)
{
    const JsonValue *member = json.find(key);
    return !member || countFromJson(*member, key, out, error);
}

/** Read an optional number member into @p out. */
bool
readNumber(const JsonValue &json, const std::string &key, double *out,
           std::string *error)
{
    const JsonValue *member = json.find(key);
    if (!member)
        return true;
    if (member->kind() != JsonValue::Kind::Number) {
        *error = "spec field '" + key + "' must be a number";
        return false;
    }
    *out = member->asNumber();
    return true;
}

/** Quantile-band summary of an empirical distribution. */
JsonValue
quantileBlock(const EmpiricalDistribution &dist)
{
    JsonValue block = JsonValue::object();
    block.set("mean", dist.mean());
    block.set("min", dist.min());
    block.set("p05", dist.quantile(0.05));
    block.set("p25", dist.quantile(0.25));
    block.set("p50", dist.quantile(0.50));
    block.set("p75", dist.quantile(0.75));
    block.set("p95", dist.quantile(0.95));
    block.set("max", dist.max());
    return block;
}

/**
 * The Monte Carlo aggregation section: per (workload, cores, scale)
 * group, quantile bands of the per-draw emergency percentage and
 * resonance-band variance, plus the yield curve — the fraction of
 * drawn chips whose emergency percentage exceeds each budget. Cells
 * are stored draw-innermost, so each group is one contiguous run of
 * spec.drawCount() cells. Computed from the finished cells at
 * serialization time, so batch and served output agree byte for byte.
 */
JsonValue
monteCarloToJson(const CampaignResult &result)
{
    const CampaignSpec &spec = result.spec;
    const std::size_t draws = spec.drawCount();
    JsonValue mc = JsonValue::object();
    mc.set("draws", static_cast<long long>(spec.mcDraws));
    mc.set("seed", static_cast<long long>(spec.mcSeed));
    mc.set("sigma_r", spec.mcSigmaR);
    mc.set("sigma_resonance", spec.mcSigmaResonance);
    mc.set("sigma_q", spec.mcSigmaQ);
    JsonValue budgets = JsonValue::array();
    for (double budget : kEmergencyBudgetsPct)
        budgets.push(budget);
    mc.set("budget_pcts", std::move(budgets));

    JsonValue groups = JsonValue::array();
    for (std::size_t base = 0; base + draws <= result.cells.size();
         base += draws) {
        const CampaignCell &first = result.cells[base];
        JsonValue group = JsonValue::object();
        group.set("benchmark", first.benchmark);
        group.set("impedance_scale", first.impedanceScale);
        if (first.cores != 1)
            group.set("cores", static_cast<long long>(first.cores));

        EmpiricalDistribution emergency;
        EmpiricalDistribution variance;
        std::size_t failed = 0;
        for (std::size_t di = 0; di < draws; ++di) {
            const CampaignCell &cell = result.cells[base + di];
            if (cell.failed) {
                ++failed;
                continue;
            }
            emergency.push(cell.measuredBelowPct +
                           cell.measuredAbovePct);
            variance.push(cell.measuredVariance);
        }
        group.set("completed_draws",
                  static_cast<long long>(draws - failed));
        if (failed > 0)
            group.set("failed_draws", static_cast<long long>(failed));
        if (emergency.count() > 0) {
            group.set("emergency_pct", quantileBlock(emergency));
            group.set("measured_variance", quantileBlock(variance));
            JsonValue curve = JsonValue::array();
            for (double budget : kEmergencyBudgetsPct) {
                JsonValue point = JsonValue::object();
                point.set("budget_pct", budget);
                point.set("exceed_fraction",
                          emergency.exceedanceFraction(budget));
                curve.push(std::move(point));
            }
            group.set("yield_curve", std::move(curve));
        }
        groups.push(std::move(group));
    }
    mc.set("groups", std::move(groups));
    return mc;
}

} // namespace

JsonValue
campaignSpecToJson(const CampaignSpec &spec)
{
    JsonValue json = JsonValue::object();
    JsonValue benchmarks = JsonValue::array();
    for (const BenchmarkProfile &profile : spec.profiles)
        benchmarks.push(profile.name);
    json.set("benchmarks", std::move(benchmarks));
    JsonValue scales = JsonValue::array();
    for (double scale : spec.impedanceScales)
        scales.push(scale);
    json.set("impedance_scales", std::move(scales));
    json.set("window", static_cast<long long>(spec.windowLength));
    json.set("levels", static_cast<long long>(spec.levels));
    json.set("basis", spec.basis);
    json.set("low_threshold", spec.lowThreshold);
    json.set("high_threshold", spec.highThreshold);
    json.set("use_correlation", spec.useCorrelation);
    json.set("instructions", static_cast<long long>(spec.instructions));
    json.set("seed", static_cast<long long>(spec.seed));
    json.set("trim_warmup", static_cast<long long>(spec.trimWarmup));
    // Chip fields appear only when they deviate from the uniprocessor
    // defaults, so single-core spec JSON stays byte-identical to what
    // pre-chip builds wrote.
    if (spec.isChipSweep()) {
        JsonValue cores = JsonValue::array();
        for (std::size_t n : spec.effectiveCoreCounts())
            cores.push(static_cast<long long>(n));
        json.set("cores", std::move(cores));
        if (!spec.mixes.empty()) {
            JsonValue mixes = JsonValue::array();
            for (const std::string &mix : spec.mixes)
                mixes.push(mix);
            json.set("mixes", std::move(mixes));
        }
        json.set("l2_banks", static_cast<long long>(spec.l2Banks));
        json.set("l2_bank_penalty",
                 static_cast<long long>(spec.l2BankPenalty));
    }
    // Sampling fields appear only for sampled sweeps, so sampling-off
    // spec JSON stays byte-identical to pre-sampling builds.
    if (spec.isSampled()) {
        json.set("sample_detail",
                 static_cast<long long>(spec.sampleDetail));
        json.set("sample_skip", static_cast<long long>(spec.sampleSkip));
        json.set("sample_warmup",
                 static_cast<long long>(spec.sampleWarmup));
    }
    // Monte Carlo fields appear only when the draw axis is active, so
    // MC-off spec JSON stays byte-identical to pre-variation builds.
    if (spec.isMonteCarlo()) {
        json.set("mc_draws", static_cast<long long>(spec.mcDraws));
        json.set("mc_seed", static_cast<long long>(spec.mcSeed));
        json.set("mc_sigma_r", spec.mcSigmaR);
        json.set("mc_sigma_resonance", spec.mcSigmaResonance);
        json.set("mc_sigma_q", spec.mcSigmaQ);
    }
    return json;
}

bool
campaignSpecFromJson(const JsonValue &json, CampaignSpec *spec,
                     std::string *error)
{
    if (json.kind() != JsonValue::Kind::Object) {
        *error = "spec must be a JSON object";
        return false;
    }
    CampaignSpec parsed;
    if (const JsonValue *benchmarks = json.find("benchmarks")) {
        if (benchmarks->kind() != JsonValue::Kind::Array) {
            *error = "spec field 'benchmarks' must be an array";
            return false;
        }
        for (const JsonValue &name : benchmarks->items()) {
            if (name.kind() != JsonValue::Kind::String) {
                *error = "spec field 'benchmarks' must hold strings";
                return false;
            }
            const BenchmarkProfile *profile =
                findProfileByName(name.asString());
            if (!profile) {
                *error = "unknown benchmark '" + name.asString() + "'";
                return false;
            }
            parsed.profiles.push_back(*profile);
        }
    }
    if (const JsonValue *scales = json.find("impedance_scales")) {
        if (scales->kind() != JsonValue::Kind::Array) {
            *error = "spec field 'impedance_scales' must be an array";
            return false;
        }
        parsed.impedanceScales.clear();
        for (const JsonValue &scale : scales->items()) {
            if (scale.kind() != JsonValue::Kind::Number) {
                *error = "spec field 'impedance_scales' must hold "
                         "numbers";
                return false;
            }
            parsed.impedanceScales.push_back(scale.asNumber());
        }
    }
    if (!readCount(json, "window", &parsed.windowLength, error) ||
        !readCount(json, "levels", &parsed.levels, error) ||
        !readCount(json, "instructions", &parsed.instructions, error) ||
        !readCount(json, "seed", &parsed.seed, error) ||
        !readCount(json, "trim_warmup", &parsed.trimWarmup, error))
        return false;
    if (const JsonValue *basis = json.find("basis")) {
        if (basis->kind() != JsonValue::Kind::String) {
            *error = "spec field 'basis' must be a string";
            return false;
        }
        parsed.basis = basis->asString();
    }
    if (!readNumber(json, "low_threshold", &parsed.lowThreshold,
                    error) ||
        !readNumber(json, "high_threshold", &parsed.highThreshold,
                    error))
        return false;
    if (const JsonValue *corr = json.find("use_correlation")) {
        if (corr->kind() != JsonValue::Kind::Bool) {
            *error = "spec field 'use_correlation' must be a boolean";
            return false;
        }
        parsed.useCorrelation = corr->asBool();
    }
    if (const JsonValue *cores = json.find("cores")) {
        if (cores->kind() != JsonValue::Kind::Array) {
            *error = "spec field 'cores' must be an array";
            return false;
        }
        for (const JsonValue &count : cores->items()) {
            std::size_t value = 0;
            if (!countFromJson(count, "cores", &value, error))
                return false;
            parsed.coreCounts.push_back(value);
        }
    }
    if (const JsonValue *mixes = json.find("mixes")) {
        if (mixes->kind() != JsonValue::Kind::Array) {
            *error = "spec field 'mixes' must be an array";
            return false;
        }
        for (const JsonValue &name : mixes->items()) {
            if (name.kind() != JsonValue::Kind::String) {
                *error = "spec field 'mixes' must hold strings";
                return false;
            }
            if (!findMixByName(name.asString())) {
                *error = "unknown workload mix '" + name.asString() +
                         "'";
                return false;
            }
            parsed.mixes.push_back(name.asString());
        }
    }
    if (!readCount(json, "l2_banks", &parsed.l2Banks, error) ||
        !readCount(json, "l2_bank_penalty", &parsed.l2BankPenalty,
                   error))
        return false;
    if (!readCount(json, "sample_detail", &parsed.sampleDetail, error) ||
        !readCount(json, "sample_skip", &parsed.sampleSkip, error) ||
        !readCount(json, "sample_warmup", &parsed.sampleWarmup, error))
        return false;
    if (!readCount(json, "mc_draws", &parsed.mcDraws, error) ||
        !readCount(json, "mc_seed", &parsed.mcSeed, error) ||
        !readNumber(json, "mc_sigma_r", &parsed.mcSigmaR, error) ||
        !readNumber(json, "mc_sigma_resonance",
                    &parsed.mcSigmaResonance, error) ||
        !readNumber(json, "mc_sigma_q", &parsed.mcSigmaQ, error))
        return false;
    if (!validateSpec(parsed, error))
        return false;
    *spec = std::move(parsed);
    return true;
}

JsonValue
campaignToJson(const CampaignResult &result, bool include_timing)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", "didt-campaign-v1");
    doc.set("spec", campaignSpecToJson(result.spec));

    JsonValue cache = JsonValue::object();
    cache.set("lookups",
              static_cast<long long>(result.cacheStats.lookups));
    cache.set("memory_hits",
              static_cast<long long>(result.cacheStats.memoryHits));
    cache.set("disk_loads",
              static_cast<long long>(result.cacheStats.diskLoads));
    cache.set("disk_stores",
              static_cast<long long>(result.cacheStats.diskStores));
    cache.set("disk_corrupt",
              static_cast<long long>(result.cacheStats.diskCorrupt));
    cache.set("simulations",
              static_cast<long long>(result.cacheStats.simulations));
    // Evictions only happen under a memory budget, so budget-less runs
    // keep the cache section byte-identical to pre-budget builds.
    if (result.cacheStats.evictions > 0)
        cache.set("evictions",
                  static_cast<long long>(result.cacheStats.evictions));
    doc.set("cache", std::move(cache));

    JsonValue cells = JsonValue::array();
    for (const CampaignCell &cell : result.cells) {
        JsonValue c = JsonValue::object();
        c.set("benchmark", cell.benchmark);
        c.set("impedance_scale", cell.impedanceScale);
        // Uniprocessor cells omit the field: single-core campaign JSON
        // stays byte-identical to pre-chip builds.
        if (cell.cores != 1)
            c.set("cores", static_cast<long long>(cell.cores));
        // Likewise only Monte Carlo cells carry a draw index.
        if (result.spec.isMonteCarlo())
            c.set("draw", static_cast<long long>(cell.draw));
        c.set("trace_cycles", static_cast<long long>(cell.traceCycles));
        c.set("windows", static_cast<long long>(cell.windows));
        c.set("estimated_below_pct", cell.estimatedBelowPct);
        c.set("measured_below_pct", cell.measuredBelowPct);
        c.set("estimated_above_pct", cell.estimatedAbovePct);
        c.set("measured_above_pct", cell.measuredAbovePct);
        c.set("estimated_variance", cell.estimatedVariance);
        c.set("measured_variance", cell.measuredVariance);
        // Only failed cells carry failure fields, so a clean campaign's
        // JSON is byte-identical to what pre-failpoint builds wrote.
        if (cell.failed) {
            c.set("failed", true);
            c.set("error", cell.error);
        }
        cells.push(std::move(c));
    }
    doc.set("cells", std::move(cells));
    // The yield aggregation exists only for Monte Carlo campaigns, so
    // MC-off documents keep their historical bytes.
    if (result.spec.isMonteCarlo())
        doc.set("monte_carlo", monteCarloToJson(result));
    doc.set("rms_estimation_error_pct", result.rmsEstimationErrorPct());
    if (const std::size_t failed = result.failedCells(); failed > 0)
        doc.set("failed_cells", static_cast<long long>(failed));
    if (result.interrupted)
        doc.set("interrupted", true);

    if (include_timing) {
        JsonValue timing = JsonValue::object();
        timing.set("jobs", static_cast<long long>(result.jobs));
        timing.set("wall_ms", result.wallMillis);
        timing.set("calibration_ms", result.calibrationMillis);
        JsonValue cell_ms = JsonValue::array();
        for (const CampaignCell &cell : result.cells)
            cell_ms.push(cell.wallMillis);
        timing.set("cell_ms", std::move(cell_ms));
        doc.set("timing", std::move(timing));
    }
    return doc;
}

void
writeCampaignJson(const std::string &path, const CampaignResult &result,
                  bool include_timing)
{
    std::ofstream out(path);
    if (!out)
        didt_fatal("cannot open ", path, " for writing");
    campaignToJson(result, include_timing).write(out);
    out << '\n';
    if (!out)
        didt_fatal("error writing campaign JSON to ", path);
}

void
writeCampaignCsv(const std::string &path, const CampaignResult &result)
{
    // The draw column exists only for Monte Carlo campaigns, keeping
    // MC-off CSV headers (and bytes) unchanged.
    const bool mc = result.spec.isMonteCarlo();
    std::vector<std::string> columns{"benchmark", "impedance_scale"};
    if (mc)
        columns.push_back("draw");
    for (const char *name :
         {"trace_cycles", "windows", "estimated_below_pct",
          "measured_below_pct", "estimated_above_pct",
          "measured_above_pct", "estimated_variance",
          "measured_variance"})
        columns.push_back(name);
    Table table(columns);
    for (const CampaignCell &cell : result.cells) {
        table.newRow();
        table.add(cell.benchmark);
        table.add(cell.impedanceScale, 2);
        if (mc)
            table.add(static_cast<long long>(cell.draw));
        table.add(static_cast<long long>(cell.traceCycles));
        table.add(static_cast<long long>(cell.windows));
        table.add(cell.estimatedBelowPct, 4);
        table.add(cell.measuredBelowPct, 4);
        table.add(cell.estimatedAbovePct, 4);
        table.add(cell.measuredAbovePct, 4);
        table.add(cell.estimatedVariance, 10);
        table.add(cell.measuredVariance, 10);
    }
    table.writeCsvFile(path);
}

} // namespace didt
