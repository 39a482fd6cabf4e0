#include "runner/campaign.hh"

#include <cmath>
#include <limits>

#include "runner/executor.hh"
#include "runner/plan.hh"
#include "wavelet/basis.hh"

namespace didt
{

const std::vector<BenchmarkProfile> &
CampaignSpec::effectiveProfiles() const
{
    return profiles.empty() ? spec2000Profiles() : profiles;
}

const std::vector<std::size_t> &
CampaignSpec::effectiveCoreCounts() const
{
    static const std::vector<std::size_t> uniprocessor{1};
    return coreCounts.empty() ? uniprocessor : coreCounts;
}

bool
CampaignSpec::isChipSweep() const
{
    if (!mixes.empty())
        return true;
    for (std::size_t cores : effectiveCoreCounts())
        if (cores != 1)
            return true;
    return false;
}

bool
validateSpec(const CampaignSpec &spec, std::string *error)
{
    const auto fail = [error](std::string message) {
        *error = std::move(message);
        return false;
    };
    if (spec.impedanceScales.empty())
        return fail("spec field 'impedance_scales' must not be empty");
    for (double scale : spec.impedanceScales)
        if (!(scale > 0.0 && std::isfinite(scale)))
            return fail("spec field 'impedance_scales' must hold "
                        "positive finite numbers");
    // A non-finite threshold cannot be written to the result, and an
    // inverted band counts every cycle both below and above.
    if (!std::isfinite(spec.lowThreshold))
        return fail("spec field 'low_threshold' must be finite");
    if (!std::isfinite(spec.highThreshold))
        return fail("spec field 'high_threshold' must be finite");
    if (!(spec.lowThreshold < spec.highThreshold))
        return fail("spec field 'low_threshold' must be below "
                    "'high_threshold'");
    if (spec.windowLength == 0)
        return fail("spec field 'window' must be positive");
    // The variance model's rules: at least one level, and a window that
    // splits into 2^levels equal blocks (none splits into 2^64 or more).
    if (spec.levels == 0)
        return fail("spec field 'levels' must be at least 1");
    if (spec.levels >= std::numeric_limits<std::size_t>::digits ||
        spec.windowLength % (std::size_t(1) << spec.levels) != 0)
        return fail("spec field 'window' (" +
                    std::to_string(spec.windowLength) +
                    ") must be divisible by 2^levels (2^" +
                    std::to_string(spec.levels) + ")");
    if (!WaveletBasis::isKnownName(spec.basis))
        return fail("unknown wavelet basis '" + spec.basis + "' (try " +
                    WaveletBasis::knownNamesHint() + ")");
    for (std::size_t cores : spec.coreCounts)
        if (cores < 1 || cores > 1024)
            return fail("spec field 'cores' must hold integers in "
                        "[1, 1024]");
    if (!spec.mixes.empty() && !spec.profiles.empty())
        return fail("spec fields 'benchmarks' and 'mixes' are "
                    "mutually exclusive");
    // Every bank allocates per-core state, so the count shares the
    // cores ceiling.
    if (spec.l2Banks == 0 || spec.l2Banks > 1024 ||
        (spec.l2Banks & (spec.l2Banks - 1)) != 0)
        return fail("spec field 'l2_banks' must be a power of two in "
                    "[1, 1024]");
    if (spec.isSampled()) {
        if (spec.sampleDetail == 0)
            return fail("spec field 'sample_detail' must be positive "
                        "when 'sample_skip' is set");
        if (spec.sampleWarmup > spec.sampleSkip)
            return fail("spec field 'sample_warmup' must not exceed "
                        "'sample_skip'");
    }
    if (spec.mcDraws > 100000)
        return fail("spec field 'mc_draws' must not exceed 100000");
    for (double sigma :
         {spec.mcSigmaR, spec.mcSigmaResonance, spec.mcSigmaQ})
        if (!(sigma >= 0.0 && sigma <= 1.0))
            return fail("spec fields 'mc_sigma_*' must be in [0, 1]");
    return true;
}

double
CampaignResult::rmsEstimationErrorPct() const
{
    double sq = 0.0;
    std::size_t ok = 0;
    for (const CampaignCell &cell : cells) {
        if (cell.failed)
            continue;
        const double err =
            cell.estimatedBelowPct - cell.measuredBelowPct;
        sq += err * err;
        ++ok;
    }
    return ok == 0 ? 0.0 : std::sqrt(sq / static_cast<double>(ok));
}

std::size_t
CampaignResult::failedCells() const
{
    std::size_t failed = 0;
    for (const CampaignCell &cell : cells)
        failed += cell.failed ? 1 : 0;
    return failed;
}

CampaignResult
runCharacterizationCampaign(const ExperimentSetup &setup,
                            const CampaignSpec &spec,
                            TraceRepository &repo, std::size_t jobs,
                            const std::function<void(const CampaignCell &)>
                                &on_cell,
                            const std::atomic<bool> *cancel)
{
    Executor executor(setup, repo, jobs);
    ExecutionHooks hooks;
    hooks.onCell = on_cell;
    hooks.cancel = cancel;
    return executor.run(buildCampaignPlan(spec), hooks);
}

} // namespace didt
