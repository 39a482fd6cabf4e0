#include "verify/oracle.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/emergency_estimator.hh"
#include "core/monitor.hh"
#include "power/variation.hh"
#include "wavelet/modwt.hh"

namespace didt
{
namespace verify
{

Divergence
measureDivergence(std::span<const double> a, std::span<const double> b)
{
    Divergence d;
    const std::size_t n = std::min(a.size(), b.size());
    double sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double err = std::fabs(a[i] - b[i]);
        d.maxAbs = std::max(d.maxAbs, err);
        sq += err * err;
    }
    d.samples = n;
    d.rms = n ? std::sqrt(sq / static_cast<double>(n)) : 0.0;
    return d;
}

Oracle::Oracle(const ExperimentSetup &setup, OracleTolerances tolerances)
    : setup_(setup), tol_(tolerances)
{
}

MonitorOracleReport
Oracle::checkMonitor(const SupplyNetwork &network,
                     const CurrentTrace &trace, std::size_t terms,
                     std::size_t window, std::size_t levels) const
{
    MonitorOracleReport report;

    WaveletMonitor monitor(network, terms, window, levels);
    // The exact online reference: the same impulse response with every
    // tap retained (energy fraction 1.0 disables truncation). Both
    // monitors share the steady-state warm start (history assumed
    // equal to the first sample), so the only difference between the
    // two series is the wavelet-domain top-K truncation the analytic
    // bound covers.
    FullConvolutionMonitor reference(network, 1.0);

    VoltageTrace wavelet_v(trace.size());
    VoltageTrace reference_v(trace.size());
    // True voltage is unused by both estimation monitors.
    const VoltageTrace unused(trace.size(),
                              network.config().nominalVoltage);
    monitor.updateBlock(trace, unused, wavelet_v);
    reference.updateBlock(trace, unused, reference_v);

    report.divergence = measureDivergence(wavelet_v, reference_v);
    report.terms = monitor.termCount();

    const auto [lo, hi] = std::minmax_element(trace.begin(), trace.end());
    report.halfSwing =
        trace.empty() ? 0.0 : 0.5 * (*hi - *lo);
    report.bound = monitor.maxError(report.halfSwing);
    report.pass = report.divergence.maxAbs <=
                  report.bound * tol_.monitorBoundSlack +
                      tol_.monitorFloor;
    return report;
}

VarianceOracleReport
Oracle::checkVarianceModel(const SupplyNetwork &network,
                           const VoltageVarianceModel &model,
                           std::span<const CurrentTrace> traces,
                           Volt low_threshold, Volt high_threshold) const
{
    VarianceOracleReport report;
    double var_sq = 0.0;
    double pct_sq = 0.0;
    std::size_t pct_samples = 0;
    for (const CurrentTrace &trace : traces) {
        const EmergencyProfile ep =
            profileTrace(trace, network, model, low_threshold,
                         high_threshold);
        if (ep.measuredVariance > 0.0) {
            const double rel = std::fabs(ep.estimatedVariance -
                                         ep.measuredVariance) /
                               ep.measuredVariance;
            report.maxVarianceRelError =
                std::max(report.maxVarianceRelError, rel);
            var_sq += rel * rel;
        }
        for (const double err :
             {100.0 * (ep.estimatedBelow - ep.measuredBelow),
              100.0 * (ep.estimatedAbove - ep.measuredAbove)}) {
            report.maxEmergencyPctError =
                std::max(report.maxEmergencyPctError, std::fabs(err));
            pct_sq += err * err;
            ++pct_samples;
        }
        ++report.traces;
    }
    report.rmsVarianceRelError =
        report.traces
            ? std::sqrt(var_sq / static_cast<double>(report.traces))
            : 0.0;
    report.rmsEmergencyPctError =
        pct_samples
            ? std::sqrt(pct_sq / static_cast<double>(pct_samples))
            : 0.0;
    report.pass = report.traces > 0 &&
                  report.maxVarianceRelError <= tol_.varianceRelTol &&
                  report.maxEmergencyPctError <= tol_.emergencyPctTol;
    return report;
}

SamplingOracleReport
Oracle::checkSampling(const BenchmarkProfile &profile,
                      const SamplingConfig &sampling,
                      std::uint64_t instructions, double impedance_scale,
                      std::size_t levels, Volt low_threshold,
                      Volt high_threshold) const
{
    SamplingOracleReport report;

    const CurrentTrace full =
        benchmarkCurrentTrace(setup_, profile, instructions);
    const CurrentTrace sampled = benchmarkCurrentTrace(
        setup_, profile, instructions, 0, 4096, sampling);
    report.fullCycles = full.size();
    report.sampledCycles = sampled.size();
    if (full.size() < 64 || sampled.size() < 64)
        return report;

    const SupplyNetwork network = setup_.makeNetwork(impedance_scale);

    // Resonant-octave wavelet variance, the chip_cosim.cc recipe:
    // level j spans [clock/2^(j+1), clock/2^j].
    const Modwt modwt(WaveletBasis::haar());
    const std::vector<double> full_var =
        modwt.waveletVariance(full, levels);
    const std::vector<double> sampled_var =
        modwt.waveletVariance(sampled, levels);
    const double ratio =
        network.config().clockHz / network.config().resonantHz;
    const auto octave = static_cast<std::size_t>(
        std::floor(std::log2(std::max(2.0, ratio))));
    const std::size_t level = std::min(octave - 1, full_var.size() - 1);
    report.fullResonanceVariance = full_var[level];
    report.sampledResonanceVariance = sampled_var[level];
    if (report.fullResonanceVariance > 0.0)
        report.resonanceVarianceRelError =
            std::fabs(report.sampledResonanceVariance -
                      report.fullResonanceVariance) /
            report.fullResonanceVariance;

    // Control-point crossing fractions of the resulting voltage.
    auto crossingPct = [&](const CurrentTrace &trace, double &below,
                           double &above) {
        const VoltageTrace v = network.computeVoltage(trace);
        std::size_t n_below = 0;
        std::size_t n_above = 0;
        for (const Volt volt : v) {
            if (volt < low_threshold)
                ++n_below;
            if (volt > high_threshold)
                ++n_above;
        }
        below = 100.0 * static_cast<double>(n_below) /
                static_cast<double>(v.size());
        above = 100.0 * static_cast<double>(n_above) /
                static_cast<double>(v.size());
    };
    double full_below = 0.0, full_above = 0.0;
    double sampled_below = 0.0, sampled_above = 0.0;
    crossingPct(full, full_below, full_above);
    crossingPct(sampled, sampled_below, sampled_above);
    report.lowCrossingPctError = std::fabs(sampled_below - full_below);
    report.highCrossingPctError = std::fabs(sampled_above - full_above);

    report.pass =
        report.resonanceVarianceRelError <= tol_.samplingVarianceRelTol &&
        report.lowCrossingPctError <= tol_.samplingCrossingPctTol &&
        report.highCrossingPctError <= tol_.samplingCrossingPctTol;
    return report;
}

SchemeOracleReport
Oracle::checkScheme(ControlScheme scheme, const BenchmarkProfile &profile,
                    const SupplyNetwork &network,
                    std::uint64_t instructions,
                    const VoltageVarianceModel *hazard_model) const
{
    SchemeOracleReport report;
    report.scheme = controlSchemeName(scheme);

    CosimConfig cfg;
    cfg.instructions = instructions;
    cfg.scheme = scheme;
    cfg.hazardModel = hazard_model;
    cfg.maxCycles = instructions * 64;

    const CosimResult result =
        runClosedLoop(profile, setup_.proc, setup_.power, network, cfg);
    report.committedAll = result.committed == instructions;
    report.pass = report.committedAll;
    return report;
}

VariationOracleReport
Oracle::checkVariation(const BenchmarkProfile &profile,
                       double impedance_scale,
                       std::uint64_t instructions, double sigma,
                       std::uint64_t mc_seed) const
{
    VariationOracleReport report;

    SupplyNetworkConfig base = setup_.supplyBase;
    base.impedanceScale = impedance_scale;

    const auto configBitsEqual = [](const SupplyNetworkConfig &a,
                                    const SupplyNetworkConfig &b) {
        return std::memcmp(&a, &b, sizeof(SupplyNetworkConfig)) == 0;
    };

    // Zero sigma: the draw must not touch a single field, and the
    // network built from it must compute bit-identical voltages —
    // exactly the guarantee the MC-off campaign path relies on.
    const std::uint64_t seed0 = deriveDrawSeed(mc_seed, 0);
    const SupplyNetworkConfig zero_draw =
        drawSupplyConfig(base, SupplyVariationSpec{}, seed0);
    report.zeroSigmaConfigBitIdentical = configBitsEqual(zero_draw, base);

    const CurrentTrace trace =
        benchmarkCurrentTrace(setup_, profile, instructions);
    const SupplyNetwork nominal(base);
    const SupplyNetwork redrawn(zero_draw);
    const VoltageTrace v_nominal = nominal.computeVoltage(trace);
    const VoltageTrace v_redrawn = redrawn.computeVoltage(trace);
    report.zeroSigmaVoltageBitIdentical =
        v_nominal.size() == v_redrawn.size() &&
        std::memcmp(v_nominal.data(), v_redrawn.data(),
                    v_nominal.size() * sizeof(Volt)) == 0;

    // Determinism: the same (seed, draw index) must always yield the
    // same config bits; a different draw index must not.
    const SupplyVariationSpec varied{sigma, sigma, sigma};
    const SupplyNetworkConfig draw_a =
        drawSupplyConfig(base, varied, deriveDrawSeed(mc_seed, 1));
    const SupplyNetworkConfig draw_b =
        drawSupplyConfig(base, varied, deriveDrawSeed(mc_seed, 1));
    const SupplyNetworkConfig draw_c =
        drawSupplyConfig(base, varied, deriveDrawSeed(mc_seed, 2));
    report.drawDeterministic = configBitsEqual(draw_a, draw_b) &&
                               !configBitsEqual(draw_a, draw_c);

    // And a nonzero sigma must actually move the network.
    report.nonzeroSigmaPerturbs = !configBitsEqual(draw_a, base);

    report.pass = report.zeroSigmaConfigBitIdentical &&
                  report.zeroSigmaVoltageBitIdentical &&
                  report.drawDeterministic &&
                  report.nonzeroSigmaPerturbs;
    return report;
}

} // namespace verify
} // namespace didt
