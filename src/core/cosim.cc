#include "core/cosim.hh"

#include <algorithm>
#include <memory>

#include "core/monitor.hh"
#include "core/online_characterizer.hh"
#include "obs/metrics.hh"
#include "obs/scoped_timer.hh"
#include "sim/processor.hh"
#include "util/logging.hh"
#include "workload/generator.hh"

namespace didt
{

namespace
{

/**
 * The per-cycle loop, run in chunks with the maxCycles budget hoisted
 * out of the inner loop; the cycle that exhausts the instruction
 * stream still completes in full.
 */
void
runLoop(Processor &processor, SupplyStream &supply, VoltageMonitor *monitor,
        OnlineCharacterizer *hazard, ThresholdController *threshold,
        PipelineDampingController *damping, const CosimConfig &cfg,
        const SupplyNetwork &network, const Volt low_fault,
        const Volt high_fault, const Volt low_safe, const Volt high_safe,
        CosimResult &result, double &current_sum)
{
    constexpr std::uint64_t kChunk = 256;
    ControlActions actions;
    bool running = true;
    while (running) {
        std::uint64_t chunk = kChunk;
        if (cfg.maxCycles != 0) {
            if (result.cycles >= cfg.maxCycles)
                break;
            chunk = std::min<std::uint64_t>(chunk,
                                            cfg.maxCycles - result.cycles);
        }
        for (std::uint64_t c = 0; c < chunk && running; ++c) {
            // Actuation decided from cycle n-1 observations applies
            // now.
            processor.setStallIssue(actions.stallIssue);
            processor.setInjectNoops(actions.injectNoops);

            running = processor.step();
            const Amp current = processor.lastCurrent();
            const Volt true_voltage = supply.push(current);

            ++result.cycles;
            current_sum += current;
            result.minVoltage = std::min(result.minVoltage, true_voltage);
            result.maxVoltage = std::max(result.maxVoltage, true_voltage);
            if (true_voltage < low_fault)
                ++result.lowFaults;
            if (true_voltage > high_fault)
                ++result.highFaults;

            // False positive: actuation asserted while the true
            // voltage is comfortably inside the control band.
            if ((actions.stallIssue && true_voltage > low_safe) ||
                (actions.injectNoops && true_voltage < high_safe))
                ++result.falsePositives;

            if (monitor) {
                Volt estimated = monitor->update(current, true_voltage);
                if (hazard) {
                    hazard->push(current);
                    // Hazardous phase: behave as if the control band
                    // were wider by biasing the estimate
                    // pessimistically.
                    if (hazard->currentHazard() > cfg.hazardArmLevel) {
                        if (estimated < network.config().nominalVoltage)
                            estimated -= cfg.adaptiveExtraTolerance;
                        else
                            estimated += cfg.adaptiveExtraTolerance;
                    }
                }
                actions = threshold->decide(estimated);
            } else if (damping) {
                actions = damping->decide(current);
            } else {
                actions = ControlActions{};
            }
        }
    }
}

} // namespace

const char *
controlSchemeName(ControlScheme scheme)
{
    switch (scheme) {
      case ControlScheme::None: return "none";
      case ControlScheme::Wavelet: return "wavelet";
      case ControlScheme::FullConvolution: return "full-convolution";
      case ControlScheme::AnalogSensor: return "analog-sensor";
      case ControlScheme::PipelineDamping: return "pipeline-damping";
      case ControlScheme::AdaptiveWavelet: return "adaptive-wavelet";
    }
    didt_panic("unknown control scheme");
}

CosimResult
runClosedLoop(const BenchmarkProfile &profile, const ProcessorConfig &proc,
              const PowerModelConfig &power, const SupplyNetwork &network,
              const CosimConfig &cfg)
{
    obs::ScopedTimer span(std::string("cosim ") +
                              controlSchemeName(cfg.scheme),
                          obs::Histogram{}, nullptr, "core");
    SyntheticWorkload workload(profile, cfg.instructions, cfg.seed);
    Processor processor(proc, power, workload);
    SyntheticWorkload warm_source(profile, 0, cfg.seed + 0xDEADBEEF);
    processor.warmupFootprint(workload.dataFootprint(),
                              workload.codeFootprint());
    processor.warmup(warm_source, 150000);
    SupplyStream supply(network);

    std::unique_ptr<VoltageMonitor> monitor;
    std::unique_ptr<OnlineCharacterizer> hazard;
    switch (cfg.scheme) {
      case ControlScheme::AdaptiveWavelet:
        if (cfg.hazardModel == nullptr)
            didt_fatal("AdaptiveWavelet requires cfg.hazardModel");
        hazard = std::make_unique<OnlineCharacterizer>(
            *cfg.hazardModel, network.lowFaultLevel() + 0.02,
            network.highFaultLevel() - 0.02);
        [[fallthrough]];
      case ControlScheme::Wavelet:
        monitor = std::make_unique<WaveletMonitor>(network,
                                                   cfg.waveletTerms);
        break;
      case ControlScheme::FullConvolution:
        monitor = std::make_unique<FullConvolutionMonitor>(network);
        break;
      case ControlScheme::AnalogSensor:
        monitor = std::make_unique<AnalogSensorMonitor>(network,
                                                        cfg.sensorDelay);
        break;
      case ControlScheme::None:
      case ControlScheme::PipelineDamping:
        break;
    }

    std::unique_ptr<ThresholdController> threshold;
    std::unique_ptr<PipelineDampingController> damping;
    if (monitor) {
        threshold = std::make_unique<ThresholdController>(cfg.control);
    } else if (cfg.scheme == ControlScheme::PipelineDamping) {
        damping = std::make_unique<PipelineDampingController>(
            cfg.dampingWindow, cfg.dampingDelta);
    }

    CosimResult result;
    result.scheme = controlSchemeName(cfg.scheme);
    result.minVoltage = network.config().nominalVoltage;
    result.maxVoltage = network.config().nominalVoltage;

    const Volt low_fault = network.lowFaultLevel();
    const Volt high_fault = network.highFaultLevel();
    const Volt low_safe = cfg.control.lowControl();
    const Volt high_safe = cfg.control.highControl();

    double current_sum = 0.0;
    runLoop(processor, supply, monitor.get(), hazard.get(), threshold.get(),
            damping.get(), cfg, network, low_fault, high_fault, low_safe,
            high_safe, result, current_sum);

    result.committed = processor.stats().committed;
    result.energyJ = processor.stats().totalEnergyJ;
    result.meanCurrent =
        result.cycles ? current_sum / static_cast<double>(result.cycles)
                      : 0.0;
    if (threshold) {
        result.controlCycles = threshold->controlCycles();
        result.stallCycles = threshold->stallCycles();
        result.noopCycles = threshold->noopCycles();
    } else if (damping) {
        result.controlCycles = damping->controlCycles();
        result.stallCycles = damping->controlCycles();
    }

    if (obs::metricsEnabled()) {
        auto &registry = obs::MetricsRegistry::global();
        static obs::Counter low_faults =
            registry.counter("controller.low_faults");
        static obs::Counter high_faults =
            registry.counter("controller.high_faults");
        static obs::Counter false_positives =
            registry.counter("controller.false_positives");
        low_faults.add(result.lowFaults);
        high_faults.add(result.highFaults);
        false_positives.add(result.falsePositives);
    }
    return result;
}

double
slowdown(const CosimResult &controlled, const CosimResult &baseline)
{
    if (baseline.cycles == 0)
        didt_panic("baseline run executed no cycles");
    return static_cast<double>(controlled.cycles) /
               static_cast<double>(baseline.cycles) -
           1.0;
}

} // namespace didt
