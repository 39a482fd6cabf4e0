/**
 * @file
 * Example: analyze an external current trace.
 *
 * The characterization pipeline only needs a per-cycle current
 * waveform, so traces from any source — this library's simulator, a
 * Wattch run, or silicon measurement — can be analyzed. This tool
 * reads a trace file (text: one amperage per line, '#' comments;
 * or the binary format via --binary), runs the wavelet
 * characterization against a supply network, and prints the verdict.
 *
 * With --demo it first writes a demonstration trace (synthetic mgrid)
 * so the example is runnable out of the box:
 *
 *   ./analyze_trace --demo
 *   ./analyze_trace --trace my_wattch_trace.txt --resonant-mhz 100
 */

#include <cstdio>
#include <stdexcept>

#include "didt/didt.hh"

int
main(int argc, char **argv)
{
    using namespace didt;

    Options opts;
    opts.declare("trace", "demo_trace.txt", "trace file to analyze");
    opts.declare("binary", "false", "trace file is in binary format");
    opts.declare("demo", "false",
                 "first generate a demo trace at the given path");
    opts.declare("clock-ghz", "3.0", "clock of the traced machine");
    opts.declare("resonant-mhz", "125", "supply resonant frequency");
    opts.declare("q", "5.0", "supply quality factor");
    opts.declare("impedance", "1.5", "target-impedance scale");
    opts.declare("threshold", "0.97", "low voltage of interest");
    opts.parse(argc, argv);

    const std::string path = opts.get("trace");
    if (opts.getBool("demo")) {
        const ExperimentSetup setup = makeStandardSetup();
        const CurrentTrace demo =
            benchmarkCurrentTrace(setup, profileByName("mgrid"), 100000);
        writeTraceText(path, demo,
                       "demo trace: synthetic mgrid on the Table-1 "
                       "machine");
        std::printf("wrote %zu-cycle demo trace to %s\n\n", demo.size(),
                    path.c_str());
    }

    const CurrentTrace trace = opts.getBool("binary")
                                   ? readTraceBinary(path)
                                   : readTraceText(path);
    if (trace.size() < 4096)
        didt_fatal("trace too short for analysis: ", trace.size(),
                   " cycles");
    RunningStats stats;
    for (Amp amp : trace)
        stats.push(amp);
    std::printf("trace: %zu cycles, mean %.1f A, sigma %.1f A\n",
                trace.size(), stats.mean(), stats.stddev());

    // Build a supply sized to this trace: calibrate target impedance
    // so that the trace's own worst stretch at 100% just fits the
    // +/-5% band (an external trace arrives without a machine model,
    // so its own dynamics define the worst case).
    SupplyNetworkConfig supply;
    supply.clockHz = opts.getDouble("clock-ghz") * 1e9;
    supply.resonantHz = opts.getDouble("resonant-mhz") * 1e6;
    supply.qualityFactor = opts.getDouble("q");
    supply = calibrateTargetImpedance(supply, trace);
    supply.impedanceScale = opts.getDouble("impedance");
    const SupplyNetwork network(supply);
    std::printf("supply: f0 %.0f MHz, Q %.1f, R(100%%) %.3e ohm, "
                "analyzing at %.0f%% impedance\n\n",
                network.resonantFrequency() / 1e6, supply.qualityFactor,
                supply.dcResistance, 100.0 * supply.impedanceScale);

    // Calibrate the estimator on the trace's own leading quarter and
    // evaluate on the rest (honest split for external traces).
    const std::size_t split = trace.size() / 4;
    std::vector<CurrentTrace> training{
        CurrentTrace(trace.begin(), trace.begin() + split)};
    VoltageVarianceModel model(network);
    try {
        model.calibrateOnTraces(training);
    } catch (const std::invalid_argument &e) {
        didt_fatal("trace too short to calibrate on its leading quarter: ",
                   e.what());
    }

    const CurrentTrace rest(trace.begin() + split, trace.end());
    const Volt threshold = opts.getDouble("threshold");
    const EmergencyProfile profile =
        profileTrace(rest, network, model, threshold, 1.03);
    std::printf("wavelet estimate: %.2f%% of cycles below %.2f V "
                "(measured %.2f%%)\n",
                100.0 * profile.estimatedBelow, threshold,
                100.0 * profile.measuredBelow);
    std::printf("verdict: %s\n", profile.estimatedBelow > 0.03
                                     ? "PROBLEMATIC for dI/dt"
                                     : "benign at this impedance");
    return 0;
}
