/**
 * @file
 * Second-order linear model of the processor power-supply network
 * (paper Section 3.1, Figure 5).
 *
 * The die is a current source looking into the parallel combination of
 * the on-die/package decoupling capacitance C and the series R-L branch
 * to the voltage regulator:
 *
 *     Z(s) = (R + sL) / (1 + sRC + s^2 LC)
 *
 * This impedance is R at DC (the IR drop), peaks near the resonant
 * frequency f0 = 1/(2 pi sqrt(LC)) — placed in the problematic
 * 50-200 MHz mid-frequency band — and rolls off at high frequency.
 * Supply voltage is V(t) = Vdd - (z * i)(t) where z is the impulse
 * response and i the per-cycle current draw (paper Equation 6).
 */

#ifndef DIDT_POWER_SUPPLY_NETWORK_HH
#define DIDT_POWER_SUPPLY_NETWORK_HH

#include <cstddef>
#include <vector>

#include "util/types.hh"

namespace didt
{

/** User-facing parameters of the supply network model. */
struct SupplyNetworkConfig
{
    /** Processor clock frequency (paper: 3.0 GHz). */
    Hertz clockHz = 3.0e9;

    /** Resonant frequency of the supply network (50-200 MHz band). */
    Hertz resonantHz = 125.0e6;

    /** Quality factor of the resonance (peak/DC impedance ~ Q^2). */
    double qualityFactor = 5.0;

    /** Nominal supply voltage (paper: 1.0 V). */
    Volt nominalVoltage = 1.0;

    /**
     * Target-impedance scale. 1.0 (100%) is a supply calibrated so the
     * worst-case stimulus just stays inside the +/-5% band; 1.5 (150%)
     * has 1.5x that impedance and needs architectural control.
     */
    double impedanceScale = 1.0;

    /**
     * DC resistance of the *unscaled* (100%) network in ohms. Set by
     * calibration; the default suits the bundled processor model whose
     * current swings span roughly 10-90 A.
     */
    double dcResistance = 5.0e-4;

    /** Length of the truncated impulse response in cycles. */
    std::size_t responseLength = 2048;
};

/**
 * The second-order supply network: derives R, L, C from the config,
 * exposes the cycle-sampled impulse response, the frequency response,
 * and full-trace voltage computation.
 */
class SupplyNetwork
{
  public:
    /**
     * Biquad recursion coefficients of the impulse-invariant
     * discretization; droop[n] = b0 i[n] + b1 i[n-1]
     * + a1 droop[n-1] + a2 droop[n-2].
     */
    struct Recursion
    {
        double b0, b1, a1, a2;
    };

    /** Build the network and precompute its impulse response. */
    explicit SupplyNetwork(const SupplyNetworkConfig &config);

    /** The discrete-time recursion implementing this network. */
    const Recursion &recursion() const { return recursion_; }

    /** The configuration this network was built from. */
    const SupplyNetworkConfig &config() const { return config_; }

    /** Effective DC resistance (scaled) in ohms. */
    double resistance() const { return r_; }

    /** Effective loop inductance in henries. */
    double inductance() const { return l_; }

    /** Effective decoupling capacitance in farads. */
    double capacitance() const { return c_; }

    /** Resonant frequency in hertz. */
    Hertz resonantFrequency() const;

    /**
     * Cycle-sampled impulse response z[n] in volts per (ampere-cycle):
     * the voltage droop sequence caused by a one-ampere, one-cycle
     * current pulse.
     */
    const std::vector<double> &impulseResponse() const { return response_; }

    /** Impedance magnitude |Z(j 2 pi f)| in ohms at frequency @p f. */
    double impedanceAt(Hertz f) const;

    /**
     * Compute the supply voltage trace for a current trace:
     * V[n] = Vdd - sum_m z[m] i[n-m] (paper Equation 6). The
     * convolution warm-up uses i[0] for cycles before the trace start
     * so the initial voltage reflects steady-state at the initial load.
     */
    VoltageTrace computeVoltage(const CurrentTrace &current) const;

    /**
     * computeVoltage into caller-owned storage: @p voltage is resized
     * to current.size(), reusing its capacity so repeated evaluations
     * never reallocate. Identical numerics to computeVoltage.
     */
    void computeVoltageInto(const CurrentTrace &current,
                            VoltageTrace &voltage) const;

    /**
     * The voltage trace of computeVoltage, streamed instead of stored:
     * calls @p visit(Volt) once per cycle, in trace order, with exactly
     * the value computeVoltage would store there. This is the one copy
     * of the biquad recursion behind both.
     */
    template <class Visit>
    void forEachVoltage(const CurrentTrace &current, Visit &&visit) const
    {
        if (current.empty())
            return;
        const Recursion bq = recursion_;
        const Volt nominal = config_.nominalVoltage;

        // Warm start at steady state for the initial current so the
        // trace does not begin with an artificial step transient.
        const double i0 = current[0];
        double d1 = r_ * i0;
        double d2 = d1;
        double x1 = i0;
        for (const double x0 : current) {
            const double d0 =
                bq.b0 * x0 + bq.b1 * x1 + bq.a1 * d1 + bq.a2 * d2;
            visit(nominal - d0);
            d2 = d1;
            d1 = d0;
            x1 = x0;
        }
    }

    /** Steady-state voltage at a constant current draw (IR drop). */
    Volt steadyStateVoltage(Amp current) const;

    /** Allowed voltage band: nominal +/- 5% (paper Section 3). */
    Volt lowFaultLevel() const { return config_.nominalVoltage * 0.95; }

    /** Upper fault level: nominal + 5%. */
    Volt highFaultLevel() const { return config_.nominalVoltage * 1.05; }

  private:
    SupplyNetworkConfig config_;
    double r_;
    double l_;
    double c_;
    Recursion recursion_;
    std::vector<double> response_;

    void buildImpulseResponse();
};

/**
 * Cycle-by-cycle streaming evaluation of a supply network: push one
 * current sample per cycle and read the resulting supply voltage.
 * Used by the closed-loop controller co-simulation.
 */
class SupplyStream
{
  public:
    /** Bind to a network; starts in steady state at zero current. */
    explicit SupplyStream(const SupplyNetwork &network);

    /**
     * Advance one cycle with current draw @p current and return the
     * resulting supply voltage. The first push warm-starts the network
     * at steady state for that current.
     */
    Volt push(Amp current);

    /** Voltage after the most recent push (nominal before any push). */
    Volt voltage() const { return voltage_; }

  private:
    SupplyNetwork::Recursion recursion_;
    Volt nominal_;
    double steadyGain_; // DC resistance, for warm start
    double d1_ = 0.0;
    double d2_ = 0.0;
    double x1_ = 0.0;
    bool primed_ = false;
    Volt voltage_;
};

/**
 * Find the 100%-target-impedance DC resistance: the largest unscaled
 * dcResistance for which @p worst_case current just keeps the voltage
 * inside the +/-5% band (paper Section 3.1: target impedance is the
 * maximum impedance that still meets the band under a worst-case
 * execution sequence). Performed by bisection on the scale.
 *
 * @param base config whose dcResistance is to be calibrated
 * @param worst_case the worst-case current stimulus
 * @return a copy of @p base with dcResistance set
 */
SupplyNetworkConfig calibrateTargetImpedance(const SupplyNetworkConfig &base,
                                             const CurrentTrace &worst_case);

} // namespace didt

#endif // DIDT_POWER_SUPPLY_NETWORK_HH
