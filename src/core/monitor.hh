/**
 * @file
 * On-line voltage monitors (paper Section 5).
 *
 * The wavelet monitor implements the paper's contribution: the supply
 * droop is a convolution of current history with the network's impulse
 * response; expanding the history window in the Haar basis turns that
 * convolution into a weighted sum over wavelet coefficients, of which
 * only the few largest-weight terms matter (wavelet subband
 * convolution, Vaidyanathan). Coefficients are computed each cycle
 * with shift-register-style running sums (paper Figure 14), so the
 * hardware cost is a handful of adders instead of hundreds of
 * convolution taps.
 *
 * Baselines: the full-convolution monitor (Grochowski et al., HPCA-8)
 * and an idealized analog voltage sensor with a sensing delay
 * (Joseph et al., HPCA-9).
 */

#ifndef DIDT_CORE_MONITOR_HH
#define DIDT_CORE_MONITOR_HH

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "power/convolution.hh"
#include "power/supply_network.hh"
#include "util/types.hh"

namespace didt
{

/** Common interface of the per-cycle voltage monitors. */
class VoltageMonitor
{
  public:
    virtual ~VoltageMonitor() = default;

    /**
     * Advance one cycle.
     *
     * @param current this cycle's processor current draw
     * @param true_voltage the actual supply voltage this cycle (only
     *        the analog sensor may look at it; estimation monitors
     *        ignore it)
     * @return the monitor's voltage estimate for this cycle
     */
    virtual Volt update(Amp current, Volt true_voltage) = 0;

    /**
     * Advance a block of cycles at once: out[n] = the estimate for
     * cycle n. All three spans must have equal length. The default
     * loops over update(); the concrete monitors override it with a
     * statically bound loop so open-loop trace evaluation pays one
     * virtual call per block instead of one per cycle. Results are
     * identical to calling update() cycle by cycle.
     */
    virtual void updateBlock(std::span<const Amp> current,
                             std::span<const Volt> true_voltage,
                             std::span<Volt> out);

    /** Scheme name for reports. */
    virtual const char *name() const = 0;

    /** Number of multiply/accumulate terms evaluated per cycle — the
     *  hardware-complexity proxy compared in the paper's Table 2. */
    virtual std::size_t termCount() const = 0;
};

/**
 * The paper's wavelet-convolution monitor.
 *
 * Construction projects the (time-reversed) impulse response onto the
 * Haar basis of the history window; the resulting weights are ranked
 * by magnitude and only the top K retained (paper Section 5.1). At
 * run time each retained Haar coefficient of the current history is
 * computed in O(1) from a prefix-sum shift register, multiplied by
 * its weight, and summed. A DC tail term (scaled window mean) covers
 * the response beyond the window.
 */
class WaveletMonitor final : public VoltageMonitor
{
  public:
    /**
     * @param network the supply network being tracked
     * @param terms number of wavelet convolution terms to retain
     * @param window history window length (power of two, paper: 256)
     * @param levels Haar decomposition depth (paper: 8)
     */
    WaveletMonitor(const SupplyNetwork &network, std::size_t terms,
                   std::size_t window = 256, std::size_t levels = 8);

    /**
     * Generic form: factorize an arbitrary impulse response (e.g. the
     * combined response of a MultiStageSupplyNetwork).
     *
     * @param impulse_response cycle-sampled droop response
     * @param nominal nominal supply voltage
     * @param terms number of wavelet convolution terms to retain
     * @param window history window length (power of two)
     * @param levels Haar decomposition depth
     */
    WaveletMonitor(std::span<const double> impulse_response, Volt nominal,
                   std::size_t terms, std::size_t window = 256,
                   std::size_t levels = 8);

    Volt update(Amp current, Volt true_voltage) override;
    void updateBlock(std::span<const Amp> current,
                     std::span<const Volt> true_voltage,
                     std::span<Volt> out) override;
    const char *name() const override { return "wavelet"; }
    std::size_t termCount() const override { return terms_.size(); }

    /**
     * Worst-case estimation error for any current bounded within
     * +/- @p half_swing of an arbitrary mean: the L1 norm of the
     * dropped part of the impulse response times the half swing
     * (paper Figure 13's "maximum error possible").
     */
    Volt maxError(Amp half_swing) const;

    /** One retained term of the factorized convolution. */
    struct Term
    {
        std::size_t level;  ///< 0-based detail level; levels() = approx
        std::size_t k;      ///< coefficient index within the level
        double weight;      ///< convolution weight (gamma)
    };

    /** The retained terms: approximation terms first (always kept),
     *  then detail terms in decreasing |weight| order. */
    const std::vector<Term> &terms() const { return terms_; }

  private:
    Volt nominal_;
    std::size_t window_;
    std::size_t levels_;
    std::vector<Term> terms_;
    double tailWeight_ = 0.0;     ///< sum of response beyond the window
    double droppedL1_ = 0.0;      ///< L1 norm of the dropped kernel part

    std::vector<double> cumRing_; ///< prefix sums, size window_ + 1
    std::uint64_t pushed_ = 0;
    bool primed_ = false;

    double windowSum(std::size_t u1, std::size_t u2) const;
};

/** Full time-domain convolution monitor (Grochowski et al.). */
class FullConvolutionMonitor final : public VoltageMonitor
{
  public:
    /**
     * @param network supply network being tracked
     * @param energy_fraction kernel-truncation energy retention
     */
    explicit FullConvolutionMonitor(const SupplyNetwork &network,
                                    double energy_fraction = 0.999999);

    /** Generic form over an arbitrary impulse response. */
    FullConvolutionMonitor(std::span<const double> impulse_response,
                           Volt nominal,
                           double energy_fraction = 0.999999);

    Volt update(Amp current, Volt true_voltage) override;
    void updateBlock(std::span<const Amp> current,
                     std::span<const Volt> true_voltage,
                     std::span<Volt> out) override;
    const char *name() const override { return "full-convolution"; }
    std::size_t termCount() const override { return convolver_.taps(); }

  private:
    Volt nominal_;
    StreamingConvolver convolver_;
};

/** Idealized analog voltage sensor with a fixed sensing delay. */
class AnalogSensorMonitor final : public VoltageMonitor
{
  public:
    /**
     * @param network supply network being tracked
     * @param delay_cycles sensing/processing delay
     */
    AnalogSensorMonitor(const SupplyNetwork &network,
                        std::size_t delay_cycles);

    Volt update(Amp current, Volt true_voltage) override;
    void updateBlock(std::span<const Amp> current,
                     std::span<const Volt> true_voltage,
                     std::span<Volt> out) override;
    const char *name() const override { return "analog-sensor"; }
    std::size_t termCount() const override { return 0; }

  private:
    std::vector<Volt> ring_;
    std::size_t head_ = 0;
    std::uint64_t pushed_ = 0;
};

} // namespace didt

#endif // DIDT_CORE_MONITOR_HH
