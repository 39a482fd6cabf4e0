#include "power/supply_network.hh"

#include <algorithm>
#include <cmath>
#include <complex>

#include "util/logging.hh"

namespace didt
{

namespace
{

using Biquad = SupplyNetwork::Recursion;

/**
 * Derive the biquad implementing the impulse-invariant discretization
 * of Z(s) = (1/C)(s + a) / (s^2 + a s + wn^2).
 */
Biquad
deriveBiquad(double r, double l, double c, double clock_hz)
{
    const double t = 1.0 / clock_hz;
    const double a = r / l;
    const double wn = 1.0 / std::sqrt(l * c);
    const double alpha = a / 2.0;
    const double wd_sq = wn * wn - alpha * alpha;
    if (wd_sq <= 0.0)
        didt_fatal("supply network is not underdamped (Q <= 0.5); "
                   "increase qualityFactor");
    const double wd = std::sqrt(wd_sq);

    // Sampled impulse response z[n] = Re[G p^n] with
    // G = (T/C)(1 - j alpha/wd), p = exp((-alpha + j wd) T).
    const std::complex<double> g =
        (t / c) * std::complex<double>(1.0, -alpha / wd);
    const std::complex<double> p =
        std::exp(std::complex<double>(-alpha * t, wd * t));

    Biquad bq;
    bq.b0 = g.real();
    bq.b1 = -(g * std::conj(p)).real();
    bq.a1 = 2.0 * p.real();
    bq.a2 = -std::norm(p);

    // Normalize the DC gain to exactly R so the IR drop is exact:
    // H(1) = (b0 + b1) / (1 - a1 - a2) must equal r.
    const double dc = (bq.b0 + bq.b1) / (1.0 - bq.a1 - bq.a2);
    if (dc <= 0.0)
        didt_panic("biquad DC gain non-positive: ", dc);
    const double scale = r / dc;
    bq.b0 *= scale;
    bq.b1 *= scale;
    return bq;
}

} // namespace

SupplyNetwork::SupplyNetwork(const SupplyNetworkConfig &config)
    : config_(config)
{
    if (config_.clockHz <= 0.0 || config_.resonantHz <= 0.0)
        didt_fatal("supply network frequencies must be positive");
    if (config_.resonantHz * 2.0 >= config_.clockHz)
        didt_fatal("resonant frequency ", config_.resonantHz,
                   " is not below Nyquist of clock ", config_.clockHz);
    if (config_.qualityFactor <= 0.5)
        didt_fatal("qualityFactor must exceed 0.5 (underdamped), got ",
                   config_.qualityFactor);
    if (config_.impedanceScale <= 0.0)
        didt_fatal("impedanceScale must be positive");
    if (config_.responseLength < 4)
        didt_fatal("responseLength too short: ", config_.responseLength);

    // Scaling R at fixed f0 and Q scales L proportionally and C
    // inversely, so |Z(f)| scales uniformly by impedanceScale.
    r_ = config_.dcResistance * config_.impedanceScale;
    const double wn = 2.0 * M_PI * config_.resonantHz;
    l_ = config_.qualityFactor * r_ / wn;
    c_ = 1.0 / (wn * wn * l_);
    recursion_ = deriveBiquad(r_, l_, c_, config_.clockHz);

    buildImpulseResponse();
}

void
SupplyNetwork::buildImpulseResponse()
{
    const Biquad &bq = recursion_;
    response_.assign(config_.responseLength, 0.0);

    // Impulse response = recursion output for i = unit impulse.
    double d1 = 0.0;
    double d2 = 0.0;
    for (std::size_t n = 0; n < response_.size(); ++n) {
        const double x0 = (n == 0) ? 1.0 : 0.0;
        const double x1 = (n == 1) ? 1.0 : 0.0;
        const double d0 = bq.b0 * x0 + bq.b1 * x1 + bq.a1 * d1 + bq.a2 * d2;
        response_[n] = d0;
        d2 = d1;
        d1 = d0;
    }
}

Hertz
SupplyNetwork::resonantFrequency() const
{
    return 1.0 / (2.0 * M_PI * std::sqrt(l_ * c_));
}

double
SupplyNetwork::impedanceAt(Hertz f) const
{
    const std::complex<double> s(0.0, 2.0 * M_PI * f);
    const std::complex<double> num = r_ + s * l_;
    const std::complex<double> den = 1.0 + s * r_ * c_ + s * s * l_ * c_;
    return std::abs(num / den);
}

VoltageTrace
SupplyNetwork::computeVoltage(const CurrentTrace &current) const
{
    VoltageTrace voltage;
    computeVoltageInto(current, voltage);
    return voltage;
}

void
SupplyNetwork::computeVoltageInto(const CurrentTrace &current,
                                  VoltageTrace &voltage) const
{
    voltage.resize(current.size());
    Volt *out = voltage.data();
    forEachVoltage(current, [&out](Volt v) { *out++ = v; });
}

Volt
SupplyNetwork::steadyStateVoltage(Amp current) const
{
    return config_.nominalVoltage - r_ * current;
}

SupplyStream::SupplyStream(const SupplyNetwork &network)
    : recursion_(network.recursion()),
      nominal_(network.config().nominalVoltage),
      steadyGain_(network.resistance()),
      voltage_(network.config().nominalVoltage)
{
}

Volt
SupplyStream::push(Amp current)
{
    if (!primed_) {
        const double droop = steadyGain_ * current;
        d1_ = droop;
        d2_ = droop;
        x1_ = current;
        primed_ = true;
    }
    const double d0 = recursion_.b0 * current + recursion_.b1 * x1_ +
                      recursion_.a1 * d1_ + recursion_.a2 * d2_;
    d2_ = d1_;
    d1_ = d0;
    x1_ = current;
    voltage_ = nominal_ - d0;
    return voltage_;
}

SupplyNetworkConfig
calibrateTargetImpedance(const SupplyNetworkConfig &base,
                         const CurrentTrace &worst_case)
{
    if (worst_case.empty())
        didt_fatal("calibrateTargetImpedance needs a non-empty stimulus");

    // Droop is linear in dcResistance (at fixed f0 and Q every element
    // of Z scales uniformly), so one probe run determines the answer.
    SupplyNetworkConfig probe = base;
    probe.impedanceScale = 1.0;
    probe.dcResistance = 1.0;
    SupplyNetwork network(probe);
    const VoltageTrace v = network.computeVoltage(worst_case);

    double max_droop = 0.0;
    double min_droop = 0.0;
    for (std::size_t n = 0; n < v.size(); ++n) {
        const double droop = probe.nominalVoltage - v[n];
        max_droop = std::max(max_droop, droop);
        min_droop = std::min(min_droop, droop);
    }
    const double excursion = std::max(max_droop, -min_droop);
    if (excursion <= 0.0)
        didt_fatal("worst-case stimulus produced no voltage excursion");

    SupplyNetworkConfig out = base;
    out.dcResistance = 0.05 * base.nominalVoltage / excursion;
    return out;
}

} // namespace didt
