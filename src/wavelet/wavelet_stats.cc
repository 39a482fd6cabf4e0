#include "wavelet/wavelet_stats.hh"

#include <algorithm>
#include <cmath>

#include "stats/running_stats.hh"
#include "util/logging.hh"

namespace didt
{

namespace
{

/** Per-scale statistics over one detail row. */
void
pushDetailStats(std::span<const double> level, double n, ScaleStats &out)
{
    double energy = 0.0;
    for (double c : level)
        energy += c * c;
    // Parseval: subband signal variance (about zero mean, since
    // detail subbands integrate to zero for orthonormal bases).
    out.subbandVariance.push_back(energy / n);
    out.adjacentCorrelation.push_back(lag1Autocorrelation(level));
}

/** Approximation subband variance: spread of the reconstructed
 *  coarse signal about its mean. For an orthonormal basis this is
 *  (sum a^2 - (sum a)^2 / m) / n with m approximation coefficients. */
double
approximationVarianceOf(std::span<const double> approx, double n)
{
    double sum = 0.0;
    double sum_sq = 0.0;
    for (double c : approx) {
        sum += c;
        sum_sq += c * c;
    }
    const double m = static_cast<double>(approx.size());
    return m > 0.0 ? (sum_sq - sum * sum / m) / n : 0.0;
}

} // namespace

void
computeScaleStats(const FlatDecomposition &dec, ScaleStats &out)
{
    const double n = static_cast<double>(dec.signalLength());
    if (n == 0.0)
        didt_panic("computeScaleStats on empty decomposition");

    out.subbandVariance.clear();
    out.adjacentCorrelation.clear();
    out.subbandVariance.reserve(dec.levels());
    out.adjacentCorrelation.reserve(dec.levels());
    for (std::size_t j = 0; j < dec.levels(); ++j)
        pushDetailStats(dec.detail(j), n, out);
    out.approximationVariance =
        approximationVarianceOf(dec.approximation(), n);
}

ScaleStats
computeScaleStats(const FlatDecomposition &dec)
{
    ScaleStats stats;
    computeScaleStats(dec, stats);
    return stats;
}

std::vector<CoefficientRef>
rankCoefficients(const FlatDecomposition &dec)
{
    // Details finest first, then the approximation: the stable sort
    // below breaks magnitude ties in this order.
    std::vector<CoefficientRef> refs;
    refs.reserve(dec.totalCoefficients());
    for (std::size_t j = 0; j < dec.levels(); ++j) {
        const std::span<const double> row = dec.detail(j);
        for (std::size_t k = 0; k < row.size(); ++k)
            refs.push_back(CoefficientRef{j, k, row[k]});
    }
    const std::span<const double> approx = dec.approximation();
    for (std::size_t k = 0; k < approx.size(); ++k)
        refs.push_back(CoefficientRef{CoefficientRef::kApproximation, k,
                                      approx[k]});
    std::stable_sort(refs.begin(), refs.end(),
                     [](const CoefficientRef &a, const CoefficientRef &b) {
                         return std::fabs(a.value) > std::fabs(b.value);
                     });
    return refs;
}

double
energyCaptured(const FlatDecomposition &dec, std::size_t k)
{
    const double total = dec.energy();
    if (total <= 0.0)
        return 1.0;
    const auto ranked = rankCoefficients(dec);
    double captured = 0.0;
    const std::size_t limit = std::min(k, ranked.size());
    for (std::size_t i = 0; i < limit; ++i)
        captured += ranked[i].value * ranked[i].value;
    return captured / total;
}

} // namespace didt
