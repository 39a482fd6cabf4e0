#include "wavelet/subband.hh"

#include <algorithm>

#include "util/logging.hh"

namespace didt
{

namespace
{

/**
 * Run the inverse transform on a copy of @p dec in which every detail
 * row for which @p keep_detail returns false (and the approximation
 * row unless @p keep_approx) is zeroed.
 */
template <typename KeepDetail>
std::vector<double>
projectMasked(const Dwt &dwt, const FlatDecomposition &dec,
              const KeepDetail &keep_detail, bool keep_approx)
{
    FlatDecomposition masked = dec;
    for (std::size_t j = 0; j < masked.levels(); ++j) {
        if (!keep_detail(j)) {
            const std::span<double> row = masked.detail(j);
            std::fill(row.begin(), row.end(), 0.0);
        }
    }
    if (!keep_approx) {
        const std::span<double> row = masked.approximation();
        std::fill(row.begin(), row.end(), 0.0);
    }
    return dwt.inverse(masked);
}

} // namespace

std::vector<double>
detailSubband(const Dwt &dwt, const FlatDecomposition &dec,
              std::size_t level)
{
    if (level >= dec.levels())
        didt_panic("detailSubband: level ", level, " out of range (",
                   dec.levels(), " levels)");
    return projectMasked(
        dwt, dec, [level](std::size_t j) { return j == level; }, false);
}

std::vector<double>
approximationSubband(const Dwt &dwt, const FlatDecomposition &dec)
{
    return projectMasked(
        dwt, dec, [](std::size_t) { return false; }, true);
}

std::vector<std::vector<double>>
allSubbands(const Dwt &dwt, const FlatDecomposition &dec)
{
    std::vector<std::vector<double>> bands;
    bands.reserve(dec.levels() + 1);
    for (std::size_t j = 0; j < dec.levels(); ++j)
        bands.push_back(detailSubband(dwt, dec, j));
    bands.push_back(approximationSubband(dwt, dec));
    return bands;
}

std::vector<double>
filteredReconstruction(const Dwt &dwt, const FlatDecomposition &dec,
                       const std::vector<std::size_t> &keep_levels,
                       bool keep_approximation)
{
    for (std::size_t level : keep_levels)
        if (level >= dec.levels())
            didt_panic("filteredReconstruction: level ", level,
                       " out of range");
    return projectMasked(
        dwt, dec,
        [&keep_levels](std::size_t j) {
            return std::find(keep_levels.begin(), keep_levels.end(), j) !=
                   keep_levels.end();
        },
        keep_approximation);
}

SubbandFrequency
detailBandFrequency(std::size_t level, double clock_hz)
{
    if (clock_hz <= 0.0)
        didt_panic("detailBandFrequency: clock must be positive");
    const double denom_high = static_cast<double>(std::size_t(1) << (level + 1));
    const double denom_low = denom_high * 2.0;
    return SubbandFrequency{clock_hz / denom_low, clock_hz / denom_high};
}

} // namespace didt
