/**
 * @file
 * Wavelet subband projection (paper Section 2.2, Equations 4-5).
 *
 * A subband is the time-domain projection of one row of the wavelet
 * coefficient matrix. Summing all subbands (details plus approximation)
 * recreates the original signal; dropping subbands filters it.
 */

#ifndef DIDT_WAVELET_SUBBAND_HH
#define DIDT_WAVELET_SUBBAND_HH

#include <cstddef>
#include <vector>

#include "wavelet/dwt.hh"

namespace didt
{

/**
 * Project a single detail level of @p dec back into the time domain.
 *
 * @param dwt the transform engine (must use the same basis as @p dec)
 * @param dec a forward decomposition
 * @param level detail level to project (0 = finest)
 * @return a signal of the original length containing only that level's
 *         contribution
 */
std::vector<double> detailSubband(const Dwt &dwt,
                                  const FlatDecomposition &dec,
                                  std::size_t level);

/** Project the approximation row back into the time domain. */
std::vector<double> approximationSubband(const Dwt &dwt,
                                         const FlatDecomposition &dec);

/**
 * All subbands of a decomposition: details (finest first) followed by
 * the approximation subband. Their element-wise sum equals the original
 * signal (perfect reconstruction).
 */
std::vector<std::vector<double>> allSubbands(const Dwt &dwt,
                                             const FlatDecomposition &dec);

/**
 * Reconstruct keeping only the detail levels listed in @p keep_levels
 * (plus the approximation when @p keep_approximation). This implements
 * the paper's subband filtering: "if we choose to ignore some subbands
 * ... we are effectively filtering the original signal."
 */
std::vector<double> filteredReconstruction(
    const Dwt &dwt, const FlatDecomposition &dec,
    const std::vector<std::size_t> &keep_levels, bool keep_approximation);

/**
 * Nominal frequency band of a detail level in cycles^-1, mapped to hertz
 * with @p clock_hz. Level j (0 = finest) spans
 * [clock / 2^(j+2), clock / 2^(j+1)].
 */
struct SubbandFrequency
{
    double lowHz;  ///< lower band edge
    double highHz; ///< upper band edge
};

/** Frequency band covered by detail level @p level at @p clock_hz. */
SubbandFrequency detailBandFrequency(std::size_t level, double clock_hz);

} // namespace didt

#endif // DIDT_WAVELET_SUBBAND_HH
