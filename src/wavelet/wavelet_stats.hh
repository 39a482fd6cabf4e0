/**
 * @file
 * Statistical summaries over wavelet coefficients (paper Section 4.1).
 *
 * Per-scale variance via Parseval's relation and adjacent-coefficient
 * correlation (the pulse-pattern detector), plus coefficient ranking
 * used by the online monitor's top-K term selection.
 */

#ifndef DIDT_WAVELET_WAVELET_STATS_HH
#define DIDT_WAVELET_WAVELET_STATS_HH

#include <cstddef>
#include <vector>

#include "wavelet/flat_decomposition.hh"

namespace didt
{

/** Per-scale statistics of a decomposition. */
struct ScaleStats
{
    /**
     * Subband variance per detail level (finest first). By Parseval,
     * the variance of the level-j subband signal equals the sum of
     * squared detail coefficients on that level divided by the signal
     * length.
     */
    std::vector<double> subbandVariance;

    /**
     * Lag-1 correlation between adjacent detail coefficients per level.
     * Strong positive/negative correlation indicates pulse trains that
     * can build resonance in the supply network.
     */
    std::vector<double> adjacentCorrelation;

    /** Variance of the approximation subband. */
    double approximationVariance = 0.0;
};

/**
 * Compute per-scale statistics for @p dec into @p out, reusing its
 * vectors' capacity so repeated calls on same-shaped decompositions
 * never allocate.
 */
void computeScaleStats(const FlatDecomposition &dec, ScaleStats &out);

/** Value form of computeScaleStats (cold paths, reporting). */
ScaleStats computeScaleStats(const FlatDecomposition &dec);

/** Identifies one coefficient in the matrix. */
struct CoefficientRef
{
    /** Detail level (finest = 0), or kApproximation. */
    std::size_t level;

    /** Position within the level. */
    std::size_t index;

    /** Coefficient value. */
    double value;

    /** Sentinel level value marking approximation coefficients. */
    static constexpr std::size_t kApproximation = static_cast<std::size_t>(-1);
};

/**
 * All coefficients of @p dec ordered by decreasing magnitude
 * (paper Section 5.1: "we order the coefficients by decreasing
 * magnitude").
 */
std::vector<CoefficientRef> rankCoefficients(const FlatDecomposition &dec);

/**
 * Fraction of total energy captured by the @p k largest-magnitude
 * coefficients; measures the sparsity the paper exploits.
 */
double energyCaptured(const FlatDecomposition &dec, std::size_t k);

} // namespace didt

#endif // DIDT_WAVELET_WAVELET_STATS_HH
