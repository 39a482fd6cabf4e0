/**
 * @file
 * Scalogram rendering (paper Figure 4).
 *
 * A scalogram visualizes detail-coefficient magnitudes as a grid:
 * rows are scales, columns are time positions, intensity is |d[j,k]|.
 */

#ifndef DIDT_WAVELET_SCALOGRAM_HH
#define DIDT_WAVELET_SCALOGRAM_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "wavelet/flat_decomposition.hh"

namespace didt
{

/** Magnitude grid of a wavelet decomposition's detail coefficients. */
class Scalogram
{
  public:
    /** Build from a decomposition; approximation row is excluded,
     *  matching the paper's Figure 4. */
    explicit Scalogram(const FlatDecomposition &dec);

    /** Number of scale rows (finest first). */
    std::size_t scales() const { return magnitudes_.size(); }

    /** Coefficient magnitudes at scale row @p j. */
    const std::vector<double> &row(std::size_t j) const;

    /** Largest magnitude anywhere in the grid. */
    double maxMagnitude() const { return maxMagnitude_; }

    /**
     * Render as ASCII art: one text row per scale, each coefficient as a
     * shade character (' ' light to '#' dark) repeated to span the time
     * axis, so all rows align with the original signal length.
     *
     * @param os destination stream
     * @param time_width total character width of the time axis
     */
    void renderAscii(std::ostream &os, std::size_t time_width = 128) const;

    /** Write CSV rows: scale, k, magnitude. */
    void writeCsv(std::ostream &os) const;

  private:
    std::vector<std::vector<double>> magnitudes_;
    double maxMagnitude_;
};

} // namespace didt

#endif // DIDT_WAVELET_SCALOGRAM_HH
