/**
 * @file
 * Wavelet coefficient storage and reusable transform scratch.
 *
 * FlatDecomposition is the one representation of the wavelet
 * coefficient matrix (paper Section 2.1, Figure 2): the whole matrix
 * lives in one contiguous buffer with per-level offsets and hands out
 * std::span row views, so a decomposition can be recomputed in place
 * window after window without touching the allocator once the buffer
 * reaches steady-state capacity. DwtWorkspace bundles the ping/pong
 * scratch the pyramid needs between levels.
 *
 * Workspaces and decompositions are plain value types with no internal
 * synchronization: each is meant to be owned by exactly one thread
 * (see DESIGN.md section 10, "Memory layout and workspace ownership").
 */

#ifndef DIDT_WAVELET_FLAT_DECOMPOSITION_HH
#define DIDT_WAVELET_FLAT_DECOMPOSITION_HH

#include <cstddef>
#include <span>
#include <vector>

namespace didt
{

/**
 * A multi-level wavelet decomposition in one contiguous buffer.
 *
 * Layout: detail levels finest first (detail(0) is the paper's
 * d[0,k] row), then the approximation row:
 *
 *     [ d0 ... | d1 ... | ... | d(L-1) ... | approx ... ]
 *
 * offsets_[j] is the start of detail level j; offsets_[L] starts the
 * approximation row; offsets_[L+1] == coeffs().size(). The dyadic
 * layout (DWT) halves the row length per level; the uniform layout
 * (MODWT) keeps every row at the signal length.
 */
class FlatDecomposition
{
  public:
    /** Number of detail levels. */
    std::size_t levels() const
    {
        return offsets_.empty() ? 0 : offsets_.size() - 2;
    }

    /** Length of the original signal. */
    std::size_t signalLength() const { return signalLength_; }

    /** Total number of coefficients (details + approximation). */
    std::size_t totalCoefficients() const { return coeffs_.size(); }

    /** Detail row @p level (0 = finest). */
    std::span<double> detail(std::size_t level);
    std::span<const double> detail(std::size_t level) const;

    /** Approximation (coarsest scaling) row. */
    std::span<double> approximation();
    std::span<const double> approximation() const;

    /** The whole coefficient buffer, rows in layout order. */
    std::span<double> coefficients() { return coeffs_; }
    std::span<const double> coefficients() const { return coeffs_; }

    /**
     * Sum of squared coefficients; by Parseval's relation this equals
     * the squared L2 norm of the original signal (orthonormal bases).
     */
    double energy() const;

    /**
     * Lay out storage for a decimated (DWT) decomposition of a
     * @p signal_length signal at @p levels levels: row j has
     * signal_length / 2^(j+1) coefficients and the approximation row
     * matches the coarsest detail row. Reuses existing capacity;
     * contents are left uninitialized. Panics when @p signal_length is
     * not divisible by 2^levels or @p levels is zero.
     */
    void layoutDyadic(std::size_t signal_length, std::size_t levels);

    /**
     * Lay out storage for an undecimated (MODWT) decomposition: every
     * row, including the approximation (smooth) row, has
     * @p signal_length coefficients.
     */
    void layoutUniform(std::size_t signal_length, std::size_t levels);

  private:
    std::vector<double> coeffs_;
    std::vector<std::size_t> offsets_; ///< levels + 2 entries when laid out
    std::size_t signalLength_ = 0;

    std::span<double> row(std::size_t index);
    std::span<const double> row(std::size_t index) const;
};

/**
 * Reusable scratch for Dwt::forward. Buffers grow to the high-water
 * mark of the signals they process and are then reused
 * allocation-free. Owned by one thread at a time; never shared
 * concurrently.
 */
struct DwtWorkspace
{
    /** Ping/pong buffers for the per-level approximation chain. */
    std::vector<double> ping;
    std::vector<double> pong;
};

} // namespace didt

#endif // DIDT_WAVELET_FLAT_DECOMPOSITION_HH
