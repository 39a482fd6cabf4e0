/**
 * @file
 * Unit and property tests for the wavelet library: bases, the fast
 * DWT, subband projection, scalograms, and coefficient statistics.
 */

#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "stats/running_stats.hh"
#include "util/rng.hh"
#include "wavelet/basis.hh"
#include "wavelet/dwt.hh"
#include "wavelet/scalogram.hh"
#include "wavelet/subband.hh"
#include "wavelet/wavelet_stats.hh"

namespace didt
{
namespace
{

std::vector<double>
randomSignal(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> xs(n);
    for (auto &x : xs)
        x = rng.normal(10.0, 4.0);
    return xs;
}

// ---------------------------------------------------------------------------
// Bases
// ---------------------------------------------------------------------------

class BasisTest : public ::testing::TestWithParam<const char *>
{
  protected:
    WaveletBasis basis() const { return WaveletBasis::byName(GetParam()); }
};

TEST_P(BasisTest, LowpassSumsToSqrt2)
{
    const auto b = basis();
    double sum = 0.0;
    for (double c : b.lowpass())
        sum += c;
    EXPECT_NEAR(sum, std::sqrt(2.0), 1e-9);
}

TEST_P(BasisTest, LowpassUnitEnergy)
{
    const auto b = basis();
    double sum_sq = 0.0;
    for (double c : b.lowpass())
        sum_sq += c * c;
    EXPECT_NEAR(sum_sq, 1.0, 1e-9);
}

TEST_P(BasisTest, HighpassSumsToZero)
{
    const auto b = basis();
    double sum = 0.0;
    for (double c : b.highpass())
        sum += c;
    EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST_P(BasisTest, FiltersAreOrthogonal)
{
    const auto b = basis();
    double dot = 0.0;
    for (std::size_t i = 0; i < b.length(); ++i)
        dot += b.lowpass()[i] * b.highpass()[i];
    EXPECT_NEAR(dot, 0.0, 1e-12);
}

TEST_P(BasisTest, DoubleShiftOrthogonality)
{
    // <h, h shifted by 2k> = delta(k): the orthonormality condition.
    const auto b = basis();
    const auto &h = b.lowpass();
    for (std::size_t shift = 2; shift < h.size(); shift += 2) {
        double dot = 0.0;
        for (std::size_t i = 0; i + shift < h.size(); ++i)
            dot += h[i] * h[i + shift];
        EXPECT_NEAR(dot, 0.0, 1e-9) << "shift " << shift;
    }
}

INSTANTIATE_TEST_SUITE_P(AllBases, BasisTest,
                         ::testing::Values("haar", "db4", "db6"));

TEST(Basis, HaarFilterValues)
{
    const auto haar = WaveletBasis::haar();
    const double r = 1.0 / std::sqrt(2.0);
    ASSERT_EQ(haar.length(), 2u);
    EXPECT_DOUBLE_EQ(haar.lowpass()[0], r);
    EXPECT_DOUBLE_EQ(haar.lowpass()[1], r);
    EXPECT_DOUBLE_EQ(haar.highpass()[0], r);
    EXPECT_DOUBLE_EQ(haar.highpass()[1], -r);
}

TEST(Basis, HaarScalingFunctionShape)
{
    // Paper Figure 1 (left): phi = 1 on [0,1).
    EXPECT_DOUBLE_EQ(haarScalingFunction(0.0), 1.0);
    EXPECT_DOUBLE_EQ(haarScalingFunction(0.999), 1.0);
    EXPECT_DOUBLE_EQ(haarScalingFunction(1.0), 0.0);
    EXPECT_DOUBLE_EQ(haarScalingFunction(-0.1), 0.0);
}

TEST(Basis, HaarWaveletFunctionShape)
{
    // Paper Figure 1 (right): psi = +1 on [0,.5), -1 on [.5,1).
    EXPECT_DOUBLE_EQ(haarWaveletFunction(0.25), 1.0);
    EXPECT_DOUBLE_EQ(haarWaveletFunction(0.5), -1.0);
    EXPECT_DOUBLE_EQ(haarWaveletFunction(0.75), -1.0);
    EXPECT_DOUBLE_EQ(haarWaveletFunction(1.0), 0.0);
    EXPECT_DOUBLE_EQ(haarWaveletFunction(-0.5), 0.0);
}

TEST(BasisDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(WaveletBasis::byName("sym9"), ::testing::ExitedWithCode(1),
                "unknown wavelet basis");
}

// ---------------------------------------------------------------------------
// DWT
// ---------------------------------------------------------------------------

TEST(Dwt, PaperFigure3Example)
{
    // The worked example of paper Figure 3: {2,4,2,0,2,4,2,0} under the
    // Haar basis. Level-1 details are (x0-x1)/sqrt2 etc.
    const Dwt dwt(WaveletBasis::haar());
    const std::vector<double> signal{2, 4, 2, 0, 2, 4, 2, 0};
    const FlatDecomposition dec = dwt.forward(signal, 2);

    const double r = 1.0 / std::sqrt(2.0);
    ASSERT_EQ(dec.levels(), 2u);
    ASSERT_EQ(dec.detail(0).size(), 4u);
    EXPECT_NEAR(dec.detail(0)[0], (2 - 4) * r, 1e-12);
    EXPECT_NEAR(dec.detail(0)[1], (2 - 0) * r, 1e-12);
    EXPECT_NEAR(dec.detail(0)[2], (2 - 4) * r, 1e-12);
    EXPECT_NEAR(dec.detail(0)[3], (2 - 0) * r, 1e-12);

    // Level 2: a1 = {6r, 2r, 6r, 2r}; d2 = (a1[0]-a1[1])/sqrt2 = 2.
    ASSERT_EQ(dec.detail(1).size(), 2u);
    EXPECT_NEAR(dec.detail(1)[0], 2.0, 1e-12);
    EXPECT_NEAR(dec.detail(1)[1], 2.0, 1e-12);

    // Approximation: block sums / 2 = {4, 4}.
    ASSERT_EQ(dec.approximation().size(), 2u);
    EXPECT_NEAR(dec.approximation()[0], 4.0, 1e-12);
    EXPECT_NEAR(dec.approximation()[1], 4.0, 1e-12);
}

struct DwtCase
{
    const char *basis;
    std::size_t length;
    std::size_t levels;
};

// gtest_discover_tests names each ctest entry after this printed form.
// Without it gtest dumps the raw bytes, basis pointer included, and the
// names change with every load address.
void PrintTo(const DwtCase &c, std::ostream *os)
{
    *os << c.basis << " n=" << c.length << " levels=" << c.levels;
}

class DwtRoundTrip : public ::testing::TestWithParam<DwtCase>
{
};

TEST_P(DwtRoundTrip, PerfectReconstruction)
{
    const auto [basis_name, length, levels] = GetParam();
    const Dwt dwt(WaveletBasis::byName(basis_name));
    const auto signal = randomSignal(length, 42 + length);
    const auto dec = dwt.forward(signal, levels);
    const auto back = dwt.inverse(dec);
    ASSERT_EQ(back.size(), signal.size());
    for (std::size_t i = 0; i < signal.size(); ++i)
        EXPECT_NEAR(back[i], signal[i], 1e-9) << "index " << i;
}

TEST_P(DwtRoundTrip, ParsevalEnergyPreserved)
{
    const auto [basis_name, length, levels] = GetParam();
    const Dwt dwt(WaveletBasis::byName(basis_name));
    const auto signal = randomSignal(length, 7 + length);
    double energy = 0.0;
    for (double x : signal)
        energy += x * x;
    const auto dec = dwt.forward(signal, levels);
    EXPECT_NEAR(dec.energy(), energy, 1e-7 * energy);
}

TEST_P(DwtRoundTrip, CoefficientCountMatchesSignal)
{
    const auto [basis_name, length, levels] = GetParam();
    const Dwt dwt(WaveletBasis::byName(basis_name));
    const auto signal = randomSignal(length, 9);
    const auto dec = dwt.forward(signal, levels);
    EXPECT_EQ(dec.totalCoefficients(), length);
    EXPECT_EQ(dec.signalLength(), length);
    EXPECT_EQ(dec.levels(), levels);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DwtRoundTrip,
    ::testing::Values(DwtCase{"haar", 8, 1}, DwtCase{"haar", 8, 3},
                      DwtCase{"haar", 256, 8}, DwtCase{"haar", 64, 4},
                      DwtCase{"db4", 64, 3}, DwtCase{"db4", 256, 6},
                      DwtCase{"db6", 128, 4}, DwtCase{"db6", 256, 5},
                      DwtCase{"haar", 96, 5}));

TEST(Dwt, ConstantSignalHasZeroDetails)
{
    const Dwt dwt(WaveletBasis::haar());
    const std::vector<double> signal(64, 5.0);
    const auto dec = dwt.forward(signal, 4);
    for (std::size_t j = 0; j < dec.levels(); ++j)
        for (double d : dec.detail(j))
            EXPECT_NEAR(d, 0.0, 1e-12);
    // Approximation carries all the mass: a = 5 * 2^(levels/2).
    for (double a : dec.approximation())
        EXPECT_NEAR(a, 5.0 * 4.0, 1e-12);
}

TEST(Dwt, Linearity)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto a = randomSignal(64, 1);
    const auto b = randomSignal(64, 2);
    std::vector<double> sum(64);
    for (std::size_t i = 0; i < 64; ++i)
        sum[i] = 2.0 * a[i] + 3.0 * b[i];
    const auto da = dwt.forward(a, 3);
    const auto db = dwt.forward(b, 3);
    const auto ds = dwt.forward(sum, 3);
    for (std::size_t j = 0; j < 3; ++j)
        for (std::size_t k = 0; k < ds.detail(j).size(); ++k)
            EXPECT_NEAR(ds.detail(j)[k],
                        2.0 * da.detail(j)[k] + 3.0 * db.detail(j)[k],
                        1e-9);
}

TEST(Dwt, MaxLevels)
{
    const Dwt haar(WaveletBasis::haar());
    EXPECT_EQ(haar.maxLevels(256), 8u);
    EXPECT_EQ(haar.maxLevels(96), 5u);
    EXPECT_EQ(haar.maxLevels(1), 0u);
}

TEST(Dwt, AnalyzeSynthesizeStepRoundTrip)
{
    const Dwt dwt(WaveletBasis::daubechies4());
    const auto signal = randomSignal(32, 5);
    std::vector<double> approx(signal.size() / 2);
    std::vector<double> detail(signal.size() / 2);
    dwt.analyzeStep(signal, approx, detail);
    ASSERT_EQ(approx.size(), 16u);
    ASSERT_EQ(detail.size(), 16u);
    std::vector<double> back(signal.size());
    dwt.synthesizeStep(approx, detail, back);
    for (std::size_t i = 0; i < signal.size(); ++i)
        EXPECT_NEAR(back[i], signal[i], 1e-10);
}

// ---------------------------------------------------------------------------
// Subbands
// ---------------------------------------------------------------------------

TEST(Subband, SumOfAllSubbandsReconstructsSignal)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto signal = randomSignal(128, 11);
    const auto dec = dwt.forward(signal, 5);
    const auto bands = allSubbands(dwt, dec);
    ASSERT_EQ(bands.size(), 6u); // 5 details + approximation
    for (std::size_t i = 0; i < signal.size(); ++i) {
        double sum = 0.0;
        for (const auto &band : bands)
            sum += band[i];
        EXPECT_NEAR(sum, signal[i], 1e-9);
    }
}

TEST(Subband, DetailSubbandsHaveZeroMean)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto signal = randomSignal(128, 13);
    const auto dec = dwt.forward(signal, 4);
    for (std::size_t j = 0; j < 4; ++j) {
        const auto band = detailSubband(dwt, dec, j);
        const double m = std::accumulate(band.begin(), band.end(), 0.0);
        EXPECT_NEAR(m, 0.0, 1e-9) << "level " << j;
    }
}

TEST(Subband, ApproximationOfConstantIsConstant)
{
    const Dwt dwt(WaveletBasis::haar());
    const std::vector<double> signal(64, 3.0);
    const auto dec = dwt.forward(signal, 3);
    const auto approx = approximationSubband(dwt, dec);
    for (double x : approx)
        EXPECT_NEAR(x, 3.0, 1e-12);
}

TEST(Subband, FilteredReconstructionDropsLevels)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto signal = randomSignal(64, 17);
    const auto dec = dwt.forward(signal, 3);
    // Keeping everything reproduces the signal.
    const auto all = filteredReconstruction(dwt, dec, {0, 1, 2}, true);
    for (std::size_t i = 0; i < signal.size(); ++i)
        EXPECT_NEAR(all[i], signal[i], 1e-9);
    // Keeping nothing yields zero.
    const auto none = filteredReconstruction(dwt, dec, {}, false);
    for (double x : none)
        EXPECT_NEAR(x, 0.0, 1e-12);
    // Keeping one level equals that subband.
    const auto only1 = filteredReconstruction(dwt, dec, {1}, false);
    const auto band1 = detailSubband(dwt, dec, 1);
    for (std::size_t i = 0; i < signal.size(); ++i)
        EXPECT_NEAR(only1[i], band1[i], 1e-9);
}

TEST(Subband, ParsevalSubbandVariance)
{
    // Per paper Section 4.1 step 2: the variance of a detail subband
    // equals the sum of squared coefficients over the signal length.
    const Dwt dwt(WaveletBasis::haar());
    const auto signal = randomSignal(256, 19);
    const auto dec = dwt.forward(signal, 6);
    const auto stats = computeScaleStats(dec);
    for (std::size_t j = 0; j < 6; ++j) {
        const auto band = detailSubband(dwt, dec, j);
        EXPECT_NEAR(stats.subbandVariance[j], variance(band),
                    1e-9 + 1e-6 * stats.subbandVariance[j])
            << "level " << j;
    }
}

TEST(Subband, DetailBandFrequencies)
{
    // Level 0 at a 3 GHz clock covers 750-1500 MHz; each level halves.
    const auto b0 = detailBandFrequency(0, 3.0e9);
    EXPECT_DOUBLE_EQ(b0.highHz, 1.5e9);
    EXPECT_DOUBLE_EQ(b0.lowHz, 0.75e9);
    const auto b3 = detailBandFrequency(3, 3.0e9);
    EXPECT_DOUBLE_EQ(b3.highHz, 3.0e9 / 16.0);
    EXPECT_DOUBLE_EQ(b3.lowHz, 3.0e9 / 32.0);
}

// ---------------------------------------------------------------------------
// Scalogram
// ---------------------------------------------------------------------------

TEST(Scalogram, DimensionsMatchDecomposition)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto signal = randomSignal(256, 23);
    const auto dec = dwt.forward(signal, 8);
    const Scalogram sc(dec);
    EXPECT_EQ(sc.scales(), 8u);
    EXPECT_EQ(sc.row(0).size(), 128u);
    EXPECT_EQ(sc.row(7).size(), 1u);
}

TEST(Scalogram, MagnitudesAreAbsoluteCoefficients)
{
    const Dwt dwt(WaveletBasis::haar());
    const std::vector<double> signal{2, 4, 2, 0, 2, 4, 2, 0};
    const auto dec = dwt.forward(signal, 2);
    const Scalogram sc(dec);
    EXPECT_NEAR(sc.row(0)[0], std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(sc.row(1)[0], 2.0, 1e-12);
    EXPECT_NEAR(sc.maxMagnitude(), 2.0, 1e-12);
}

TEST(Scalogram, AsciiRenderHasOneLinePerScale)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto signal = randomSignal(64, 29);
    const Scalogram sc(dwt.forward(signal, 4));
    std::ostringstream os;
    sc.renderAscii(os, 32);
    std::size_t lines = 0;
    for (char ch : os.str())
        if (ch == '\n')
            ++lines;
    EXPECT_EQ(lines, 4u);
}

TEST(Scalogram, CsvHasHeaderAndAllCoefficients)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto signal = randomSignal(16, 31);
    const Scalogram sc(dwt.forward(signal, 2));
    std::ostringstream os;
    sc.writeCsv(os);
    std::size_t lines = 0;
    for (char ch : os.str())
        if (ch == '\n')
            ++lines;
    EXPECT_EQ(lines, 1u + 8u + 4u); // header + level0 + level1
}

// ---------------------------------------------------------------------------
// Coefficient statistics
// ---------------------------------------------------------------------------

TEST(WaveletStats, RankedByDecreasingMagnitude)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto signal = randomSignal(64, 37);
    const auto dec = dwt.forward(signal, 4);
    const auto ranked = rankCoefficients(dec);
    EXPECT_EQ(ranked.size(), 64u);
    for (std::size_t i = 1; i < ranked.size(); ++i)
        EXPECT_GE(std::fabs(ranked[i - 1].value),
                  std::fabs(ranked[i].value));
}

TEST(WaveletStats, EnergyCapturedMonotoneToOne)
{
    const Dwt dwt(WaveletBasis::haar());
    const auto signal = randomSignal(64, 41);
    const auto dec = dwt.forward(signal, 4);
    double prev = 0.0;
    for (std::size_t k = 1; k <= 64; ++k) {
        const double captured = energyCaptured(dec, k);
        EXPECT_GE(captured, prev);
        prev = captured;
    }
    EXPECT_NEAR(prev, 1.0, 1e-12);
}

TEST(WaveletStats, SparseSignalFewCoefficientsSuffice)
{
    // A single Haar step is exactly representable by a handful of
    // coefficients — the sparsity the paper exploits (Section 2.1).
    const Dwt dwt(WaveletBasis::haar());
    std::vector<double> signal(64, 1.0);
    for (std::size_t i = 32; i < 64; ++i)
        signal[i] = 3.0;
    const auto dec = dwt.forward(signal, 6);
    EXPECT_GT(energyCaptured(dec, 3), 0.999);
}

TEST(WaveletStats, EnergyPeaksAtMatchingScale)
{
    // A period-16 square wave concentrates energy at level 3
    // (coefficient window 16).
    const Dwt dwt(WaveletBasis::haar());
    std::vector<double> signal(256);
    for (std::size_t i = 0; i < 256; ++i)
        signal[i] = (i / 8) % 2 ? 1.0 : -1.0; // period 16
    const auto stats = computeScaleStats(dwt.forward(signal, 6));
    std::size_t peak = 0;
    for (std::size_t j = 1; j < 6; ++j)
        if (stats.subbandVariance[j] > stats.subbandVariance[peak])
            peak = j;
    EXPECT_EQ(peak, 3u);
}

TEST(WaveletStats, AdjacentCorrelationDetectsPulseTrains)
{
    // A period-32 oscillation makes level-3 coefficients (window 16 =
    // half a period) alternate in sign: strong anticorrelation, the
    // pulse pattern the paper's model keys on.
    const Dwt dwt(WaveletBasis::haar());
    std::vector<double> signal(256);
    for (std::size_t i = 0; i < 256; ++i)
        signal[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 32.0);
    const auto stats = computeScaleStats(dwt.forward(signal, 6));
    EXPECT_LT(stats.adjacentCorrelation[3], -0.9);
}

TEST(WaveletStats, ApproximationVarianceOfConstantIsZero)
{
    const Dwt dwt(WaveletBasis::haar());
    const std::vector<double> signal(64, 2.5);
    const auto stats = computeScaleStats(dwt.forward(signal, 3));
    EXPECT_NEAR(stats.approximationVariance, 0.0, 1e-12);
}

} // namespace
} // namespace didt
