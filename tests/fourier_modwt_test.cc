/**
 * @file
 * Tests for the Fourier (FFT) module and the maximal-overlap DWT,
 * including cross-validation between wavelet subband energies and
 * band-limited spectral energies.
 */

#include <cmath>
#include <complex>
#include <vector>

#include <gtest/gtest.h>

#include "stats/running_stats.hh"
#include "util/rng.hh"
#include "wavelet/dwt.hh"
#include "wavelet/fourier.hh"
#include "wavelet/modwt.hh"
#include "wavelet/subband.hh"
#include "wavelet/wavelet_stats.hh"

namespace didt
{
namespace
{

std::vector<double>
randomSignal(std::size_t n, std::uint64_t seed, double mean = 0.0)
{
    Rng rng(seed);
    std::vector<double> xs(n);
    for (auto &x : xs)
        x = rng.normal(mean, 3.0);
    return xs;
}

// ---------------------------------------------------------------------------
// FFT
// ---------------------------------------------------------------------------

TEST(Fft, RoundTrip)
{
    const auto x = randomSignal(256, 1);
    std::vector<std::complex<double>> data(x.begin(), x.end());
    fft(data);
    fft(data, true);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(data[i].real(), x[i], 1e-9);
        EXPECT_NEAR(data[i].imag(), 0.0, 1e-9);
    }
}

TEST(Fft, MatchesNaiveDft)
{
    const auto x = randomSignal(64, 2);
    const auto fast = dft(x);
    for (std::size_t k = 0; k < x.size(); ++k) {
        std::complex<double> slow(0.0, 0.0);
        for (std::size_t t = 0; t < x.size(); ++t) {
            const double angle = -2.0 * M_PI * static_cast<double>(k) *
                                 static_cast<double>(t) /
                                 static_cast<double>(x.size());
            slow += x[t] * std::complex<double>(std::cos(angle),
                                                std::sin(angle));
        }
        EXPECT_NEAR(fast[k].real(), slow.real(), 1e-7) << k;
        EXPECT_NEAR(fast[k].imag(), slow.imag(), 1e-7) << k;
    }
}

TEST(Fft, PureToneConcentratesInOneBin)
{
    const std::size_t n = 256;
    std::vector<double> x(n);
    for (std::size_t t = 0; t < n; ++t)
        x[t] = std::sin(2.0 * M_PI * 16.0 * static_cast<double>(t) /
                        static_cast<double>(n));
    const auto power = powerSpectrum(x);
    for (std::size_t k = 0; k < power.size(); ++k) {
        if (k == 16)
            EXPECT_NEAR(power[k], 0.5, 1e-9); // sine mean-square = 1/2
        else
            EXPECT_NEAR(power[k], 0.0, 1e-9);
    }
}

TEST(Fft, ParsevalHolds)
{
    const auto x = randomSignal(512, 3, 5.0);
    const auto power = powerSpectrum(x);
    double spectral = 0.0;
    for (double p : power)
        spectral += p;
    double mean_square = 0.0;
    for (double v : x)
        mean_square += v * v;
    mean_square /= static_cast<double>(x.size());
    EXPECT_NEAR(spectral, mean_square, 1e-9 * mean_square);
}

TEST(Fft, BandEnergyOfTone)
{
    const std::size_t n = 1024;
    const double fs = 3.0e9;
    std::vector<double> x(n);
    // Tone at bin 43 -> 43 * fs / n = 126 MHz.
    for (std::size_t t = 0; t < n; ++t)
        x[t] = 10.0 * std::sin(2.0 * M_PI * 43.0 * static_cast<double>(t) /
                               static_cast<double>(n));
    EXPECT_NEAR(bandEnergy(x, 100e6, 150e6, fs), 50.0, 1e-6);
    EXPECT_NEAR(bandEnergy(x, 200e6, 400e6, fs), 0.0, 1e-9);
}

TEST(FftDeath, NonPowerOfTwoPanics)
{
    std::vector<std::complex<double>> data(100);
    EXPECT_DEATH(fft(data), "power of two");
}

// ---------------------------------------------------------------------------
// Cross-validation: DWT subbands vs spectrum
// ---------------------------------------------------------------------------

TEST(CrossValidation, SubbandVarianceMatchesBandSpectralEnergy)
{
    // Narrow-band noise placed inside detail level 3's band
    // (94-188 MHz at 3 GHz) should show up almost entirely in that
    // subband's Parseval variance AND in the corresponding spectral
    // band energy, tying the two analyses together.
    const std::size_t n = 4096;
    const double fs = 3.0e9;
    Rng rng(7);
    std::vector<double> x(n, 0.0);
    for (int tone = 0; tone < 6; ++tone) {
        const double f = rng.uniform(110e6, 170e6);
        const double amp = rng.uniform(1.0, 2.0);
        const double phase = rng.uniform(0.0, 2.0 * M_PI);
        for (std::size_t t = 0; t < n; ++t)
            x[t] += amp * std::sin(2.0 * M_PI * f *
                                       static_cast<double>(t) / fs +
                                   phase);
    }

    const Dwt dwt(WaveletBasis::haar());
    const auto stats = computeScaleStats(dwt.forward(x, 8));
    const double total = variance(x);

    // Most variance in level 3 (94-188 MHz), by both measures.
    EXPECT_GT(stats.subbandVariance[3], 0.5 * total);
    const double band = bandEnergy(x, 94e6, 188e6, fs);
    EXPECT_GT(band, 0.9 * total);
}

// ---------------------------------------------------------------------------
// MODWT
// ---------------------------------------------------------------------------

class ModwtBasis : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ModwtBasis, PerfectReconstruction)
{
    const Modwt modwt(WaveletBasis::byName(GetParam()));
    const auto x = randomSignal(200, 11, 10.0); // non power of two!
    const auto dec = modwt.forward(x, 4);
    const auto back = modwt.inverse(dec);
    ASSERT_EQ(back.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(back[i], x[i], 1e-9) << i;
}

TEST_P(ModwtBasis, EnergyDecomposition)
{
    const Modwt modwt(WaveletBasis::byName(GetParam()));
    const auto x = randomSignal(256, 13);
    const auto dec = modwt.forward(x, 5);
    double energy = 0.0;
    for (double w : dec.coefficients())
        energy += w * w;
    double direct = 0.0;
    for (double v : x)
        direct += v * v;
    EXPECT_NEAR(energy, direct, 1e-7 * direct);
}

INSTANTIATE_TEST_SUITE_P(Bases, ModwtBasis,
                         ::testing::Values("haar", "db4", "db6"));

TEST(Modwt, EveryLevelKeepsFullLength)
{
    const Modwt modwt(WaveletBasis::haar());
    const auto x = randomSignal(300, 17);
    const auto dec = modwt.forward(x, 6);
    for (std::size_t j = 0; j < dec.levels(); ++j)
        EXPECT_EQ(dec.detail(j).size(), 300u);
    EXPECT_EQ(dec.approximation().size(), 300u);
}

TEST(Modwt, ShiftInvarianceOfWaveletVariance)
{
    // The defining advantage over the decimated transform: circularly
    // shifting the signal leaves per-scale variance unchanged.
    const Modwt modwt(WaveletBasis::haar());
    std::vector<double> x(256);
    for (std::size_t t = 0; t < 256; ++t)
        x[t] = (t / 12) % 2 ? 1.0 : -1.0; // period 24, off-grid
    const auto base = modwt.waveletVariance(x, 6);

    std::vector<double> shifted(x.size());
    for (std::size_t s : {1u, 5u, 13u}) {
        for (std::size_t t = 0; t < x.size(); ++t)
            shifted[t] = x[(t + s) % x.size()];
        const auto moved = modwt.waveletVariance(shifted, 6);
        for (std::size_t j = 0; j < base.size(); ++j)
            EXPECT_NEAR(moved[j], base[j], 1e-9) << "shift " << s;
    }
}

TEST(Modwt, WaveletVarianceSumsToSampleVariance)
{
    const Modwt modwt(WaveletBasis::haar());
    const auto x = randomSignal(512, 19, 40.0);
    const auto nu = modwt.waveletVariance(x, 7);
    const auto dec = modwt.forward(x, 7);
    double smooth_var = variance(dec.approximation());
    double sum = smooth_var;
    for (double v : nu)
        sum += v;
    // MODWT energy decomposition: detail variances plus the smooth
    // component's second moment about the mean recover Var(x).
    // (The smooth row carries the mean; using its variance about its
    // own mean plus the detail energies matches Var(x).)
    EXPECT_NEAR(sum, variance(x), 0.02 * variance(x));
}

TEST(Modwt, VarianceConcentratesAtMatchingScale)
{
    const Modwt modwt(WaveletBasis::haar());
    std::vector<double> x(512);
    for (std::size_t t = 0; t < 512; ++t)
        x[t] = std::sin(2.0 * M_PI * static_cast<double>(t) / 24.0);
    const auto nu = modwt.waveletVariance(x, 7);
    // Period 24 = 125 MHz at 3 GHz: MODWT level 4 (paper scale j=3
    // covers 16-32 cycle periods -> index 3 or 4 depending on the
    // octave edge; accept the max being one of those).
    std::size_t peak = 0;
    for (std::size_t j = 1; j < nu.size(); ++j)
        if (nu[j] > nu[peak])
            peak = j;
    EXPECT_TRUE(peak == 3 || peak == 4) << peak;
}

TEST(ModwtDeath, TooDeepForSignalIsFatal)
{
    const Modwt modwt(WaveletBasis::haar());
    const std::vector<double> x(16, 1.0);
    EXPECT_EXIT((void)modwt.forward(x, 10), ::testing::ExitedWithCode(1),
                "too deep");
}

} // namespace
} // namespace didt
