/**
 * @file
 * Property tests that cross-check core components against independent
 * reference implementations: the cache against a brute-force LRU
 * model, the supply network's biquad recursion against direct
 * convolution with the impulse response, the DWT against a naive
 * matrix transform, and the workload generator's statistics across all
 * 26 SPEC profiles.
 */

#include <algorithm>
#include <cmath>
#include <list>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "power/convolution.hh"
#include "power/stimulus.hh"
#include "power/supply_network.hh"
#include "sim/cache.hh"
#include "stats/running_stats.hh"
#include "util/rng.hh"
#include "wavelet/basis.hh"
#include "wavelet/dwt.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace didt
{
namespace
{

// ---------------------------------------------------------------------------
// Cache vs reference LRU model
// ---------------------------------------------------------------------------

/** Brute-force set-associative LRU cache. */
class ReferenceCache
{
  public:
    ReferenceCache(std::size_t sets, std::size_t ways,
                   std::size_t line_bytes)
        : sets_(sets), ways_(ways), lineBytes_(line_bytes),
          contents_(sets)
    {
    }

    bool
    access(std::uint64_t address)
    {
        const std::uint64_t line = address / lineBytes_;
        const std::size_t set = line % sets_;
        auto &mru = contents_[set]; // front = most recent
        const auto it = std::find(mru.begin(), mru.end(), line);
        if (it != mru.end()) {
            mru.erase(it);
            mru.push_front(line);
            return true;
        }
        mru.push_front(line);
        if (mru.size() > ways_)
            mru.pop_back();
        return false;
    }

  private:
    std::size_t sets_;
    std::size_t ways_;
    std::size_t lineBytes_;
    std::vector<std::list<std::uint64_t>> contents_;
};

struct CacheGeometry
{
    std::size_t size;
    std::size_t ways;
};

class CacheVsReference : public ::testing::TestWithParam<CacheGeometry>
{
};

TEST_P(CacheVsReference, RandomStreamsAgreeExactly)
{
    const auto [size, ways] = GetParam();
    Cache cache({size, ways, 64, 1});
    ReferenceCache ref(size / 64 / ways, ways, 64);

    Rng rng(size + ways);
    for (int n = 0; n < 50000; ++n) {
        // Mix of hot and streaming addresses for realistic reuse.
        const std::uint64_t addr =
            rng.bernoulli(0.7) ? rng.uniformInt(size * 2)
                               : rng.uniformInt(1 << 22);
        ASSERT_EQ(cache.access(addr), ref.access(addr))
            << "divergence at access " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(CacheGeometry{1024, 1}, CacheGeometry{1024, 2},
                      CacheGeometry{4096, 4}, CacheGeometry{8192, 8},
                      CacheGeometry{64 * 1024, 2}));

// ---------------------------------------------------------------------------
// Supply network biquad vs direct convolution
// ---------------------------------------------------------------------------

class SupplyVsConvolution : public ::testing::TestWithParam<double>
{
};

TEST_P(SupplyVsConvolution, RecursionMatchesImpulseConvolution)
{
    SupplyNetworkConfig cfg;
    cfg.resonantHz = 125.0e6;
    cfg.qualityFactor = GetParam();
    cfg.dcResistance = 3.0e-4;
    const SupplyNetwork net(cfg);

    Rng rng(17);
    CurrentTrace trace = gaussianCurrent(40.0, 10.0, 3000, rng);
    // Make the warm-start history trivial so batch convolution (which
    // assumes zero history) is comparable: start from zero current.
    trace[0] = 0.0;

    const VoltageTrace fast = net.computeVoltage(trace);
    const auto droop = convolve(trace, net.impulseResponse());
    for (std::size_t n = 2048; n < trace.size(); ++n) {
        // After the response length, truncation effects vanish.
        EXPECT_NEAR(fast[n], 1.0 - droop[n], 2e-6) << "cycle " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(QualityFactors, SupplyVsConvolution,
                         ::testing::Values(2.0, 5.0, 10.0));

// ---------------------------------------------------------------------------
// DWT vs naive basis-matrix transform
// ---------------------------------------------------------------------------

/**
 * Naive Haar analysis: explicitly build each basis vector by upsampling
 * and convolving, then take inner products. O(N^2), independent of the
 * pyramid implementation.
 */
std::vector<std::vector<double>>
naiveHaarDetails(const std::vector<double> &x, std::size_t levels)
{
    std::vector<std::vector<double>> details;
    const std::size_t n = x.size();
    for (std::size_t j = 1; j <= levels; ++j) {
        const std::size_t block = std::size_t(1) << j;
        std::vector<double> level(n / block);
        for (std::size_t k = 0; k < level.size(); ++k) {
            double first = 0.0;
            double second = 0.0;
            for (std::size_t t = 0; t < block / 2; ++t) {
                first += x[k * block + t];
                second += x[k * block + block / 2 + t];
            }
            level[k] =
                (first - second) / std::sqrt(static_cast<double>(block));
        }
        details.push_back(std::move(level));
    }
    return details;
}

TEST(DwtVsNaive, HaarDetailsMatchDirectComputation)
{
    Rng rng(23);
    std::vector<double> x(256);
    for (auto &v : x)
        v = rng.normal(40.0, 10.0);

    const Dwt dwt(WaveletBasis::haar());
    const auto dec = dwt.forward(x, 8);
    const auto naive = naiveHaarDetails(x, 8);
    for (std::size_t j = 0; j < 8; ++j) {
        ASSERT_EQ(dec.detail(j).size(), naive[j].size());
        for (std::size_t k = 0; k < naive[j].size(); ++k)
            EXPECT_NEAR(dec.detail(j)[k], naive[j][k], 1e-9)
                << "level " << j << " k " << k;
    }
}

TEST(DwtVsNaive, ApproximationIsScaledBlockSum)
{
    Rng rng(29);
    std::vector<double> x(64);
    for (auto &v : x)
        v = rng.normal(0.0, 1.0);
    const Dwt dwt(WaveletBasis::haar());
    const auto dec = dwt.forward(x, 6);
    ASSERT_EQ(dec.approximation().size(), 1u);
    double sum = 0.0;
    for (double v : x)
        sum += v;
    EXPECT_NEAR(dec.approximation()[0], sum / 8.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Generator statistics across all 26 profiles
// ---------------------------------------------------------------------------

class AllProfiles : public ::testing::TestWithParam<std::size_t>
{
  protected:
    const BenchmarkProfile &profile() const
    {
        return spec2000Profiles()[GetParam()];
    }
};

TEST_P(AllProfiles, StreamIsDeterministicAndWellFormed)
{
    const auto &prof = profile();
    SyntheticWorkload a(prof, 4000, 3);
    SyntheticWorkload b(prof, 4000, 3);
    Instruction ia;
    Instruction ib;
    while (a.next(ia)) {
        ASSERT_TRUE(b.next(ib));
        ASSERT_EQ(ia.pc, ib.pc) << prof.name;
        ASSERT_EQ(ia.op, ib.op) << prof.name;
        // PCs stay inside the code footprint.
        ASSERT_GE(ia.pc, 0x00400000u) << prof.name;
        ASSERT_LT(ia.pc, 0x00400000u + prof.codeBytes) << prof.name;
        if (isMemOp(ia.op)) {
            ASSERT_NE(ia.address, 0u) << prof.name;
        }
    }
}

TEST_P(AllProfiles, MixRoughlyMatchesDeclaredFractions)
{
    const auto &prof = profile();
    SyntheticWorkload w(prof, 30000, 0);
    std::map<OpClass, double> counts;
    Instruction inst;
    while (w.next(inst))
        counts[inst.op] += 1.0;

    // Aggregate declared fractions, weighted by phase length.
    double total_len = 0.0;
    double want_mem = 0.0;
    double want_branch = 0.0;
    for (const auto &ph : prof.phases) {
        const double len = static_cast<double>(ph.lengthInsts);
        total_len += len;
        want_mem += (ph.loadFrac + ph.storeFrac) * len;
        want_branch += ph.branchFrac * len;
    }
    want_mem /= total_len;
    want_branch /= total_len;

    const double n = 30000.0;
    const double got_mem =
        (counts[OpClass::Load] + counts[OpClass::Store]) / n;
    const double got_branch = counts[OpClass::Branch] / n;
    EXPECT_NEAR(got_mem, want_mem, 0.05) << prof.name;
    EXPECT_NEAR(got_branch, want_branch, 0.04) << prof.name;
}

INSTANTIATE_TEST_SUITE_P(Spec2000, AllProfiles,
                         ::testing::Range<std::size_t>(0, 26));

// ---------------------------------------------------------------------------
// Streaming convolver equals batch for random kernels
// ---------------------------------------------------------------------------

class ConvolverProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ConvolverProperty, StreamingEqualsBatch)
{
    Rng rng(GetParam());
    std::vector<double> kernel(GetParam());
    for (auto &c : kernel)
        c = rng.normal();
    std::vector<double> x(512, 0.0);
    for (std::size_t i = 1; i < x.size(); ++i)
        x[i] = rng.normal(5.0, 2.0);

    StreamingConvolver conv(kernel);
    const auto batch = convolve(x, kernel);
    for (std::size_t n = 0; n < x.size(); ++n) {
        conv.push(x[n]);
        if (n >= kernel.size()) {
            ASSERT_NEAR(conv.value(), batch[n], 1e-9);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(KernelLengths, ConvolverProperty,
                         ::testing::Values(1, 2, 7, 33, 128));

// ---------------------------------------------------------------------------
// Every registered basis: orthonormality, perfect reconstruction at
// non-dyadic lengths, energy preservation
// ---------------------------------------------------------------------------

class AllBases : public ::testing::TestWithParam<std::string>
{
  protected:
    WaveletBasis basis() const { return WaveletBasis::byName(GetParam()); }
};

TEST_P(AllBases, FilterSatisfiesDoubleShiftOrthogonality)
{
    const WaveletBasis b = basis();
    const std::vector<double> &h = b.lowpass();
    // sum_n h[n] h[n + 2k] = delta(k): the CQF condition perfect
    // reconstruction rests on.
    for (std::size_t k = 0; 2 * k < h.size(); ++k) {
        double dot = 0.0;
        for (std::size_t n = 0; n + 2 * k < h.size(); ++n)
            dot += h[n] * h[n + 2 * k];
        EXPECT_NEAR(dot, k == 0 ? 1.0 : 0.0, 1e-12)
            << b.name() << " shift " << k;
    }
}

TEST_P(AllBases, PerfectReconstructionAtNonDyadicLengths)
{
    const Dwt dwt(basis());
    // Non-dyadic lengths: divisible by 2^levels but not powers of two.
    const struct
    {
        std::size_t length;
        std::size_t levels;
    } cases[] = {{96, 5}, {160, 4}, {288, 5}};
    Rng rng(101);
    for (const auto &c : cases) {
        std::vector<double> x(c.length);
        for (auto &v : x)
            v = rng.normal();
        const FlatDecomposition dec = dwt.forward(x, c.levels);
        const std::vector<double> back = dwt.inverse(dec);
        ASSERT_EQ(back.size(), x.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            ASSERT_NEAR(back[i], x[i], 1e-12)
                << GetParam() << " n=" << c.length << " i=" << i;
    }
}

TEST_P(AllBases, EnergyIsPreserved)
{
    const Dwt dwt(basis());
    Rng rng(103);
    std::vector<double> x(256);
    double energy = 0.0;
    for (auto &v : x) {
        v = rng.normal(2.0, 1.5);
        energy += v * v;
    }
    const FlatDecomposition dec = dwt.forward(x, 6);
    EXPECT_NEAR(dec.energy(), energy, 1e-10 * energy) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Registered, AllBases,
    ::testing::ValuesIn(WaveletBasis::allNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace didt
