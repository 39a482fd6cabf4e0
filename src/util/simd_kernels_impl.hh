/**
 * @file
 * Template bodies for the SIMD kernel table, instantiated once per
 * backend translation unit (simd_kernels_<level>.cc) with that TU's
 * vector wrapper. Included only by backend TUs — not a public header.
 *
 * Every kernel vectorizes across independent outputs: each vector lane
 * owns one output and accumulates its terms in exactly the scalar
 * reference order (starting from 0.0, taps ascending). Remainder
 * outputs that do not fill a vector run through a scalar epilogue with
 * the same per-output order, so results are bit-for-bit identical to
 * the scalar backend at any length. Kernels must be compiled with FP
 * contraction off (no FMA fusing) — see src/util/CMakeLists.txt.
 */

#ifndef DIDT_UTIL_SIMD_KERNELS_IMPL_HH
#define DIDT_UTIL_SIMD_KERNELS_IMPL_HH

#include <cmath>
#include <cstddef>

#include "util/simd.hh"

namespace didt::simd
{

template <class V>
void
dwtAnalyzeImpl(const double *in, std::size_t count, const double *h,
               const double *g, std::size_t flen, double *approx,
               double *detail)
{
    constexpr std::size_t W = V::width;
    std::size_t k = 0;
    if (flen == 2) {
        // Haar-style two-tap butterfly: one deinterleaving load feeds
        // both outputs.
        const V h0 = V::set1(h[0]);
        const V h1 = V::set1(h[1]);
        const V g0 = V::set1(g[0]);
        const V g1 = V::set1(g[1]);
        for (; k + W <= count; k += W) {
            V even;
            V odd;
            V::load2(in + 2 * k, even, odd);
            const V a = (V::zero() + h0 * even) + h1 * odd;
            const V d = (V::zero() + g0 * even) + g1 * odd;
            a.store(approx + k);
            d.store(detail + k);
        }
    } else if (flen >= 2) {
        // Taps walked in pairs so one load2 serves even and odd tap
        // offsets; each lane reads in[2k + m], exactly the scalar
        // indices (the highest address touched equals the scalar
        // maximum 2(count-1) + flen - 1).
        for (; k + W <= count; k += W) {
            V a = V::zero();
            V d = V::zero();
            for (std::size_t m = 0; m + 1 < flen; m += 2) {
                V even;
                V odd;
                V::load2(in + 2 * k + m, even, odd);
                a = a + V::set1(h[m]) * even;
                d = d + V::set1(g[m]) * even;
                a = a + V::set1(h[m + 1]) * odd;
                d = d + V::set1(g[m + 1]) * odd;
            }
            if (flen & 1) {
                // Odd-length filter: the last tap sits at an even
                // stride-2 offset; reading it as the odd lanes of a
                // load2 based one element earlier stays within the
                // scalar maximum index.
                V even;
                V odd;
                V::load2(in + 2 * k + flen - 2, even, odd);
                a = a + V::set1(h[flen - 1]) * odd;
                d = d + V::set1(g[flen - 1]) * odd;
            }
            a.store(approx + k);
            d.store(detail + k);
        }
    }
    for (; k < count; ++k) {
        double a = 0.0;
        double d = 0.0;
        for (std::size_t m = 0; m < flen; ++m) {
            a += h[m] * in[2 * k + m];
            d += g[m] * in[2 * k + m];
        }
        approx[k] = a;
        detail[k] = d;
    }
}

template <class V>
void
dwtSynthesizeImpl(const double *approx, const double *detail,
                  std::size_t pairs, const double *h, const double *g,
                  std::size_t flen, double *out)
{
    // The scalar reference scatters: for k ascending, out[2k + m] +=
    // h[m] a[k] + g[m] d[k]. Recast as a gather per output pair
    // j (outputs 2j and 2j+1): contributing k range is
    // [j - flen/2 + 1, j] clamped to [0, pairs), and ascending k is
    // the scalar accumulation order for every output.
    if (pairs == 0)
        return;
    constexpr std::size_t W = V::width;
    const std::size_t half = flen / 2;
    const std::size_t total = pairs + half - 1;

    auto gatherPair = [&](std::size_t j) {
        const std::size_t k_lo = j + 1 >= half ? j + 1 - half : 0;
        const std::size_t k_hi = j < pairs ? j : pairs - 1;
        double acc_e = 0.0;
        double acc_o = 0.0;
        for (std::size_t k = k_lo; k <= k_hi; ++k) {
            const std::size_t m = 2 * (j - k);
            acc_e += h[m] * approx[k] + g[m] * detail[k];
            acc_o += h[m + 1] * approx[k] + g[m + 1] * detail[k];
        }
        out[2 * j] = acc_e;
        out[2 * j + 1] = acc_o;
    };

    // Low ramp: fewer than `half` contributors.
    std::size_t j = 0;
    for (; j < half - 1 && j < pairs; ++j)
        gatherPair(j);

    // Steady state: every output pair sums all `half` tap pairs; lanes
    // are W consecutive j's, loads are contiguous in k.
    for (; j + W <= pairs; j += W) {
        V acc_e = V::zero();
        V acc_o = V::zero();
        const std::size_t base = j + 1 - half;
        for (std::size_t t = 0; t < half; ++t) {
            const V a = V::load(approx + base + t);
            const V d = V::load(detail + base + t);
            const std::size_t m = flen - 2 - 2 * t;
            acc_e = acc_e + (V::set1(h[m]) * a + V::set1(g[m]) * d);
            acc_o = acc_o + (V::set1(h[m + 1]) * a + V::set1(g[m + 1]) * d);
        }
        V::store2(out + 2 * j, acc_e, acc_o);
    }

    // Scalar steady remainder plus the high ramp past the last k.
    for (; j < total; ++j)
        gatherPair(j);
}

template <class V>
void
modwtStepImpl(const double *current, std::size_t start, std::size_t count,
              std::size_t stride, const double *h, const double *g,
              std::size_t flen, double *next, double *detail)
{
    constexpr std::size_t W = V::width;
    const std::size_t end = start + count;
    std::size_t t = start;
    for (; t + W <= end; t += W) {
        V a = V::zero();
        V d = V::zero();
        for (std::size_t l = 0; l < flen; ++l) {
            const V x = V::load(current + (t - stride * l));
            a = a + V::set1(h[l]) * x;
            d = d + V::set1(g[l]) * x;
        }
        a.store(next + t);
        d.store(detail + t);
    }
    for (; t < end; ++t) {
        double a = 0.0;
        double d = 0.0;
        for (std::size_t l = 0; l < flen; ++l) {
            const double x = current[t - stride * l];
            a += h[l] * x;
            d += g[l] * x;
        }
        next[t] = a;
        detail[t] = d;
    }
}

template <class V>
void
convolveSteadyImpl(const double *x, std::size_t start, std::size_t count,
                   const double *kernel, std::size_t klen, double *out)
{
    constexpr std::size_t W = V::width;
    const std::size_t end = start + count;
    std::size_t n = start;
    for (; n + W <= end; n += W) {
        V acc = V::zero();
        for (std::size_t m = 0; m < klen; ++m)
            acc = acc + V::set1(kernel[m]) * V::load(x + (n - m));
        acc.store(out + n);
    }
    for (; n < end; ++n) {
        double acc = 0.0;
        for (std::size_t m = 0; m < klen; ++m)
            acc += kernel[m] * x[n - m];
        out[n] = acc;
    }
}

template <class V>
void
binIndicesImpl(const double *x, std::size_t n, double lo, double width,
               double *bins)
{
    constexpr std::size_t W = V::width;
    const V vlo = V::set1(lo);
    const V vw = V::set1(width);
    std::size_t i = 0;
    for (; i + W <= n; i += W)
        V::floorv((V::load(x + i) - vlo) / vw).store(bins + i);
    for (; i < n; ++i)
        bins[i] = std::floor((x[i] - lo) / width);
}

template <class V>
void
emaUpdateImpl(double *emas, const double *targets, std::size_t n,
              double alpha)
{
    constexpr std::size_t W = V::width;
    const V va = V::set1(alpha);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        const V e = V::load(emas + i);
        const V t = V::load(targets + i);
        (e + va * (t - e)).store(emas + i);
    }
    for (; i < n; ++i)
        emas[i] += alpha * (targets[i] - emas[i]);
}

template <class V>
void
gatedLinearIdleImpl(const double *peak, const double *util, std::size_t n,
                    double idle_fraction, double *out)
{
    constexpr std::size_t W = V::width;
    const V idle = V::set1(idle_fraction);
    const V active = V::set1(1.0 - idle_fraction);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        const V p = V::load(peak + i);
        const V u = V::load(util + i);
        (p * (idle + active * u)).store(out + i);
    }
    for (; i < n; ++i)
        out[i] = peak[i] *
                 (idle_fraction + (1.0 - idle_fraction) * util[i]);
}

template <class V>
KernelTable
makeKernelTable()
{
    KernelTable t;
    t.dwtAnalyze = &dwtAnalyzeImpl<V>;
    t.dwtSynthesize = &dwtSynthesizeImpl<V>;
    t.modwtStep = &modwtStepImpl<V>;
    t.convolveSteady = &convolveSteadyImpl<V>;
    t.binIndices = &binIndicesImpl<V>;
    t.emaUpdate = &emaUpdateImpl<V>;
    t.gatedLinearIdle = &gatedLinearIdleImpl<V>;
    return t;
}

} // namespace didt::simd

#endif // DIDT_UTIL_SIMD_KERNELS_IMPL_HH
