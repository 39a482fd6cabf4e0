/**
 * @file
 * Portable SIMD layer: fixed-width double-vector wrappers over
 * AVX2/SSE2/NEON intrinsics with a scalar fallback, plus runtime CPU
 * dispatch through a per-kernel function table.
 *
 * Determinism contract: every kernel in the table vectorizes across
 * *independent outputs only*. The per-output accumulation order is
 * exactly the reference scalar order, so results are bit-for-bit
 * identical at every level (scalar fallback, SSE2, AVX2, NEON) and
 * across -DDIDT_SIMD=ON/OFF builds. Reductions that fold many inputs
 * into one value (energies, running statistics, dot products) are
 * deliberately *not* in the table: vectorizing them would reassociate
 * floating-point additions and change low-order bits (see DESIGN.md
 * section 11).
 *
 * Backend selection: each backend lives in its own translation unit
 * (simd_kernels_<level>.cc) compiled with that ISA's flags; this
 * header only defines the vector wrapper matching the macros the
 * current TU was compiled with. simd.cc probes the CPU once at
 * startup (overridable with the DIDT_SIMD environment variable or
 * forceLevel(), used by tests and benches) and serves the best
 * available table.
 */

#ifndef DIDT_UTIL_SIMD_HH
#define DIDT_UTIL_SIMD_HH

#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__SSE2__) || defined(__AVX2__)
#include <immintrin.h>
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace didt::simd
{

/** Instruction-set level of a kernel table. */
enum class Level
{
    Scalar = 0, ///< reference implementation, always available
    Sse2 = 1,   ///< 2-wide doubles (x86-64 baseline)
    Avx2 = 2,   ///< 4-wide doubles
    Neon = 3,   ///< 2-wide doubles (aarch64 baseline)
};

/** Human-readable level name ("scalar", "sse2", ...). */
const char *levelName(Level level);

/**
 * Per-kernel function table. Every entry computes bit-for-bit the same
 * outputs as the scalar reference: vectorization is across outputs,
 * never across a single output's accumulation chain.
 */
struct KernelTable
{
    /**
     * One DWT analysis step over the modulo-free outputs: for each
     * k in [0, count), approx[k] = 0 + sum_m h[m] * in[2k + m] and
     * detail[k] likewise with g, taps in ascending m order.
     * Outputs must not alias @p in.
     */
    void (*dwtAnalyze)(const double *in, std::size_t count,
                       const double *h, const double *g, std::size_t flen,
                       double *approx, double *detail);

    /**
     * One DWT synthesis step over the modulo-free scatter region,
     * recast as a per-output gather: writes out[i] for
     * i in [0, 2 * pairs + flen - 2), where out[i] is the sum of
     * h[i-2k] * approx[k] + g[i-2k] * detail[k] over contributing
     * k < pairs in ascending k order (the exact order the scalar
     * scatter loop accumulates). @p flen must be even; @p out must not
     * alias the inputs. Overwrites (the scalar reference zero-fills
     * then accumulates; the gather starts each output at 0.0).
     */
    void (*dwtSynthesize)(const double *approx, const double *detail,
                          std::size_t pairs, const double *h,
                          const double *g, std::size_t flen, double *out);

    /**
     * MODWT filter step over the modulo-free range: for each
     * t in [start, start + count), next[t] = sum_l h[l] *
     * current[t - stride * l] and detail[t] likewise with g, taps in
     * ascending l order. Requires start >= stride * (flen - 1);
     * outputs must not alias @p current.
     */
    void (*modwtStep)(const double *current, std::size_t start,
                      std::size_t count, std::size_t stride,
                      const double *h, const double *g, std::size_t flen,
                      double *next, double *detail);

    /**
     * Steady-state truncated convolution: for each n in
     * [start, start + count), out[n] = sum_m kernel[m] * x[n - m] over
     * all klen taps in ascending m order. Requires start + 1 >= klen;
     * @p out must not alias @p x.
     */
    void (*convolveSteady)(const double *x, std::size_t start,
                           std::size_t count, const double *kernel,
                           std::size_t klen, double *out);

    /**
     * Histogram bin computation: bins[i] = floor((x[i] - lo) / width)
     * as a double (clamping to the bin range is the caller's job, kept
     * scalar so the final integer cast is shared with the reference).
     */
    void (*binIndices)(const double *x, std::size_t n, double lo,
                       double width, double *bins);

    /**
     * Exponential-moving-average step over independent accumulators:
     * emas[i] += alpha * (targets[i] - emas[i]) for i in [0, n). Each
     * lane owns one accumulator (the simulator's per-structure
     * wrong-path activity averages), so the per-accumulator operation
     * chain — subtract, multiply, add, no FMA fusing — is exactly the
     * scalar reference and results are bit-for-bit identical.
     */
    void (*emaUpdate)(double *emas, const double *targets, std::size_t n,
                      double alpha);

    /**
     * Wattch cc3 (LinearIdle) gated power over independent structures:
     * out[i] = peak[i] * (idle_fraction + (1 - idle_fraction) *
     * util[i]) for i in [0, n). Utilizations must be pre-clamped to
     * [0, 1] by the caller (the clamp depends on per-unit port counts
     * and stays scalar). Each lane owns one structure; the per-output
     * multiply/add chain matches the scalar gated() reference exactly.
     */
    void (*gatedLinearIdle)(const double *peak, const double *util,
                            std::size_t n, double idle_fraction,
                            double *out);
};

/** Best level the running CPU and build support (env DIDT_SIMD can
 *  lower it; probed once on first use). */
Level bestLevel();

/** Level currently being dispatched: bestLevel() unless forced. */
Level activeLevel();

/** True when @p level was compiled in and the CPU supports it. */
bool levelAvailable(Level level);

/**
 * Force dispatch to @p level (must be available). Used by the
 * equivalence tests and the scalar-vs-SIMD bench rows; not
 * synchronized against concurrently running kernels, so only call it
 * between workloads.
 */
void forceLevel(Level level);

/** Return to CPU-probed dispatch. */
void clearForcedLevel();

/** The kernel table for the active level. */
const KernelTable &kernels();

/** The kernel table for a specific available level. */
const KernelTable &kernelsFor(Level level);

// ---------------------------------------------------------------------------
// Fixed-width vector wrappers. Only the wrapper matching this TU's ISA
// macros is defined; kernel templates (simd_kernels_impl.hh) are
// instantiated once per backend TU.
// ---------------------------------------------------------------------------

/** Width-1 "vector": the reference scalar backend. */
struct VecScalar
{
    static constexpr std::size_t width = 1;
    double v;

    static VecScalar zero() { return {0.0}; }
    static VecScalar set1(double x) { return {x}; }
    static VecScalar load(const double *p) { return {*p}; }
    void store(double *p) const { *p = v; }

    friend VecScalar operator+(VecScalar a, VecScalar b)
    {
        return {a.v + b.v};
    }
    friend VecScalar operator-(VecScalar a, VecScalar b)
    {
        return {a.v - b.v};
    }
    friend VecScalar operator*(VecScalar a, VecScalar b)
    {
        return {a.v * b.v};
    }
    friend VecScalar operator/(VecScalar a, VecScalar b)
    {
        return {a.v / b.v};
    }

    /** Load 2 * width doubles at @p p, split into even/odd offsets. */
    static void load2(const double *p, VecScalar &even, VecScalar &odd)
    {
        even.v = p[0];
        odd.v = p[1];
    }

    /** Interleave-store even/odd lanes back to 2 * width doubles. */
    static void store2(double *p, VecScalar even, VecScalar odd)
    {
        p[0] = even.v;
        p[1] = odd.v;
    }

    static VecScalar floorv(VecScalar a) { return {std::floor(a.v)}; }
};

#if defined(__SSE2__)
/** 2-wide doubles over SSE2 (x86-64 baseline). */
struct VecSse2
{
    static constexpr std::size_t width = 2;
    __m128d v;

    static VecSse2 zero() { return {_mm_setzero_pd()}; }
    static VecSse2 set1(double x) { return {_mm_set1_pd(x)}; }
    static VecSse2 load(const double *p) { return {_mm_loadu_pd(p)}; }
    void store(double *p) const { _mm_storeu_pd(p, v); }

    friend VecSse2 operator+(VecSse2 a, VecSse2 b)
    {
        return {_mm_add_pd(a.v, b.v)};
    }
    friend VecSse2 operator-(VecSse2 a, VecSse2 b)
    {
        return {_mm_sub_pd(a.v, b.v)};
    }
    friend VecSse2 operator*(VecSse2 a, VecSse2 b)
    {
        return {_mm_mul_pd(a.v, b.v)};
    }
    friend VecSse2 operator/(VecSse2 a, VecSse2 b)
    {
        return {_mm_div_pd(a.v, b.v)};
    }

    static void load2(const double *p, VecSse2 &even, VecSse2 &odd)
    {
        const __m128d lo = _mm_loadu_pd(p);     // p0 p1
        const __m128d hi = _mm_loadu_pd(p + 2); // p2 p3
        even.v = _mm_shuffle_pd(lo, hi, 0b00);  // p0 p2
        odd.v = _mm_shuffle_pd(lo, hi, 0b11);   // p1 p3
    }

    static void store2(double *p, VecSse2 even, VecSse2 odd)
    {
        _mm_storeu_pd(p, _mm_unpacklo_pd(even.v, odd.v));     // e0 o0
        _mm_storeu_pd(p + 2, _mm_unpackhi_pd(even.v, odd.v)); // e1 o1
    }

    static VecSse2 floorv(VecSse2 a)
    {
        // SSE2 has no floor instruction (SSE4.1's roundpd); two scalar
        // floors keep the result identical to the reference.
        alignas(16) double lanes[2];
        _mm_store_pd(lanes, a.v);
        return {_mm_set_pd(std::floor(lanes[1]), std::floor(lanes[0]))};
    }
};
#endif // __SSE2__

#if defined(__AVX2__)
/** 4-wide doubles over AVX2. */
struct VecAvx2
{
    static constexpr std::size_t width = 4;
    __m256d v;

    static VecAvx2 zero() { return {_mm256_setzero_pd()}; }
    static VecAvx2 set1(double x) { return {_mm256_set1_pd(x)}; }
    static VecAvx2 load(const double *p) { return {_mm256_loadu_pd(p)}; }
    void store(double *p) const { _mm256_storeu_pd(p, v); }

    friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_add_pd(a.v, b.v)};
    }
    friend VecAvx2 operator-(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_sub_pd(a.v, b.v)};
    }
    friend VecAvx2 operator*(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_mul_pd(a.v, b.v)};
    }
    friend VecAvx2 operator/(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_div_pd(a.v, b.v)};
    }

    static void load2(const double *p, VecAvx2 &even, VecAvx2 &odd)
    {
        const __m256d lo = _mm256_loadu_pd(p);     // p0 p1 p2 p3
        const __m256d hi = _mm256_loadu_pd(p + 4); // p4 p5 p6 p7
        // unpacklo: p0 p4 p2 p6 -> permute lanes (0,2,1,3): p0 p2 p4 p6
        even.v = _mm256_permute4x64_pd(_mm256_unpacklo_pd(lo, hi),
                                       _MM_SHUFFLE(3, 1, 2, 0));
        odd.v = _mm256_permute4x64_pd(_mm256_unpackhi_pd(lo, hi),
                                      _MM_SHUFFLE(3, 1, 2, 0));
    }

    static void store2(double *p, VecAvx2 even, VecAvx2 odd)
    {
        const __m256d lo = _mm256_unpacklo_pd(even.v, odd.v); // e0 o0 e2 o2
        const __m256d hi = _mm256_unpackhi_pd(even.v, odd.v); // e1 o1 e3 o3
        _mm256_storeu_pd(p, _mm256_permute2f128_pd(lo, hi, 0x20));
        _mm256_storeu_pd(p + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
    }

    static VecAvx2 floorv(VecAvx2 a)
    {
        return {_mm256_floor_pd(a.v)};
    }
};
#endif // __AVX2__

#if defined(__aarch64__) && defined(__ARM_NEON)
/** 2-wide doubles over NEON (aarch64 baseline). */
struct VecNeon
{
    static constexpr std::size_t width = 2;
    float64x2_t v;

    static VecNeon zero() { return {vdupq_n_f64(0.0)}; }
    static VecNeon set1(double x) { return {vdupq_n_f64(x)}; }
    static VecNeon load(const double *p) { return {vld1q_f64(p)}; }
    void store(double *p) const { vst1q_f64(p, v); }

    friend VecNeon operator+(VecNeon a, VecNeon b)
    {
        return {vaddq_f64(a.v, b.v)};
    }
    friend VecNeon operator-(VecNeon a, VecNeon b)
    {
        return {vsubq_f64(a.v, b.v)};
    }
    friend VecNeon operator*(VecNeon a, VecNeon b)
    {
        return {vmulq_f64(a.v, b.v)};
    }
    friend VecNeon operator/(VecNeon a, VecNeon b)
    {
        return {vdivq_f64(a.v, b.v)};
    }

    static void load2(const double *p, VecNeon &even, VecNeon &odd)
    {
        const float64x2x2_t t = vld2q_f64(p);
        even.v = t.val[0];
        odd.v = t.val[1];
    }

    static void store2(double *p, VecNeon even, VecNeon odd)
    {
        const float64x2x2_t t{{even.v, odd.v}};
        vst2q_f64(p, t);
    }

    static VecNeon floorv(VecNeon a) { return {vrndmq_f64(a.v)}; }
};
#endif // __aarch64__ && __ARM_NEON

} // namespace didt::simd

#endif // DIDT_UTIL_SIMD_HH
