/**
 * @file
 * Fixed-width SIMD lane layer for the dense simulators.
 *
 * A thin abstraction over interleaved complex<double> amplitudes:
 * AVX2 (2 complex lanes) or AVX-512 (4 complex lanes) intrinsics when
 * the CMake option EFTVQA_SIMD selects them, and a scalar build when
 * vector lanes are off. The ISA is chosen at compile time; a runtime
 * CPUID sanity check (__builtin_cpu_supports) keeps the vector kernels
 * unreachable on hosts that compiled for an ISA they don't have, so
 * the scalar fallbacks in the simulators always remain valid.
 *
 * Determinism contract
 * --------------------
 * Every kernel here (1q/2q unitaries, diagonal phase sweeps, xor-mask
 * permutations, density-matrix channels, the density-matrix pair pass
 * with the one-qubit maps it carries, and the expectation sweep)
 * performs per-amplitude arithmetic in exactly the scalar operation
 * order — complex multiplies are expanded to the same
 * (ar*br - ai*bi, ar*bi + ai*br) form std::complex uses, sums keep the
 * scalar association, and no FMA contraction is emitted (the kernels
 * use explicit mul/add intrinsics) — so the vector paths are
 * bit-identical to the scalar ones. The expectation sweep's sums follow
 * one written-down order on every build and in both modes
 * (sim/lane_sweep.hpp): 8 fixed slices of dim / 8 states (one slice
 * below 32 states), two lane chains per slice, each chain adding its
 * states in ascending order, chains then slices added in ascending
 * order. AVX2 holds a slice's chain pair in one register; AVX-512 adds
 * each register's low lane pair, then its high pair, into a two-lane
 * accumulator (vaccAdd). tests/test_pauli_sums.cpp checks both modes by
 * memcmp against a reference that follows the order.
 *
 * Every kernel runs on its caller's thread over the whole range it is
 * given; none opens a thread team.
 *
 * Mode pinning: setSimdMode(0) forces the scalar paths (benches and
 * parity tests), setSimdMode(-1) restores the default auto dispatch.
 */

#ifndef EFTVQA_SIM_SIMD_HPP
#define EFTVQA_SIM_SIMD_HPP

#include <atomic>
#include <bit>
#include <complex>
#include <cstdint>
#include <cstddef>
#include <new>
#include <vector>

#include "sim/channels.hpp"

#if defined(EFTVQA_SIMD_ISA_AVX512) || defined(EFTVQA_SIMD_ISA_AVX2)
#include <immintrin.h>
#define EFTVQA_SIMD_VECTOR 1
#endif

#if defined(EFTVQA_SIMD_ISA_AVX512)
#define EFTVQA_SIMD_TARGET __attribute__((target("avx512f,avx512dq")))
#elif defined(EFTVQA_SIMD_ISA_AVX2)
#define EFTVQA_SIMD_TARGET __attribute__((target("avx2")))
#else
#define EFTVQA_SIMD_TARGET
#endif

namespace eftvqa {
namespace simd {

using cd = std::complex<double>;

#if defined(EFTVQA_SIMD_ISA_AVX512)
inline constexpr size_t kLanes = 4; ///< complex<double> per vector
inline constexpr const char *kCompiledIsa = "avx512";
#elif defined(EFTVQA_SIMD_ISA_AVX2)
inline constexpr size_t kLanes = 2;
inline constexpr const char *kCompiledIsa = "avx2";
#else
inline constexpr size_t kLanes = 1;
inline constexpr const char *kCompiledIsa = "scalar";
#endif

/** Fixed slice count of the expectation sweep (sim/lane_sweep.hpp):
 *  slice sums are added in ascending slice order, part of its
 *  written-down summation order. */
inline constexpr size_t kSweepSlices = 8;

/** Lane chains per slice of the expectation sweep, AVX2's register
 *  width on every build: part of its written-down summation order. */
inline constexpr size_t kSweepLanes = 2;

/** States per slice and thread that the expectation sweep's band
 *  scratch holds; larger registers fill their band block by block.
 *  Not part of the summation order. */
inline constexpr size_t kSweepBlockStates = size_t{1} << 14;

/** Runtime sanity check: does this host implement the compiled ISA?
 *  Vector kernels are never entered when it fails, so a binary built
 *  with EFTVQA_SIMD=avx512 still runs (scalar) on an AVX2-only box. */
inline bool
runtimeSupported()
{
#if defined(EFTVQA_SIMD_ISA_AVX512)
    static const bool ok = __builtin_cpu_supports("avx512f") &&
                           __builtin_cpu_supports("avx512dq");
    return ok;
#elif defined(EFTVQA_SIMD_ISA_AVX2)
    static const bool ok = __builtin_cpu_supports("avx2");
    return ok;
#else
    return false;
#endif
}

/** SIMD dispatch override: -1 auto (vector kernels when compiled in
 *  and the host supports them), 0 force the scalar paths. Exposed so
 *  benches and parity tests can pin either side; production code
 *  leaves it at auto. */
inline std::atomic<int> g_simd_mode{-1};

inline void
setSimdMode(int mode)
{
    g_simd_mode.store(mode, std::memory_order_relaxed);
}

inline int
simdMode()
{
    return g_simd_mode.load(std::memory_order_relaxed);
}

/** Will the vector kernels actually be used right now? */
inline bool
enabled()
{
    return kLanes > 1 &&
           g_simd_mode.load(std::memory_order_relaxed) != 0 &&
           runtimeSupported();
}

/** ISA the active kernels run ("scalar" when dispatch is pinned off
 *  or the host lacks the compiled ISA). */
inline const char *
activeIsa()
{
    return enabled() ? kCompiledIsa : "scalar";
}

/**
 * 64-byte-aligned allocator for the amplitude buffers: cacheline- and
 * vector-register-aligned loads for every base the kernels see.
 * (The kernels themselves use unaligned load/store instructions, which
 * cost nothing on aligned addresses, so views at odd offsets — e.g.
 * density-matrix rows with dim < kLanes — stay correct.)
 */
template <class T>
struct AlignedAllocator
{
    using value_type = T;
    static constexpr std::size_t kAlign = 64;

    AlignedAllocator() noexcept = default;
    template <class U>
    AlignedAllocator(const AlignedAllocator<U> &) noexcept
    {
    }

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t{kAlign}));
    }
    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{kAlign});
    }

    template <class U>
    struct rebind
    {
        using other = AlignedAllocator<U>;
    };
    friend bool operator==(const AlignedAllocator &,
                           const AlignedAllocator &) noexcept
    {
        return true;
    }
    friend bool operator!=(const AlignedAllocator &,
                           const AlignedAllocator &) noexcept
    {
        return false;
    }
};

/** Amplitude storage of the dense simulators. */
using AmpVector = std::vector<cd, AlignedAllocator<cd>>;

/** Pair state s = (bit qa << 1) | bit qb under CX(qa, qb) / Swap; CZ
 *  keeps it. Every pair gate is an involution. */
constexpr int
pairPerm(GateType g, int s)
{
    if (g == GateType::CX)
        return s >= 2 ? s ^ 1 : s;
    if (g == GateType::Swap)
        return s == 1 || s == 2 ? s ^ 3 : s;
    return s;
}

namespace detail {

/** Insert a zero bit at position p (bits at and above p shift up). */
inline uint64_t
insertZeroBit(uint64_t x, uint64_t p)
{
    const uint64_t low = (uint64_t{1} << p) - 1;
    return ((x & ~low) << 1) | (x & low);
}

#if defined(EFTVQA_SIMD_VECTOR)

// ---------------------------------------------------------------- //
// Per-ISA primitives. One complex lane = (real, imag) adjacent      //
// doubles; CVec holds kLanes complex values. Complex multiply is    //
// expanded to the exact scalar form, so every elementwise kernel    //
// built on these primitives is bit-identical to its scalar loop.    //
// ---------------------------------------------------------------- //

#if defined(EFTVQA_SIMD_ISA_AVX512)

using CVec = __m512d;
using SignVec = __m512d; ///< +-0.0 per double slot, applied by xor

/** Every slot. GCC 12's unmasked permutes and extracts merge into
 *  _mm512_undefined_pd(), whose self-initialisation trips
 *  -Wmaybe-uninitialized at each use; their zero-masking forms with
 *  every slot selected compile to the same instructions. */
inline constexpr __mmask8 kAllSlots = 0xFF;

EFTVQA_SIMD_TARGET inline CVec
vload(const cd *p)
{
    return _mm512_loadu_pd(reinterpret_cast<const double *>(p));
}
EFTVQA_SIMD_TARGET inline void
vstore(cd *p, CVec v)
{
    _mm512_storeu_pd(reinterpret_cast<double *>(p), v);
}
EFTVQA_SIMD_TARGET inline CVec
vzero()
{
    return _mm512_setzero_pd();
}
EFTVQA_SIMD_TARGET inline CVec
vadd(CVec a, CVec b)
{
    return _mm512_add_pd(a, b);
}
EFTVQA_SIMD_TARGET inline CVec
vbroadcast(cd c)
{
    return _mm512_set_pd(c.imag(), c.real(), c.imag(), c.real(),
                         c.imag(), c.real(), c.imag(), c.real());
}
/** [x, y, x, y] over complex lanes (column pair of a 2x2 matrix). */
EFTVQA_SIMD_TARGET inline CVec
vsetPattern2(cd x, cd y)
{
    return _mm512_set_pd(y.imag(), y.real(), x.imag(), x.real(),
                         y.imag(), y.real(), x.imag(), x.real());
}
/** Optimization barrier: avx512f implies FMA in GCC's ISA closure and
 *  the mul/add intrinsics are generic vector arithmetic there, so
 *  without this the compiler contracts mul-feeding-add into vfmadd
 *  and breaks bit-identity with the scalar expansion. */
EFTVQA_SIMD_TARGET inline void
vopaque(CVec &v)
{
    asm("" : "+v"(v));
}
EFTVQA_SIMD_TARGET inline CVec
vcmul(CVec a, CVec b)
{
    // (ar*br - ai*bi, ar*bi + ai*br): mul/mul, negate the even slots
    // of the second product, add. a-b == a+(-b) exactly in IEEE-754,
    // so this matches _mm256_addsub_pd and the scalar expansion.
    CVec t0 = _mm512_mul_pd(_mm512_maskz_movedup_pd(kAllSlots, a), b);
    vopaque(t0);
    const CVec t1 =
        _mm512_mul_pd(_mm512_maskz_permute_pd(kAllSlots, a, 0xFF),
                      _mm512_maskz_permute_pd(kAllSlots, b, 0x55));
    const CVec neg_even = _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0,
                                        -0.0, 0.0, -0.0);
    return _mm512_add_pd(t0, _mm512_xor_pd(t1, neg_even));
}
EFTVQA_SIMD_TARGET inline CVec
vconj(CVec v)
{
    return _mm512_xor_pd(v, _mm512_set_pd(-0.0, 0.0, -0.0, 0.0, -0.0,
                                          0.0, -0.0, 0.0));
}
EFTVQA_SIMD_TARGET inline CVec
vscale(CVec v, double s)
{
    return _mm512_mul_pd(v, _mm512_set1_pd(s));
}
/** Per complex lane j: re_j^2 + im_j^2 in both slots of lane j. */
EFTVQA_SIMD_TARGET inline CVec
vnormPairs(CVec v)
{
    CVec sq = _mm512_mul_pd(v, v);
    vopaque(sq);
    return _mm512_add_pd(sq, _mm512_maskz_permute_pd(kAllSlots, sq, 0x55));
}
/** Complex lane j <- lane (j ^ lo), lo in [0, kLanes). */
EFTVQA_SIMD_TARGET inline CVec
vlanePermuteXor(CVec v, unsigned lo)
{
    const long long l = static_cast<long long>(lo) * 2;
    const __m512i idx = _mm512_set_epi64(
        (6 ^ l) + 1, 6 ^ l, (4 ^ l) + 1, 4 ^ l, (2 ^ l) + 1, 2 ^ l,
        (0 ^ l) + 1, 0 ^ l);
    return _mm512_maskz_permutexvar_pd(kAllSlots, idx, v);
}
/** Duplicate each even complex lane over its pair: [a,a,c,c]. */
EFTVQA_SIMD_TARGET inline CVec
vdupPairsEven(CVec v)
{
    const __m512i idx = _mm512_set_epi64(5, 4, 5, 4, 1, 0, 1, 0);
    return _mm512_maskz_permutexvar_pd(kAllSlots, idx, v);
}
/** Duplicate each odd complex lane over its pair: [b,b,d,d]. */
EFTVQA_SIMD_TARGET inline CVec
vdupPairsOdd(CVec v)
{
    const __m512i idx = _mm512_set_epi64(7, 6, 7, 6, 3, 2, 3, 2);
    return _mm512_maskz_permutexvar_pd(kAllSlots, idx, v);
}
EFTVQA_SIMD_TARGET inline SignVec
signsAll()
{
    return _mm512_set1_pd(-0.0);
}
/** Sign pattern for lane-local Z-mask parity: lane j flips when
 *  popcount(j & z) is odd. */
EFTVQA_SIMD_TARGET inline SignVec
signsForMask(uint64_t z)
{
    double s[2 * kLanes];
    for (size_t j = 0; j < kLanes; ++j) {
        const double f = (std::popcount(j & z) & 1) ? -0.0 : 0.0;
        s[2 * j] = f;
        s[2 * j + 1] = f;
    }
    return _mm512_loadu_pd(s);
}
EFTVQA_SIMD_TARGET inline SignVec
signsXor(SignVec a, SignVec b)
{
    return _mm512_xor_pd(a, b);
}
EFTVQA_SIMD_TARGET inline CVec
vsignApply(CVec v, SignVec s)
{
    return _mm512_xor_pd(v, s);
}
/** Split two registers by complex lane parity: @p even takes the even
 *  lanes of a then of b, @p odd the odd ones ([a0,a2,b0,b2] and
 *  [a1,a3,b1,b3]). */
EFTVQA_SIMD_TARGET inline void
vunzip(CVec a, CVec b, CVec &even, CVec &odd)
{
    even = _mm512_permutex2var_pd(
        a, _mm512_set_epi64(13, 12, 9, 8, 5, 4, 1, 0), b);
    odd = _mm512_permutex2var_pd(
        a, _mm512_set_epi64(15, 14, 11, 10, 7, 6, 3, 2), b);
}
/** Inverse of vunzip. */
EFTVQA_SIMD_TARGET inline void
vzip(CVec even, CVec odd, CVec &a, CVec &b)
{
    a = _mm512_permutex2var_pd(
        even, _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0), odd);
    b = _mm512_permutex2var_pd(
        even, _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4), odd);
}
/** The expectation sweep's chain pair: two complex lanes. */
using AccVec = __m256d;
/** acc plus v's low lane pair, then plus its high pair, so each chain
 *  adds its two states in ascending order. */
EFTVQA_SIMD_TARGET inline AccVec
vaccAdd(AccVec acc, CVec v)
{
    acc = _mm256_add_pd(acc, _mm512_maskz_extractf64x4_pd(kAllSlots, v, 0));
    return _mm256_add_pd(acc, _mm512_maskz_extractf64x4_pd(kAllSlots, v, 1));
}

#elif defined(EFTVQA_SIMD_ISA_AVX2)

using CVec = __m256d;
using SignVec = __m256d;

EFTVQA_SIMD_TARGET inline CVec
vload(const cd *p)
{
    return _mm256_loadu_pd(reinterpret_cast<const double *>(p));
}
EFTVQA_SIMD_TARGET inline void
vstore(cd *p, CVec v)
{
    _mm256_storeu_pd(reinterpret_cast<double *>(p), v);
}
EFTVQA_SIMD_TARGET inline CVec
vzero()
{
    return _mm256_setzero_pd();
}
EFTVQA_SIMD_TARGET inline CVec
vadd(CVec a, CVec b)
{
    return _mm256_add_pd(a, b);
}
EFTVQA_SIMD_TARGET inline CVec
vbroadcast(cd c)
{
    return _mm256_setr_pd(c.real(), c.imag(), c.real(), c.imag());
}
EFTVQA_SIMD_TARGET inline CVec
vsetPattern2(cd x, cd y)
{
    return _mm256_setr_pd(x.real(), x.imag(), y.real(), y.imag());
}
EFTVQA_SIMD_TARGET inline CVec
vcmul(CVec a, CVec b)
{
    // (ar*br - ai*bi, ar*bi + ai*br), the scalar std::complex form.
    const CVec t0 = _mm256_mul_pd(_mm256_movedup_pd(a), b);
    const CVec t1 = _mm256_mul_pd(_mm256_permute_pd(a, 0xF),
                                  _mm256_permute_pd(b, 0x5));
    return _mm256_addsub_pd(t0, t1);
}
EFTVQA_SIMD_TARGET inline CVec
vconj(CVec v)
{
    return _mm256_xor_pd(v, _mm256_setr_pd(0.0, -0.0, 0.0, -0.0));
}
EFTVQA_SIMD_TARGET inline CVec
vscale(CVec v, double s)
{
    return _mm256_mul_pd(v, _mm256_set1_pd(s));
}
/** No FMA in the avx2 target: products never contract. */
EFTVQA_SIMD_TARGET inline void
vopaque(CVec &)
{
}
EFTVQA_SIMD_TARGET inline CVec
vnormPairs(CVec v)
{
    const CVec sq = _mm256_mul_pd(v, v);
    return _mm256_add_pd(sq, _mm256_permute_pd(sq, 0x5));
}
EFTVQA_SIMD_TARGET inline CVec
vlanePermuteXor(CVec v, unsigned lo)
{
    return lo ? _mm256_permute2f128_pd(v, v, 1) : v;
}
EFTVQA_SIMD_TARGET inline CVec
vdupPairsEven(CVec v)
{
    return _mm256_permute2f128_pd(v, v, 0x00);
}
EFTVQA_SIMD_TARGET inline CVec
vdupPairsOdd(CVec v)
{
    return _mm256_permute2f128_pd(v, v, 0x11);
}
EFTVQA_SIMD_TARGET inline SignVec
signsAll()
{
    return _mm256_set1_pd(-0.0);
}
EFTVQA_SIMD_TARGET inline SignVec
signsForMask(uint64_t z)
{
    double s[2 * kLanes];
    for (size_t j = 0; j < kLanes; ++j) {
        const double f = (std::popcount(j & z) & 1) ? -0.0 : 0.0;
        s[2 * j] = f;
        s[2 * j + 1] = f;
    }
    return _mm256_loadu_pd(s);
}
EFTVQA_SIMD_TARGET inline SignVec
signsXor(SignVec a, SignVec b)
{
    return _mm256_xor_pd(a, b);
}
EFTVQA_SIMD_TARGET inline CVec
vsignApply(CVec v, SignVec s)
{
    return _mm256_xor_pd(v, s);
}
EFTVQA_SIMD_TARGET inline void
vunzip(CVec a, CVec b, CVec &even, CVec &odd)
{
    even = _mm256_permute2f128_pd(a, b, 0x20);
    odd = _mm256_permute2f128_pd(a, b, 0x31);
}
EFTVQA_SIMD_TARGET inline void
vzip(CVec even, CVec odd, CVec &a, CVec &b)
{
    a = _mm256_permute2f128_pd(even, odd, 0x20);
    b = _mm256_permute2f128_pd(even, odd, 0x31);
}
/** The expectation sweep's chain pair: one register. */
using AccVec = CVec;
EFTVQA_SIMD_TARGET inline AccVec
vaccAdd(AccVec acc, CVec v)
{
    return vadd(acc, v);
}

#endif // per-ISA primitives

/** Load kLanes complex values staged in a scalar buffer. */
EFTVQA_SIMD_TARGET inline CVec
vfromArray(const cd *in)
{
    return vload(in);
}

// ---------------------------------------------------------------- //
// Kernels, written once against the primitives. Each runs over      //
// n_chunks whole vector registers of work.                          //
// ---------------------------------------------------------------- //

/** 2x2 unitary on pair stride >= kLanes: pair index t in chunks. */
EFTVQA_SIMD_TARGET inline void
kernApply1q(cd *data, size_t n_chunks, size_t stride, const Mat2 &u)
{
    const CVec u0 = vbroadcast(u[0]), u1 = vbroadcast(u[1]);
    const CVec u2 = vbroadcast(u[2]), u3 = vbroadcast(u[3]);
    for (size_t c = 0; c < n_chunks; ++c) {
        const size_t t = c * kLanes;
        const size_t i0 = ((t & ~(stride - 1)) << 1) | (t & (stride - 1));
        const CVec a = vload(data + i0);
        const CVec b = vload(data + i0 + stride);
        vstore(data + i0, vadd(vcmul(u0, a), vcmul(u1, b)));
        vstore(data + i0 + stride, vadd(vcmul(u2, a), vcmul(u3, b)));
    }
}

/** 2x2 unitary on stride-1 pairs: each vector holds kLanes/2 whole
 *  (i0, i1) pairs, resolved by in-register pair duplication. */
EFTVQA_SIMD_TARGET inline void
kernApply1qStride1(cd *data, size_t n_chunks, const Mat2 &u)
{
    const CVec uc0 = vsetPattern2(u[0], u[2]);
    const CVec uc1 = vsetPattern2(u[1], u[3]);
    for (size_t c = 0; c < n_chunks; ++c) {
        const CVec v = vload(data + c * kLanes);
        vstore(data + c * kLanes, vadd(vcmul(uc0, vdupPairsEven(v)),
                                       vcmul(uc1, vdupPairsOdd(v))));
    }
}

/** Fused 4x4 unitary, both strides >= kLanes: quarter index t in
 *  chunks. */
EFTVQA_SIMD_TARGET inline void
kernApply2q(cd *data, size_t n_chunks, uint64_t plow, uint64_t phigh,
            uint64_t ma, uint64_t mb, const Mat4 &u)
{
    CVec uv[16];
    for (int k = 0; k < 16; ++k)
        uv[k] = vbroadcast(u[k]);
    for (size_t c = 0; c < n_chunks; ++c) {
        const uint64_t t = c * kLanes;
        const uint64_t i00 = insertZeroBit(insertZeroBit(t, plow), phigh);
        const uint64_t i01 = i00 | mb;
        const uint64_t i10 = i00 | ma;
        const uint64_t i11 = i00 | ma | mb;
        const CVec v0 = vload(data + i00);
        const CVec v1 = vload(data + i01);
        const CVec v2 = vload(data + i10);
        const CVec v3 = vload(data + i11);
        vstore(data + i00,
               vadd(vadd(vadd(vcmul(uv[0], v0), vcmul(uv[1], v1)),
                         vcmul(uv[2], v2)),
                    vcmul(uv[3], v3)));
        vstore(data + i01,
               vadd(vadd(vadd(vcmul(uv[4], v0), vcmul(uv[5], v1)),
                         vcmul(uv[6], v2)),
                    vcmul(uv[7], v3)));
        vstore(data + i10,
               vadd(vadd(vadd(vcmul(uv[8], v0), vcmul(uv[9], v1)),
                         vcmul(uv[10], v2)),
                    vcmul(uv[11], v3)));
        vstore(data + i11,
               vadd(vadd(vadd(vcmul(uv[12], v0), vcmul(uv[13], v1)),
                         vcmul(uv[14], v2)),
                    vcmul(uv[15], v3)));
    }
}

/** Fused 4x4 unitary with one qubit on bit 0 and the other at stride
 *  >= kLanes: each vector holds kLanes/2 whole bit-0 pairs, resolved by
 *  in-register pair duplication as in kernApply1qStride1. @p low_is_qb
 *  says bit 0 is the low bit of the 4x4 basis; the sums keep the
 *  scalar basis order. */
EFTVQA_SIMD_TARGET inline void
kernApply2qLowBit(cd *data, size_t n_chunks, uint64_t phigh,
                  bool low_is_qb, const Mat4 &u)
{
    // Basis indices held by the even / odd lanes of the vector with
    // the high bit clear (e0, o0) and set (e1, o1).
    const int o0 = low_is_qb ? 1 : 2;
    const int e1 = low_is_qb ? 2 : 1;
    const int lane_basis[4] = {0, o0, e1, 3};
    CVec p[2][4];
    for (int c = 0; c < 4; ++c) {
        p[0][c] = vsetPattern2(u[lane_basis[0] * 4 + c],
                               u[lane_basis[1] * 4 + c]);
        p[1][c] = vsetPattern2(u[lane_basis[2] * 4 + c],
                               u[lane_basis[3] * 4 + c]);
    }
    const uint64_t mh = uint64_t{1} << phigh;
    for (size_t c = 0; c < n_chunks; ++c) {
        const uint64_t i0 = insertZeroBit(c * kLanes, phigh);
        const CVec v0 = vload(data + i0);
        const CVec v1 = vload(data + (i0 | mh));
        CVec b[4];
        b[0] = vdupPairsEven(v0);
        b[o0] = vdupPairsOdd(v0);
        b[e1] = vdupPairsEven(v1);
        b[3] = vdupPairsOdd(v1);
        for (int k = 0; k < 2; ++k)
            vstore(data + (k ? (i0 | mh) : i0),
                   vadd(vadd(vadd(vcmul(p[k][0], b[0]),
                                  vcmul(p[k][1], b[1])),
                             vcmul(p[k][2], b[2])),
                        vcmul(p[k][3], b[3])));
    }
}

/** Contiguous-mask diagonal table multiply. */
EFTVQA_SIMD_TARGET inline void
kernDiagMask(cd *data, size_t n_chunks, const cd *table, uint64_t mask)
{
    for (size_t c = 0; c < n_chunks; ++c) {
        const size_t i = c * kLanes;
        const CVec t = vload(table + (i & mask));
        vstore(data + i, vcmul(vload(data + i), t));
    }
}

/** Scattered-qubit diagonal table multiply: scalar index gather into
 *  a lane buffer, vector complex multiply. */
EFTVQA_SIMD_TARGET inline void
kernDiagGather(cd *data, size_t n_chunks, const cd *table,
               const uint32_t *qs, size_t nq)
{
    cd buf[kLanes];
    for (size_t c = 0; c < n_chunks; ++c) {
        const size_t i = c * kLanes;
        for (size_t l = 0; l < kLanes; ++l) {
            const uint64_t a = i + l;
            uint64_t idx = 0;
            for (size_t j = 0; j < nq; ++j)
                idx |= ((a >> qs[j]) & 1) << j;
            buf[l] = table[idx];
        }
        vstore(data + i, vcmul(vload(data + i), vfromArray(buf)));
    }
}

/** Xor-mask permutation with f < kLanes: every chunk self-permutes. */
EFTVQA_SIMD_TARGET inline void
kernXorMaskSelf(cd *data, size_t n_chunks, unsigned f_lo)
{
    for (size_t c = 0; c < n_chunks; ++c)
        vstore(data + c * kLanes,
               vlanePermuteXor(vload(data + c * kLanes), f_lo));
}

/** Xor-mask permutation with high bits: swap chunk pairs, permuting
 *  lanes by the low bits. Visits each pair from its lower chunk. */
EFTVQA_SIMD_TARGET inline void
kernXorMaskPairs(cd *data, size_t n_chunks, uint64_t f_hi, unsigned f_lo)
{
    for (size_t c = 0; c < n_chunks; ++c) {
        const uint64_t i = c * kLanes;
        const uint64_t j = i ^ f_hi;
        if (i >= j)
            continue;
        const CVec a = vload(data + i);
        const CVec b = vload(data + j);
        vstore(data + i, vlanePermuteXor(b, f_lo));
        vstore(data + j, vlanePermuteXor(a, f_lo));
    }
}

/** Real scale of a contiguous run of whole chunks (channel damping
 *  factors). Tails stay in the non-target wrapper: scalar FP inside a
 *  target function could FMA-contract and break bit-identity. */
EFTVQA_SIMD_TARGET inline void
kernScaleRun(cd *p, size_t n_chunks, double s)
{
    for (size_t c = 0; c < n_chunks; ++c)
        vstore(p + c * kLanes, vscale(vload(p + c * kLanes), s));
}

/** s * x + t * y with both products kept out of FMA contraction. */
EFTVQA_SIMD_TARGET inline CVec
vlinear(CVec x, double s, CVec y, double t)
{
    CVec sx = vscale(x, s);
    CVec ty = vscale(y, t);
    vopaque(sx);
    vopaque(ty);
    return vadd(sx, ty);
}

/** Gate-free one-qubit density-matrix channel (see
 *  DensityMatrix::applyChannel1q) on a d x d matrix, qubit stride >=
 *  kLanes: k = {aa, ad, da, dd, bb, bc, cb, cc}. */
EFTVQA_SIMD_TARGET inline void
kernChannel1q(cd *data, size_t d, size_t stride, const double *k)
{
    for (size_t i = 0; i < d; ++i) {
        if (i & stride)
            continue;
        cd *row0 = data + i * d;
        cd *row1 = row0 + stride * d;
        for (size_t jhi = 0; jhi < d; jhi += 2 * stride) {
            for (size_t j = jhi; j < jhi + stride; j += kLanes) {
                const CVec a = vload(row0 + j);
                const CVec b = vload(row0 + j + stride);
                const CVec c = vload(row1 + j);
                const CVec e = vload(row1 + j + stride);
                vstore(row0 + j, vlinear(a, k[0], e, k[1]));
                vstore(row1 + j + stride, vlinear(a, k[2], e, k[3]));
                vstore(row0 + j + stride, vlinear(b, k[4], c, k[5]));
                vstore(row1 + j, vlinear(b, k[6], c, k[7]));
            }
        }
    }
}

/** A DmMap copied next to the kernel: a superoperator broadcast to
 *  registers, a channel's 8 block entries by value. */
struct VDmMap
{
    CVec u[16];
    double k[8];
};

EFTVQA_SIMD_TARGET inline void
vdmMapInit(VDmMap &out, const DmMap &map)
{
    if (map.kind == DmMap::Kind::Superop)
        for (int k = 0; k < 16; ++k)
            out.u[k] = vbroadcast(map.superop[k]);
    else if (map.kind == DmMap::Kind::Channel)
        channelEntries(map.superop, out.k);
}

/**
 * One qubit's map of kind K on kLanes groups, v[s][s2] = (ket pair
 * state s, bra pair state s2), the qubit on pair-state bit Bit (2: qa,
 * 1: qb).
 * Each quadruple differing only in that qubit's ket and bra bits takes
 * the arithmetic of the standalone kernels: kernApply2q's for a
 * superoperator, kernChannel1q's for a channel.
 */
template <DmMap::Kind K, int Bit>
EFTVQA_SIMD_TARGET inline void
vgroupMap(CVec (&v)[4][4], const VDmMap &map)
{
    constexpr int o = Bit ^ 3;
    if constexpr (K == DmMap::Kind::Superop) {
        const CVec *u = map.u;
#pragma GCC unroll 2
        for (int x = 0; x <= o; x += o)
#pragma GCC unroll 2
            for (int y = 0; y <= o; y += o) {
                CVec *e[4] = {&v[x][y], &v[x][y | Bit], &v[x | Bit][y],
                              &v[x | Bit][y | Bit]};
                const CVec in[4] = {*e[0], *e[1], *e[2], *e[3]};
#pragma GCC unroll 4
                for (int r = 0; r < 4; ++r)
                    *e[r] = vadd(vadd(vadd(vcmul(u[4 * r], in[0]),
                                           vcmul(u[4 * r + 1], in[1])),
                                      vcmul(u[4 * r + 2], in[2])),
                                 vcmul(u[4 * r + 3], in[3]));
            }
    } else if constexpr (K == DmMap::Kind::Channel) {
        const double *k = map.k;
#pragma GCC unroll 2
        for (int x = 0; x <= o; x += o)
#pragma GCC unroll 2
            for (int y = 0; y <= o; y += o) {
                const CVec a = v[x][y], b = v[x][y | Bit];
                const CVec c = v[x | Bit][y], e = v[x | Bit][y | Bit];
                v[x][y] = vlinear(a, k[0], e, k[1]);
                v[x | Bit][y | Bit] = vlinear(a, k[2], e, k[3]);
                v[x][y | Bit] = vlinear(b, k[4], c, k[5]);
                v[x | Bit][y] = vlinear(b, k[6], c, k[7]);
            }
    }
}

/**
 * The pair pass on kLanes groups (see DensityMatrix::applyPairPass),
 * first half: qa's map, then qb's map, on v in place; returns mix *
 * (the group's trace), the depolarizing mix's diagonal term (zero
 * without Mix).
 */
template <bool Mix, DmMap::Kind KA, DmMap::Kind KB>
EFTVQA_SIMD_TARGET inline CVec
vpairMaps(CVec (&v)[4][4], const VDmMap &ma, const VDmMap &mb, double mix)
{
    vgroupMap<KA, 2>(v, ma);
    vgroupMap<KB, 1>(v, mb);
    if constexpr (!Mix)
        return vzero();
    CVec m =
        vscale(vadd(vadd(vadd(v[0][0], v[1][1]), v[2][2]), v[3][3]), mix);
    vopaque(m);
    return m;
}

/**
 * Second half: output entry (s, s2) of the mapped group v,
 * +-v[perm s][perm s2] (CZ signs the entries where exactly one of s, s2
 * is 11), then with Mix keep * that, plus m on the diagonal — each
 * entry with the scalar loop's arithmetic in its order.
 */
template <GateType G, bool Mix>
EFTVQA_SIMD_TARGET inline CVec
vpairOut(const CVec (&v)[4][4], int s, int s2, CVec m, double keep)
{
    CVec x = v[pairPerm(G, s)][pairPerm(G, s2)];
    if (G == GateType::CZ && (s == 3) != (s2 == 3))
        x = vsignApply(x, signsAll());
    if constexpr (Mix) {
        x = vscale(x, keep);
        if (s == s2) {
            vopaque(x);
            x = vadd(x, m);
        }
    }
    return x;
}

/**
 * The pair pass over a d x d matrix on qubits qa != qb, both < log2 d.
 * With the low qubit at stride >= kLanes each register holds one entry
 * of kLanes adjacent column groups. With the low qubit on bit 0 (and
 * the other at stride >= kLanes) a register holds kLanes/2 groups'
 * bit-0 pairs; vunzip turns two such registers into one register per
 * bit-0 value with one group per lane, and vzip turns them back.
 * The caller checks those shapes and d >= 4 * kLanes.
 */
template <GateType G, bool Mix, DmMap::Kind KA, DmMap::Kind KB>
EFTVQA_SIMD_TARGET inline void
kernPairPass(cd *data, size_t d, size_t qa, size_t qb, const DmMap &ga,
             const DmMap &gb, double keep, double mix)
{
    VDmMap ma, mb;
    vdmMapInit(ma, ga);
    vdmMapInit(mb, gb);
    const uint64_t lo = qa < qb ? qa : qb;
    const uint64_t hi = qa < qb ? qb : qa;
    const uint64_t sb[4] = {0, uint64_t{1} << qb, uint64_t{1} << qa,
                            (uint64_t{1} << qa) | (uint64_t{1} << qb)};
    // Bit-0 pairs: pair-state bits of the bit-0 qubit (l) and the
    // other (h), and the column offset of the other's bra bit.
    const int l = qb == 0 ? 1 : 2;
    const int h = l ^ 3;
    const uint64_t mh = uint64_t{1} << hi;
    const size_t quarter = d / 4;
    for (size_t ti = 0; ti < quarter; ++ti) {
        const uint64_t ib = insertZeroBit(insertZeroBit(ti, lo), hi);
        cd *r[4];
        for (int s = 0; s < 4; ++s)
            r[s] = data + (ib | sb[s]) * d;
        CVec v[4][4];
        if (lo != 0) {
            for (size_t tj = 0; tj < quarter; tj += kLanes) {
                const uint64_t jb =
                    insertZeroBit(insertZeroBit(tj, lo), hi);
#pragma GCC unroll 4
                for (int s = 0; s < 4; ++s)
#pragma GCC unroll 4
                    for (int s2 = 0; s2 < 4; ++s2)
                        v[s][s2] = vload(r[s] + (jb | sb[s2]));
                const CVec m = vpairMaps<Mix, KA, KB>(v, ma, mb, mix);
#pragma GCC unroll 4
                for (int s = 0; s < 4; ++s)
#pragma GCC unroll 4
                    for (int s2 = 0; s2 < 4; ++s2)
                        vstore(r[s] + (jb | sb[s2]),
                               vpairOut<G, Mix>(v, s, s2, m, keep));
            }
            continue;
        }
        for (size_t c = 0; c < quarter / kLanes; ++c) {
            const uint64_t ja = insertZeroBit(2 * c * kLanes, hi);
            const uint64_t jb = insertZeroBit((2 * c + 1) * kLanes, hi);
#pragma GCC unroll 4
            for (int s = 0; s < 4; ++s)
#pragma GCC unroll 2
                for (int x = 0; x < 2; ++x) {
                    const uint64_t off = x ? mh : 0;
                    vunzip(vload(r[s] + (ja | off)),
                           vload(r[s] + (jb | off)), v[s][x * h],
                           v[s][x * h | l]);
                }
            const CVec m = vpairMaps<Mix, KA, KB>(v, ma, mb, mix);
#pragma GCC unroll 4
            for (int s = 0; s < 4; ++s)
#pragma GCC unroll 2
                for (int x = 0; x < 2; ++x) {
                    const uint64_t off = x ? mh : 0;
                    CVec a, b;
                    vzip(vpairOut<G, Mix>(v, s, x * h, m, keep),
                         vpairOut<G, Mix>(v, s, x * h | l, m, keep), a, b);
                    vstore(r[s] + (ja | off), a);
                    vstore(r[s] + (jb | off), b);
                }
        }
    }
}

// ------------------------- sweep kernels ------------------------- //
// The expectation sweep (sim/lane_sweep.hpp) runs per X-mask group:  //
// the group's band is filled once into scratch, then each term runs //
// kernSweepBlock over it. Signs are mask-parity sign-flip vectors:  //
// per slice the within-register pattern (lane j flips on            //
// parity(j & z)) or its flip, picked per register step by one       //
// scalar popcount of the step's within-slice offset.                //

/** Statevector band over [i0, i0 + n): conj(a_{i^xm}) a_i, or
 *  vnormPairs(a_i) when xm = 0. */
EFTVQA_SIMD_TARGET inline void
kernBandSv(const cd *data, uint64_t i0, size_t n, uint64_t xm, cd *out)
{
    if (xm == 0) {
        for (size_t j = 0; j < n; j += kLanes)
            vstore(out + j, vnormPairs(vload(data + i0 + j)));
        return;
    }
    const uint64_t xm_hi = xm & ~uint64_t{kLanes - 1};
    const auto xm_lo = static_cast<unsigned>(xm & (kLanes - 1));
    for (size_t j = 0; j < n; j += kLanes) {
        const uint64_t i = i0 + j;
        CVec pv = vload(data + (i ^ xm_hi));
        if (xm_lo)
            pv = vlanePermuteXor(pv, xm_lo);
        vstore(out + j, vcmul(vconj(pv), vload(data + i)));
    }
}

/** A chain pair from its kSweepLanes scratch slots, and back (AccVec
 *  is one AVX register on both ISAs). */
EFTVQA_SIMD_TARGET inline AccVec
vaccLoad(const cd *p)
{
    return _mm256_loadu_pd(reinterpret_cast<const double *>(p));
}
EFTVQA_SIMD_TARGET inline void
vaccStore(cd *p, AccVec a)
{
    _mm256_storeu_pd(reinterpret_cast<double *>(p), a);
}

/**
 * One scratch block of NS interleaved slices for one term. band holds
 * NS rows of @p steps registers, @p stride states apart; row r is slice
 * r (of @p len states) from within-slice offset @p off. acc holds the
 * NS chain pairs of running sums (kSweepLanes states each), zeroed
 * first when @p first. vaccAdd adds each register's states to its
 * row's pair in ascending order, so chain j adds states j, j + 2, ...
 */
template <size_t NS>
EFTVQA_SIMD_TARGET inline void
kernSweepBlock(const cd *band, size_t stride, size_t steps, uint64_t off,
               uint64_t len, uint64_t z, cd *acc, bool first)
{
    static_assert(sizeof(AccVec) == kSweepLanes * sizeof(cd));
    const SignVec pat = signsForMask(z);
    const SignVec flip = signsXor(pat, signsAll());
    SignVec sel[NS][2];
    AccVec a[NS];
    for (size_t r = 0; r < NS; ++r) {
        const bool ps = std::popcount((r * len) & z) & 1;
        sel[r][0] = ps ? flip : pat;
        sel[r][1] = ps ? pat : flip;
        a[r] = first ? AccVec{} : vaccLoad(acc + r * kSweepLanes);
    }
    for (size_t k = 0; k < steps; ++k) {
        const size_t pk =
            std::popcount((off + k * kLanes) & z) & 1;
        for (size_t r = 0; r < NS; ++r)
            a[r] = vaccAdd(a[r], vsignApply(vload(band + r * stride +
                                                  k * kLanes),
                                            sel[r][pk]));
    }
    for (size_t r = 0; r < NS; ++r)
        vaccStore(acc + r * kSweepLanes, a[r]);
}

#endif // EFTVQA_SIMD_VECTOR

} // namespace detail

// ---------------------------------------------------------------- //
// Dispatch wrappers. Each returns true when the vector kernel ran   //
// (caller skips its scalar loop) and false when SIMD is compiled    //
// out, pinned off, unsupported at runtime, or the shape is too      //
// small/misaligned for the lane width.                              //
// ---------------------------------------------------------------- //

/** 2x2 unitary over [data, data + span), pair stride 1 << q. */
inline bool
tryApply1q(cd *data, size_t span, size_t stride, const Mat2 &u)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (!enabled() || span < 2 * kLanes)
        return false;
    if (stride >= kLanes) {
        detail::kernApply1q(data, (span / 2) / kLanes, stride, u);
        return true;
    }
    if (stride == 1) {
        detail::kernApply1qStride1(data, span / kLanes, u);
        return true;
    }
    return false; // 1 < stride < kLanes: scalar path
#else
    (void)data;
    (void)span;
    (void)stride;
    (void)u;
    return false;
#endif
}

/** Fused 4x4 unitary over [data, data + span) on qubit bits qa, qb
 *  (qa the high bit of the 4x4 basis). */
inline bool
tryApply2q(cd *data, size_t span, size_t qa, size_t qb, const Mat4 &u)
{
#if defined(EFTVQA_SIMD_VECTOR)
    const size_t plow = qa < qb ? qa : qb;
    const size_t phigh = qa < qb ? qb : qa;
    if (!enabled() || span < 4 * kLanes)
        return false;
    if ((size_t{1} << plow) < kLanes) {
        // Bit 0 pairs sit inside one vector; the other qubit must
        // still stride whole vectors.
        if (plow != 0 || (size_t{1} << phigh) < kLanes)
            return false;
        detail::kernApply2qLowBit(data, (span / 2) / kLanes, phigh,
                                  qb == 0, u);
        return true;
    }
    const uint64_t ma = uint64_t{1} << qa;
    const uint64_t mb = uint64_t{1} << qb;
    detail::kernApply2q(data, (span / 4) / kLanes, plow, phigh, ma, mb, u);
    return true;
#else
    (void)data;
    (void)span;
    (void)qa;
    (void)qb;
    (void)u;
    return false;
#endif
}

/** Contiguous-mask diagonal table multiply over [data, data + span):
 *  data[i] *= table[i & mask]. */
inline bool
tryDiagMask(cd *data, size_t span, const cd *table, uint64_t mask)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (!enabled() || span < kLanes || mask + 1 < kLanes)
        return false;
    detail::kernDiagMask(data, span / kLanes, table, mask);
    return true;
#else
    (void)data;
    (void)span;
    (void)table;
    (void)mask;
    return false;
#endif
}

/** Scattered-qubit diagonal table multiply over [data, data + span). */
inline bool
tryDiagGather(cd *data, size_t span, const cd *table, const uint32_t *qs,
              size_t nq)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (!enabled() || span < kLanes)
        return false;
    detail::kernDiagGather(data, span / kLanes, table, qs, nq);
    return true;
#else
    (void)data;
    (void)span;
    (void)table;
    (void)qs;
    (void)nq;
    return false;
#endif
}

/** Xor-mask basis permutation |i> -> |i ^ f> over [data, data+span). */
inline bool
tryXorMask(cd *data, size_t span, uint64_t f)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (!enabled() || span < kLanes || f == 0 || f >= span)
        return false;
    const uint64_t f_hi = f & ~uint64_t{kLanes - 1};
    const auto f_lo = static_cast<unsigned>(f & (kLanes - 1));
    if (f_hi == 0)
        detail::kernXorMaskSelf(data, span / kLanes, f_lo);
    else
        detail::kernXorMaskPairs(data, span / kLanes, f_hi, f_lo);
    return true;
#else
    (void)data;
    (void)span;
    (void)f;
    return false;
#endif
}

/** p[i] *= s over a run; vector when it fits, scalar otherwise
 *  (always executes — callers replace their loop entirely). */
inline void
scaleRun(cd *p, size_t n, double s)
{
    size_t i = 0;
#if defined(EFTVQA_SIMD_VECTOR)
    if (enabled() && n >= kLanes) {
        detail::kernScaleRun(p, n / kLanes, s);
        i = (n / kLanes) * kLanes;
    }
#endif
    for (; i < n; ++i)
        p[i] *= s;
}

/** p[i] = 0 over a run. */
inline void
zeroRun(cd *p, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        p[i] = cd{0.0, 0.0};
}

/** Gate-free one-qubit channel over a d x d density matrix, qubit
 *  stride 1 << q; k = {aa, ad, da, dd, bb, bc, cb, cc} (populations,
 *  then coherences). */
inline bool
tryChannel1q(cd *data, size_t d, size_t stride, const double *k)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (!enabled() || stride < kLanes)
        return false;
    detail::kernChannel1q(data, d, stride, k);
    return true;
#else
    (void)data;
    (void)d;
    (void)stride;
    (void)k;
    return false;
#endif
}

/**
 * Calls f.template operator()<G, Mix, KA, KB>() with the pair pass's
 * gate @p g (CX, CZ or Swap, which the caller has checked), whether it
 * mixes (@p lambda != 0) and the kinds of @p ma and @p mb as template
 * arguments, so every kernel instantiation is straight-line code.
 */
template <class F>
inline void
dispatchPairPass(GateType g, double lambda, const DmMap &ma,
                 const DmMap &mb, F &&f)
{
    using K = DmMap::Kind;
    const auto kb = [&]<GateType G, bool Mix, K KA>() {
        switch (mb.kind) {
          case K::None:
            return f.template operator()<G, Mix, KA, K::None>();
          case K::Channel:
            return f.template operator()<G, Mix, KA, K::Channel>();
          case K::Superop:
            return f.template operator()<G, Mix, KA, K::Superop>();
        }
    };
    const auto ka = [&]<GateType G, bool Mix>() {
        switch (ma.kind) {
          case K::None:
            return kb.template operator()<G, Mix, K::None>();
          case K::Channel:
            return kb.template operator()<G, Mix, K::Channel>();
          case K::Superop:
            return kb.template operator()<G, Mix, K::Superop>();
        }
    };
    const auto mix = [&]<GateType G>() {
        if (lambda == 0.0)
            ka.template operator()<G, false>();
        else
            ka.template operator()<G, true>();
    };
    switch (g) {
      case GateType::CX:
        return mix.template operator()<GateType::CX>();
      case GateType::Swap:
        return mix.template operator()<GateType::Swap>();
      default:
        return mix.template operator()<GateType::CZ>();
    }
}

/**
 * The density-matrix pair pass over a d x d matrix (see
 * DensityMatrix::applyPairPass): @p ma on qa, @p mb on qb, then CX(qa,
 * qb), CZ or Swap @p g mixed with weight @p lambda. Runs when the pair's
 * low qubit has stride >= kLanes, or sits on bit 0 with the other at
 * stride >= kLanes; the caller has checked the qubits and the gate.
 */
inline bool
tryPairPass(cd *data, size_t d, GateType g, size_t qa, size_t qb,
            double lambda, const DmMap &ma, const DmMap &mb)
{
#if defined(EFTVQA_SIMD_VECTOR)
    const size_t lo = qa < qb ? qa : qb;
    const size_t hi = qa < qb ? qb : qa;
    if (!enabled() || d < 4 * kLanes ||
        ((size_t{1} << lo) < kLanes &&
         (lo != 0 || (size_t{1} << hi) < kLanes)))
        return false;
    dispatchPairPass(
        g, lambda, ma, mb,
        [&]<GateType G, bool Mix, DmMap::Kind KA, DmMap::Kind KB>() {
            detail::kernPairPass<G, Mix, KA, KB>(
                data, d, qa, qb, ma, mb, Mix ? 1.0 - lambda : 1.0,
                Mix ? 0.25 * lambda : 0.0);
        });
    return true;
#else
    (void)data;
    (void)d;
    (void)g;
    (void)qa;
    (void)qb;
    (void)lambda;
    (void)ma;
    (void)mb;
    return false;
#endif
}

/**
 * Statevector expectation band over [i0, i0 + n) for X-mask @p xm (see
 * sim/lane_sweep.hpp): conj(a_{i^xm}) a_i, or |a_i|^2 in both slots
 * when xm = 0. The vector form runs when the lanes are on and the range
 * is whole registers; both forms write the same bits.
 */
inline void
bandSv(const cd *data, uint64_t i0, size_t n, uint64_t xm, cd *out)
{
#if defined(EFTVQA_SIMD_VECTOR)
    if (enabled() && (i0 | n) % kLanes == 0) {
        detail::kernBandSv(data, i0, n, xm, out);
        return;
    }
#endif
    if (xm == 0) {
        for (size_t j = 0; j < n; ++j) {
            const double p = std::norm(data[i0 + j]);
            out[j] = cd{p, p};
        }
        return;
    }
    for (size_t j = 0; j < n; ++j) {
        const uint64_t i = i0 + j;
        out[j] = std::conj(data[i ^ xm]) * data[i];
    }
}

} // namespace simd
} // namespace eftvqa

#endif // EFTVQA_SIM_SIMD_HPP
