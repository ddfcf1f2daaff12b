/**
 * @file
 * Internal expectation sweep shared by the dense simulators'
 * expectationBatch kernels: one pass per X-mask group, on the calling
 * thread. Not part of the public API.
 *
 * Terms sharing an X-mask x read the same per-basis-state weight
 * w_i ("the band": conj(psi[i^x]) psi[i] on a statevector, rho[i, i^x]
 * on a density matrix). Per group the backend fills the band once into
 * an aligned per-thread scratch, and each term then runs one signed
 * accumulation sum_i (-1)^{parity(i & z)} w_i over it.
 *
 * Summation order (the determinism contract). A sweep of dim basis
 * states runs S fixed slices of len = dim / S states each, S =
 * simd::kSweepSlices (8) from 32 states and S = 1 below, and two lane
 * chains per slice (simd::kSweepLanes, AVX2's register width). Chain j
 * of slice s sums the states s len + j, s len + j + 2, ... in
 * ascending order from +0.0; a slice adds chain 1 to chain 0, and the
 * slices are added in ascending slice order onto +0.0. The order
 * depends only on dim: not on the lane width of the build, the SIMD
 * mode, the scratch blocking or the thread, so every build returns the
 * same bits. AVX2 runs a chain pair as one register, AVX-512 adds each
 * register's two lane pairs into one (simd::detail::vaccAdd), and the
 * scalar path keeps the pair in plain doubles.
 */

#ifndef EFTVQA_SIM_LANE_SWEEP_HPP
#define EFTVQA_SIM_LANE_SWEEP_HPP

#include <algorithm>
#include <bit>
#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "pauli/hamiltonian.hpp"
#include "sim/simd.hpp"

namespace eftvqa {
namespace detail {

using cd = std::complex<double>;

/**
 * A Hamiltonian's X-mask groups, flattened: group g owns the planned
 * terms [begin[g], begin[g + 1]). Memoized per Hamiltonian content hash
 * (GA and shot loops evaluate the same Hamiltonian thousands of times).
 * The plan depends only on the Hamiltonian, not on the backend or
 * register size, so one cache serves both dense simulators.
 */
struct SweepPlan
{
    std::vector<uint64_t> x;     ///< X-mask per group
    std::vector<size_t> begin;   ///< group offsets, groups() + 1 of them
    std::vector<uint64_t> z;     ///< Z-mask per planned term
    std::vector<size_t> term;    ///< Hamiltonian term slot per planned term
    std::vector<cd> phase;       ///< i^e per planned term
    size_t max_group = 0;        ///< largest group's term count

    size_t groups() const { return x.size(); }
};

/** Thread-safe memoized plan; the shared pointer keeps a plan alive
 *  through a concurrent eviction. */
std::shared_ptr<const SweepPlan> sweepPlan(const Hamiltonian &h);

/** Cache observability for tests/bench (process-wide counters). */
uint64_t sweepPlanCacheHits();
uint64_t sweepPlanCacheMisses();

/** The calling thread's sweep scratch (grow-only): the band block,
 *  the running chains and one group's slice sums. */
struct SweepScratch
{
    simd::AmpVector band;
    simd::AmpVector acc;
    std::vector<cd> sums;
};
SweepScratch &sweepScratch();

/** Geometry of one sweep (see the file comment). */
struct SweepShape
{
    size_t slices; ///< S
    size_t len;    ///< states per slice
    size_t block;  ///< states per slice per scratch block
};

inline SweepShape
sweepShape(size_t dim)
{
    // From 32 states every slice holds whole registers of any lane
    // width (4 states on AVX-512).
    static_assert((32 / simd::kSweepSlices) % simd::kLanes == 0);
    SweepShape s;
    s.slices = dim >= 32 ? simd::kSweepSlices : 1;
    s.len = dim / s.slices;
    s.block = std::min(s.len, simd::kSweepBlockStates / s.slices);
    return s;
}

/** x with its sign bit flipped when @p neg is 1 — an exact negation,
 *  branch-free. */
inline double
negateIf(double x, uint64_t neg)
{
    return std::bit_cast<double>(std::bit_cast<uint64_t>(x) ^ (neg << 63));
}

/*
 * Lanes::block<NS>(band, stride, n, off, len, z, acc, first) runs one
 * block of NS interleaved slices for one term. band holds NS rows of
 * @p n states, @p stride apart; row r is slice r (of @p len states),
 * starting at within-slice offset @p off. acc holds the NS chain pairs
 * of running sums (zeroed first when @p first).
 */

/** Scalar lanes: each chain pair in plain doubles. */
struct ScalarLanes
{
    template <size_t NS>
    static void
    block(const cd *band, size_t stride, size_t n, uint64_t off,
          uint64_t len, uint64_t z, cd *acc, bool first)
    {
        static_assert(simd::kSweepLanes == 2);
        double re[NS][2], im[NS][2];
        uint64_t ps[NS];
        for (size_t r = 0; r < NS; ++r) {
            ps[r] = std::popcount((r * len) & z) & 1;
            for (size_t c = 0; c < 2; ++c) {
                re[r][c] = first ? 0.0 : acc[2 * r + c].real();
                im[r][c] = first ? 0.0 : acc[2 * r + c].imag();
            }
        }
        // One popcount per pair: state 2k + 1 takes the sign of state
        // 2k, flipped by bit 0 of z.
        const uint64_t z0 = z & 1;
        for (size_t k = 0; k < n / 2; ++k) {
            const uint64_t pk = std::popcount((off + 2 * k) & z) & 1;
            for (size_t r = 0; r < NS; ++r) {
                const cd *w = band + r * stride + 2 * k;
                const uint64_t s = ps[r] ^ pk;
                re[r][0] += negateIf(w[0].real(), s);
                im[r][0] += negateIf(w[0].imag(), s);
                re[r][1] += negateIf(w[1].real(), s ^ z0);
                im[r][1] += negateIf(w[1].imag(), s ^ z0);
            }
        }
        if (n & 1) { // a one-state register (no qubits): state 0, sign +
            re[0][0] += band[0].real();
            im[0][0] += band[0].imag();
        }
        for (size_t r = 0; r < NS; ++r)
            for (size_t c = 0; c < 2; ++c)
                acc[2 * r + c] = cd{re[r][c], im[r][c]};
    }
};

#if defined(EFTVQA_SIMD_VECTOR)
/** Vector lanes: one register of simd::kLanes states per step. */
struct VectorLanes
{
    template <size_t NS>
    static void
    block(const cd *band, size_t stride, size_t n, uint64_t off,
          uint64_t len, uint64_t z, cd *acc, bool first)
    {
        simd::detail::kernSweepBlock<NS>(band, stride, n / simd::kLanes,
                                         off, len, z, acc, first);
    }
};
#endif

/**
 * Every slice of group g: fill the band block by block, run every
 * term's chains, and write slice s's sum for the group's k-th term
 * (chain 0 plus chain 1) to sums[k * slices + s].
 */
template <class Lanes, class Fill>
void
sweepGroup(const SweepPlan &plan, size_t g, const SweepShape &shape,
           Fill &fill, cd *sums)
{
    constexpr size_t P = simd::kSweepLanes;
    const size_t rows = shape.slices;
    const size_t p0 = plan.begin[g];
    const size_t m = plan.begin[g + 1] - p0;
    SweepScratch &scratch = sweepScratch();
    if (scratch.band.size() < rows * shape.block)
        scratch.band.resize(rows * shape.block);
    if (scratch.acc.size() < plan.max_group * rows * P)
        scratch.acc.resize(plan.max_group * rows * P);
    cd *band = scratch.band.data();
    cd *acc = scratch.acc.data();
    const uint64_t xm = plan.x[g];
    for (size_t off = 0; off < shape.len; off += shape.block) {
        if (shape.block == shape.len) // one block: the rows are adjacent
            fill(xm, 0, rows * shape.len, band);
        else
            for (size_t r = 0; r < rows; ++r)
                fill(xm, r * shape.len + off, shape.block,
                     band + r * shape.block);
        // The row count is a template argument, so the chains stay in
        // registers.
        for (size_t k = 0; k < m; ++k) {
            cd *chains = acc + k * rows * P;
            const uint64_t z = plan.z[p0 + k];
            if (rows == 1)
                Lanes::template block<1>(band, shape.block, shape.block,
                                         off, shape.len, z, chains,
                                         off == 0);
            else
                Lanes::template block<simd::kSweepSlices>(
                    band, shape.block, shape.block, off, shape.len, z,
                    chains, off == 0);
        }
    }
    for (size_t k = 0; k < m; ++k)
        for (size_t r = 0; r < rows; ++r) {
            const cd *pair = acc + (k * rows + r) * P;
            sums[k * rows + r] = cd{pair[0].real() + pair[1].real(),
                                    pair[0].imag() + pair[1].imag()};
        }
}

/** Slice sums onto +0.0 in ascending slice order, projected through the
 *  term's phase. */
inline double
finishTerm(const cd *slice_sums, size_t slices, cd phase)
{
    double re = 0.0, im = 0.0;
    for (size_t s = 0; s < slices; ++s) {
        re += slice_sums[s].real();
        im += slice_sums[s].imag();
    }
    return (phase * cd{re, im}).real();
}

template <class Lanes, class Fill>
std::vector<double>
sweepWithLanes(const SweepPlan &plan, size_t n_terms, size_t dim,
               Fill &fill)
{
    std::vector<double> out(n_terms, 0.0);
    const SweepShape shape = sweepShape(dim);
    const size_t S = shape.slices;
    std::vector<cd> &sums = sweepScratch().sums;
    if (sums.size() < plan.max_group * S)
        sums.resize(plan.max_group * S);
    for (size_t g = 0; g < plan.groups(); ++g) {
        sweepGroup<Lanes>(plan, g, shape, fill, sums.data());
        const size_t p0 = plan.begin[g];
        for (size_t p = p0; p < plan.begin[g + 1]; ++p)
            out[plan.term[p]] =
                finishTerm(&sums[(p - p0) * S], S, plan.phase[p]);
    }
    return out;
}

/**
 * Shared expectationBatch entry point of the dense simulators.
 *
 * @p fill (uint64_t xm, uint64_t i0, size_t n, cd *out) writes the band
 *         of X-mask xm for basis states [i0, i0 + n) into out.
 */
template <class Fill>
std::vector<double>
expectationBatchSweep(const Hamiltonian &h, size_t dim, Fill &&fill)
{
    const auto plan = sweepPlan(h);
#if defined(EFTVQA_SIMD_VECTOR)
    if (simd::enabled() && dim >= simd::kLanes)
        return sweepWithLanes<VectorLanes>(*plan, h.nTerms(), dim, fill);
#endif
    return sweepWithLanes<ScalarLanes>(*plan, h.nTerms(), dim, fill);
}

} // namespace detail
} // namespace eftvqa

#endif // EFTVQA_SIM_LANE_SWEEP_HPP
