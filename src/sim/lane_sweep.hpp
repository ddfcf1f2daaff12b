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
 * states runs W lanes (simd::kLanes on the vector path, 1 on the scalar
 * one) and S fixed slices of len = dim / S states each: S = 8 when the
 * vector path has dim >= 16 W, or the scalar path dim >=
 * kParallelGrainAmps, and S = 1 otherwise. Lane j of slice s sums the
 * states s len + j, s len + j + W, ... in ascending order from +0.0;
 * a slice's lanes are then added in ascending lane order, and the
 * slices are added in ascending slice order onto +0.0. The partition
 * depends only on dim and the lane width, never on the scratch
 * blocking, so a value is the same whichever thread computes it. Below
 * the grain the scalar path is one ascending chain per term.
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
sweepShape(size_t dim, bool vec)
{
    SweepShape s;
    const bool sliced = vec ? dim >= simd::kSweepSlices * simd::kLanes * 2
                            : dim >= simd::kParallelGrainAmps;
    s.slices = sliced ? simd::kSweepSlices : 1;
    s.len = dim / s.slices;
    // Registers above the grain fill their band block by block, so the
    // scratch stays at kParallelGrainAmps states per thread.
    s.block = std::min(s.len, simd::kParallelGrainAmps / s.slices);
    return s;
}

/** x with its sign bit flipped when @p neg is 1 — an exact negation,
 *  branch-free. */
inline double
negateIf(double x, uint64_t neg)
{
    return std::bit_cast<double>(std::bit_cast<uint64_t>(x) ^ (neg << 63));
}

/** Scalar lanes (W = 1): the reference the vector lanes mirror. */
struct ScalarLanes
{
    static constexpr size_t kWidth = 1;

    /** One block of NS interleaved slice chains for one term. band
     *  holds NS rows of @p steps states, @p stride apart; row r is
     *  slice r, starting at within-slice offset @p off. acc holds the
     *  NS running sums (zeroed first when @p first). */
    template <size_t NS>
    static void
    block(const cd *band, size_t stride, size_t steps, uint64_t off,
          uint64_t len, uint64_t z, cd *acc, bool first)
    {
        double re[NS], im[NS];
        uint64_t ps[NS];
        for (size_t r = 0; r < NS; ++r) {
            ps[r] = std::popcount((r * len) & z) & 1;
            re[r] = first ? 0.0 : acc[r].real();
            im[r] = first ? 0.0 : acc[r].imag();
        }
        for (size_t k = 0; k < steps; ++k) {
            const uint64_t pk = std::popcount((off + k) & z) & 1;
            for (size_t r = 0; r < NS; ++r) {
                const cd w = band[r * stride + k];
                re[r] += negateIf(w.real(), ps[r] ^ pk);
                im[r] += negateIf(w.imag(), ps[r] ^ pk);
            }
        }
        for (size_t r = 0; r < NS; ++r)
            acc[r] = cd{re[r], im[r]};
    }

    static cd
    laneSum(const cd *acc)
    {
        return acc[0];
    }
};

#if defined(EFTVQA_SIMD_VECTOR)
/** Vector lanes (W = simd::kLanes). */
struct VectorLanes
{
    static constexpr size_t kWidth = simd::kLanes;

    template <size_t NS>
    static void
    block(const cd *band, size_t stride, size_t steps, uint64_t off,
          uint64_t len, uint64_t z, cd *acc, bool first)
    {
        simd::detail::kernSweepBlock<NS>(band, stride, steps, off, len, z,
                                         acc, first);
    }

    static cd
    laneSum(const cd *acc)
    {
        double re = acc[0].real();
        double im = acc[0].imag();
        for (size_t j = 1; j < kWidth; ++j) {
            re += acc[j].real();
            im += acc[j].imag();
        }
        return cd{re, im};
    }
};
#endif

/**
 * Every slice of group g: fill the band block by block, run every
 * term's chains, and write the lane-reduced sum of slice s for the
 * group's k-th term to sums[k * slices + s].
 */
template <class Lanes, class Fill>
void
sweepGroup(const SweepPlan &plan, size_t g, const SweepShape &shape,
           Fill &fill, cd *sums)
{
    constexpr size_t W = Lanes::kWidth;
    const size_t rows = shape.slices;
    const size_t p0 = plan.begin[g];
    const size_t m = plan.begin[g + 1] - p0;
    SweepScratch &scratch = sweepScratch();
    if (scratch.band.size() < rows * shape.block)
        scratch.band.resize(rows * shape.block);
    if (scratch.acc.size() < plan.max_group * rows * W)
        scratch.acc.resize(plan.max_group * rows * W);
    cd *band = scratch.band.data();
    cd *acc = scratch.acc.data();
    const uint64_t xm = plan.x[g];
    for (size_t off = 0; off < shape.len; off += shape.block) {
        if (shape.block == shape.len) // one block: the rows are adjacent
            fill(xm, 0, rows * shape.len, band, W > 1);
        else
            for (size_t r = 0; r < rows; ++r)
                fill(xm, r * shape.len + off, shape.block,
                     band + r * shape.block, W > 1);
        // The row count is a template argument, so the chains stay in
        // registers.
        for (size_t k = 0; k < m; ++k) {
            cd *chains = acc + k * rows * W;
            const uint64_t z = plan.z[p0 + k];
            if (rows == 1)
                Lanes::template block<1>(band, shape.block,
                                         shape.block / W, off, shape.len,
                                         z, chains, off == 0);
            else
                Lanes::template block<simd::kSweepSlices>(
                    band, shape.block, shape.block / W, off, shape.len, z,
                    chains, off == 0);
        }
    }
    for (size_t k = 0; k < m; ++k)
        for (size_t r = 0; r < rows; ++r)
            sums[k * rows + r] = Lanes::laneSum(acc + (k * rows + r) * W);
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
    const SweepShape shape = sweepShape(dim, Lanes::kWidth > 1);
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
 * @p fill (uint64_t xm, uint64_t i0, size_t n, cd *out, bool vec) writes
 *         the band of X-mask xm for basis states [i0, i0 + n) into out;
 *         vec selects the vector-lane form (the sweep took the vector
 *         path: simd::enabled() and dim >= simd::kLanes).
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
