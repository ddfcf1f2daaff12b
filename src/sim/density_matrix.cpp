#include "sim/density_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "pauli/term_groups.hpp"
#include "sim/lane_sweep.hpp"
#include "vqa/fault.hpp"

namespace eftvqa {

namespace {

/** Widest register the dense density operator supports. */
constexpr size_t kMaxDensityMatrixQubits = 13;

/** Validate the register width before the 4^n array allocates. */
size_t
checkedDensityMatrixSize(size_t n_qubits)
{
    if (n_qubits > kMaxDensityMatrixQubits)
        throw std::invalid_argument(
            "DensityMatrix: register too wide (requested " +
            std::to_string(n_qubits) + " qubits, max " +
            std::to_string(kMaxDensityMatrixQubits) + ")");
    return size_t{1} << (2 * n_qubits);
}

} // namespace

DmPassBuilder::DmPassBuilder(size_t n_qubits) : pending_(n_qubits) {}

void
DmPassBuilder::fold(size_t q, const Mat4 &superop, bool carries_gate)
{
    DmMap &p = pending_.at(q);
    const bool active = p.kind != DmMap::Kind::None;
    p.superop = active ? matmul4(superop, p.superop) : superop;
    if (carries_gate || p.kind == DmMap::Kind::Superop)
        p.kind = DmMap::Kind::Superop;
    else
        p.kind = DmMap::Kind::Channel;
}

DmMap
DmPassBuilder::take(size_t q)
{
    return std::exchange(pending_.at(q), DmMap{});
}

void
DmPassBuilder::gate1q(const Gate &g)
{
    if (g.isParameterized())
        throw std::invalid_argument("DmPassBuilder: unbound parameter");
    switch (g.type) {
      case GateType::I:
        return;
      case GateType::Measure:
        fold(g.q0, phaseDampingSuperop(1.0), false);
        return;
      case GateType::Reset:
        fold(g.q0, amplitudeDampingSuperop(1.0), false);
        return;
      default:
        fold(g.q0, unitarySuperop(gateMatrix1q(g.type, g.angle)), true);
        return;
    }
}

void
DmPassBuilder::channel(size_t q, const Mat4 &superop)
{
    fold(q, superop, false);
}

void
DmPassBuilder::gate2q(const Gate &g, double p)
{
    if (!g.isTwoQubit())
        throw std::invalid_argument("DmPassBuilder: not a two-qubit gate");
    if (!(p >= 0.0 && p <= 1.0))
        throw std::invalid_argument("DmPassBuilder: bad depolarizing p");
    DmPass pass;
    pass.kind = DmPass::Kind::Pair;
    pass.gate = g.type;
    pass.q0 = g.q0;
    pass.q1 = g.q1;
    pass.lambda = 16.0 * p / 15.0;
    pass.map[0] = take(g.q0);
    pass.map[1] = take(g.q1);
    passes_.push_back(pass);
}

std::vector<DmPass>
DmPassBuilder::finish()
{
    for (size_t q = 0; q < pending_.size(); ++q) {
        if (pending_[q].kind == DmMap::Kind::None)
            continue;
        DmPass pass;
        pass.q0 = static_cast<uint32_t>(q);
        pass.map[0] = take(q);
        passes_.push_back(pass);
    }
    return std::move(passes_);
}

DensityMatrix::DensityMatrix(size_t n_qubits) : n_(n_qubits)
{
    const size_t size = checkedDensityMatrixSize(n_qubits);
    try {
        // Probe inside the try: an injected bad_alloc takes the same
        // structured ResourceError path a real allocation failure does.
        faultProbe("alloc.backend");
        data_.assign(size, {0.0, 0.0});
    } catch (const std::bad_alloc &) {
        throw ResourceError("DensityMatrix", n_qubits,
                            size * sizeof(std::complex<double>));
    }
    data_[0] = 1.0;
}

void
DensityMatrix::setPureState(const Statevector &psi)
{
    if (psi.nQubits() != n_)
        throw std::invalid_argument("setPureState: width mismatch");
    const size_t d = dim();
    const auto &amps = psi.amplitudes();
    for (size_t i = 0; i < d; ++i)
        for (size_t j = 0; j < d; ++j)
            data_[i * d + j] = amps[i] * std::conj(amps[j]);
}

namespace {

/** Insert a zero bit at position p (bits at and above p shift up). */
uint64_t
insertZeroBit(uint64_t x, uint64_t p)
{
    const uint64_t low = (uint64_t{1} << p) - 1;
    return ((x & ~low) << 1) | (x & low);
}

/**
 * Apply a 4x4 matrix at two global bit positions of the flat vector
 * [v, v + span) (pa indexes the high bit of the 4x4 basis): a
 * superoperator pass on a qubit's (ket, bra) bits.
 */
void
applyMat4AtBits(std::complex<double> *v, size_t span, const Mat4 &m,
                size_t pa, size_t pb)
{
    if (simd::tryApply2q(v, span, pa, pb, m))
        return;
    const uint64_t ma = uint64_t{1} << pa;
    const uint64_t mb = uint64_t{1} << pb;
    const uint64_t plow = std::min(pa, pb);
    const uint64_t phigh = std::max(pa, pb);
    const size_t quarter = span / 4;
    for (size_t t = 0; t < quarter; ++t) {
        const uint64_t i00 = insertZeroBit(insertZeroBit(t, plow), phigh);
        const uint64_t i01 = i00 | mb;
        const uint64_t i10 = i00 | ma;
        const uint64_t i11 = i00 | ma | mb;
        const std::complex<double> v0 = v[i00];
        const std::complex<double> v1 = v[i01];
        const std::complex<double> v2 = v[i10];
        const std::complex<double> v3 = v[i11];
        v[i00] = m[0] * v0 + m[1] * v1 + m[2] * v2 + m[3] * v3;
        v[i01] = m[4] * v0 + m[5] * v1 + m[6] * v2 + m[7] * v3;
        v[i10] = m[8] * v0 + m[9] * v1 + m[10] * v2 + m[11] * v3;
        v[i11] = m[12] * v0 + m[13] * v1 + m[14] * v2 + m[15] * v3;
    }
}

} // namespace

size_t
dmLiveWidth(const DmPass &p, size_t m, size_t n_qubits)
{
    size_t hi = p.q0;
    if (p.kind == DmPass::Kind::Pair)
        hi = std::max<size_t>(hi, p.q1);
    return std::min(n_qubits, std::max(m, hi + 1));
}

void
DensityMatrix::runPasses(const std::vector<DmPass> &passes)
{
    runPassesFrom(n_, passes);
}

void
DensityMatrix::runPassesFromZero(const std::vector<DmPass> &passes)
{
    // Width 0: the block is the single entry 1. Whatever the buffer
    // held past it is overwritten by growLive before anything reads it.
    data_[0] = 1.0;
    runPassesFrom(0, passes);
}

void
DensityMatrix::runPassesFrom(size_t m, const std::vector<DmPass> &passes)
{
    try {
        for (const DmPass &p : passes) {
            // Between passes rho is whole: a cell past its deadline
            // stops here, within one sweep.
            cancelCheckpoint();
            const size_t width = dmLiveWidth(p, m, n_);
            growLive(m, width);
            m = width;
            if (p.kind == DmPass::Kind::Pair)
                applyPairPass(p, m);
            else
                applyMap1q(p.map[0], p.q0, m);
        }
    } catch (...) {
        // The kernels reject a pass before touching rho, so the block
        // is whole: embed it and leave a valid n-qubit matrix.
        growLive(m, n_);
        throw;
    }
    growLive(m, n_);
}

void
DensityMatrix::growLive(size_t m, size_t m2)
{
    if (m2 == m)
        return;
    const size_t d = size_t{1} << m;
    const size_t d2 = size_t{1} << m2;
    std::complex<double> *rho = data_.data();
    const std::complex<double> zero{0.0, 0.0};
    // Row i moves from i * d to i * d2 >= i * d, so walking down from
    // the last row never overwrites a row still to move. Rows d..d2-1
    // and each row's tail past column d are the new, zero entries.
    std::fill(rho + d * d2, rho + d2 * d2, zero);
    for (size_t i = d - 1; i > 0; --i)
        std::copy_backward(rho + i * d, rho + (i + 1) * d, rho + i * d2 + d);
    for (size_t i = 0; i < d; ++i)
        std::fill(rho + i * d2 + d, rho + (i + 1) * d2, zero);
}

void
DensityMatrix::applyMap1q(const DmMap &map, size_t q, size_t width)
{
    if (q >= width)
        throw std::out_of_range("DensityMatrix::applyMap1q: qubit");
    const size_t d = size_t{1} << width;
    if (map.kind == DmMap::Kind::Superop) {
        applyMat4AtBits(data_.data(), d * d, map.superop, width + q, q);
        return;
    }
    if (map.kind != DmMap::Kind::Channel)
        return;
    double k[8];
    channelEntries(map.superop, k);
    const size_t stride = size_t{1} << q;
    if (simd::tryChannel1q(data_.data(), d, stride, k))
        return;
    const auto [aa, ad, da, dd, bb, bc, cb, cc] = k;
    for (size_t i = 0; i < d; ++i) {
        if (i & stride)
            continue;
        std::complex<double> *r0 = &data_[i * d];
        std::complex<double> *r1 = r0 + stride * d;
        for (size_t jhi = 0; jhi < d; jhi += 2 * stride) {
            for (size_t j = jhi; j < jhi + stride; ++j) {
                const std::complex<double> a = r0[j];
                const std::complex<double> b = r0[j + stride];
                const std::complex<double> c = r1[j];
                const std::complex<double> e = r1[j + stride];
                r0[j] = aa * a + ad * e;
                r1[j + stride] = da * a + dd * e;
                r0[j + stride] = bb * b + bc * c;
                r1[j] = cb * b + cc * c;
            }
        }
    }
}

namespace {

/**
 * One in-place pass over the pair's 16-element groups, rows (ket pair
 * states) outer and columns (bra pair states) inner: out[s][s2] =
 * +-in[perm s][perm s2] (CZ signs the elements where exactly one of s,
 * s2 is 11), then, with Mix, keep * out + mix * Tr_pair on the
 * diagonal s == s2. The relabel preserves that diagonal, so the trace
 * reads the pre-gate group.
 */
template <GateType G, bool Mix>
void
pairPass(std::complex<double> *data, size_t d, uint64_t lo, uint64_t hi,
         const uint64_t (&sb)[4], double keep, double mix)
{
    const size_t quarter = d / 4;
    for (size_t ti = 0; ti < quarter; ++ti) {
        const uint64_t ib = insertZeroBit(insertZeroBit(ti, lo), hi);
        std::complex<double> *r[4];
        for (int s = 0; s < 4; ++s)
            r[s] = data + (ib | sb[s]) * d;
        for (size_t tj = 0; tj < quarter; ++tj) {
            const uint64_t jb = insertZeroBit(insertZeroBit(tj, lo), hi);
            std::complex<double> v[4][4];
#pragma GCC unroll 4
            for (int s = 0; s < 4; ++s)
#pragma GCC unroll 4
                for (int s2 = 0; s2 < 4; ++s2)
                    v[s][s2] = r[s][jb | sb[s2]];
            std::complex<double> m;
            if constexpr (Mix)
                m = mix * (v[0][0] + v[1][1] + v[2][2] + v[3][3]);
#pragma GCC unroll 4
            for (int s = 0; s < 4; ++s)
#pragma GCC unroll 4
                for (int s2 = 0; s2 < 4; ++s2) {
                    std::complex<double> w =
                        v[simd::pairPerm(G, s)][simd::pairPerm(G, s2)];
                    if (G == GateType::CZ && (s == 3) != (s2 == 3))
                        w = -w;
                    if constexpr (Mix) {
                        w = keep * w;
                        if (s == s2)
                            w += m;
                    }
                    r[s][jb | sb[s2]] = w;
                }
        }
    }
}

template <GateType G>
void
pairPass(std::complex<double> *data, size_t d, uint64_t lo, uint64_t hi,
         const uint64_t (&sb)[4], double lambda)
{
    if (lambda == 0.0)
        pairPass<G, false>(data, d, lo, hi, sb, 1.0, 0.0);
    else
        pairPass<G, true>(data, d, lo, hi, sb, 1.0 - lambda, 0.25 * lambda);
}

} // namespace

void
DensityMatrix::applyPairPass(const DmPass &p, size_t width)
{
    const size_t qa = p.q0, qb = p.q1;
    if (qa >= width || qb >= width || qa == qb)
        throw std::invalid_argument(
            "DensityMatrix: two-qubit pass needs two distinct qubits");
    if (p.gate != GateType::CX && p.gate != GateType::CZ &&
        p.gate != GateType::Swap)
        throw std::invalid_argument(
            "DensityMatrix: pair pass takes CX, CZ or Swap");
    std::complex<double> *data = data_.data();
    const size_t d = size_t{1} << width;
    if (simd::tryPairPass(data, d, p.gate, qa, qb, p.lambda, p.map[0],
                          p.map[1]))
        return;
    applyMap1q(p.map[0], qa, width);
    applyMap1q(p.map[1], qb, width);
    const uint64_t bit_a = uint64_t{1} << qa;
    const uint64_t bit_b = uint64_t{1} << qb;
    const uint64_t sb[4] = {0, bit_b, bit_a, bit_a | bit_b};
    const uint64_t lo = std::min(qa, qb), hi = std::max(qa, qb);
    switch (p.gate) {
      case GateType::CX:
        return pairPass<GateType::CX>(data, d, lo, hi, sb, p.lambda);
      case GateType::Swap:
        return pairPass<GateType::Swap>(data, d, lo, hi, sb, p.lambda);
      default:
        return pairPass<GateType::CZ>(data, d, lo, hi, sb, p.lambda);
    }
}

double
DensityMatrix::expectation(const PauliString &p) const
{
    if (p.nQubits() != n_)
        throw std::invalid_argument(
            "DensityMatrix::expectation: size mismatch");
    const size_t d = dim();
    std::complex<double> acc = 0.0;
    std::complex<double> amp;
    // Tr(P rho) = sum_i <i| P rho |i> = sum_i amp_i' rho[pi(i), i] with
    // P|j> = amp |pi(j)>; using <i|P = (P|i>)^T row.
    for (uint64_t i = 0; i < d; ++i) {
        const uint64_t j = p.applyToBasis(i, amp);
        acc += amp * data_[i * d + j];
    }
    return acc.real();
}

double
DensityMatrix::expectation(const Hamiltonian &h) const
{
    double energy = 0.0;
    for (const auto &t : h.terms())
        energy += t.coefficient * expectation(t.op);
    return energy;
}

std::vector<double>
DensityMatrix::expectationBatch(const Hamiltonian &h) const
{
    if (h.nQubits() != n_)
        throw std::invalid_argument(
            "DensityMatrix::expectationBatch: size mismatch");
    const size_t d = dim();
    const std::complex<double> *data = data_.data();
    return detail::expectationBatchSweep(
        h, d,
        // Band rho[i, i ^ xm]; the diagonal keeps only Re(rho_ii), all
        // that survives the final real projection (Hermitian Z-type
        // terms have +/-1 phase).
        [data, d](uint64_t xm, uint64_t i0, size_t n,
                  std::complex<double> *out) {
            if (xm == 0) {
                for (size_t j = 0; j < n; ++j) {
                    const uint64_t i = i0 + j;
                    out[j] = {data[i * d + i].real(), 0.0};
                }
                return;
            }
            for (size_t j = 0; j < n; ++j) {
                const uint64_t i = i0 + j;
                out[j] = data[i * d + (i ^ xm)];
            }
        });
}

std::vector<double>
DensityMatrix::diagonalProbabilities() const
{
    const size_t d = dim();
    std::vector<double> probs(d);
    for (uint64_t i = 0; i < d; ++i)
        probs[i] = data_[i * d + i].real();
    return probs;
}

double
DensityMatrix::trace() const
{
    const size_t d = dim();
    std::complex<double> acc = 0.0;
    for (uint64_t i = 0; i < d; ++i)
        acc += data_[i * d + i];
    return acc.real();
}

double
DensityMatrix::purity() const
{
    double acc = 0.0;
    for (const auto &c : data_)
        acc += std::norm(c);
    return acc;
}

double
DensityMatrix::fidelityWithPure(const Statevector &psi) const
{
    if (psi.nQubits() != n_)
        throw std::invalid_argument("fidelityWithPure: width mismatch");
    const size_t d = dim();
    const auto &amps = psi.amplitudes();
    std::complex<double> acc = 0.0;
    for (uint64_t i = 0; i < d; ++i)
        for (uint64_t j = 0; j < d; ++j)
            acc += std::conj(amps[i]) * data_[i * d + j] * amps[j];
    return acc.real();
}

double
DensityMatrix::probabilityOfOne(size_t q) const
{
    const size_t d = dim();
    const uint64_t qmask = uint64_t{1} << q;
    double p1 = 0.0;
    for (uint64_t i = 0; i < d; ++i)
        if (i & qmask)
            p1 += data_[i * d + i].real();
    return p1;
}

} // namespace eftvqa
