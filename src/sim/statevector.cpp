/**
 * @file
 * Statevector gate kernels, the compiled-stream executor and the
 * expectations. Every kernel runs on its caller's thread: the
 * parallelism of a run lives above the simulator, in the cell workers
 * and EstimationEngine::energies()' fan-out.
 */

#include "sim/statevector.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "pauli/term_groups.hpp"
#include "sim/lane_sweep.hpp"
#include "vqa/fault.hpp"

namespace eftvqa {

namespace {

/** Widest register the dense amplitude array supports. */
constexpr size_t kMaxStatevectorQubits = 26;

/** Insert a zero bit at position p (bits at and above p shift up). */
inline uint64_t
insertZeroBit(uint64_t x, uint64_t p)
{
    const uint64_t low = (uint64_t{1} << p) - 1;
    return ((x & ~low) << 1) | (x & low);
}

/** Validate the register width before the amplitude array allocates. */
size_t
checkedStatevectorDim(size_t n_qubits)
{
    if (n_qubits > kMaxStatevectorQubits)
        throw std::invalid_argument(
            "Statevector: register too wide (requested " +
            std::to_string(n_qubits) + " qubits, max " +
            std::to_string(kMaxStatevectorQubits) + ")");
    return size_t{1} << n_qubits;
}

using Cd = std::complex<double>;

} // namespace

Statevector::Statevector(size_t n_qubits) : n_(n_qubits)
{
    const size_t dim = checkedStatevectorDim(n_qubits);
    try {
        // Probe inside the try: an injected bad_alloc takes the same
        // structured ResourceError path a real allocation failure does.
        faultProbe("alloc.backend");
        data_.assign(dim, {0.0, 0.0});
    } catch (const std::bad_alloc &) {
        // Structured resource failure: name the width and the byte
        // request instead of surfacing a bare bad_alloc from deep
        // inside a worker.
        throw ResourceError("Statevector", n_qubits,
                            dim * sizeof(std::complex<double>));
    }
    data_[0] = 1.0;
}

void
Statevector::setZeroState()
{
    std::fill(data_.begin(), data_.end(), std::complex<double>{0.0, 0.0});
    data_[0] = 1.0;
}

// Each gate kernel below tries the SIMD lane kernel first and falls
// back to its scalar loop; the two are bit-identical (see
// sim/simd.hpp).

void
Statevector::applyMatrix1q(const Mat2 &u, size_t q)
{
    // Flattened over the dim/2 amplitude pairs, so the update is one
    // loop regardless of the target qubit's stride.
    Cd *data = data_.data();
    const size_t stride = size_t{1} << q;
    if (simd::tryApply1q(data, data_.size(), stride, u))
        return;
    const size_t half = data_.size() / 2;
    for (size_t t = 0; t < half; ++t) {
        const size_t i0 = ((t & ~(stride - 1)) << 1) | (t & (stride - 1));
        const size_t i1 = i0 + stride;
        const Cd a = data[i0];
        const Cd b = data[i1];
        data[i0] = u[0] * a + u[1] * b;
        data[i1] = u[2] * a + u[3] * b;
    }
}

void
Statevector::applyCX(size_t control, size_t target)
{
    // Iterate only the dim/4 pairs with control = 1, target = 0
    // instead of branching over every basis state.
    const uint64_t cmask = uint64_t{1} << control;
    const uint64_t tmask = uint64_t{1} << target;
    const uint64_t plow = std::min(control, target);
    const uint64_t phigh = std::max(control, target);
    const size_t quarter = data_.size() / 4;
    Cd *data = data_.data();
    for (uint64_t t = 0; t < quarter; ++t) {
        const uint64_t i =
            insertZeroBit(insertZeroBit(t, plow), phigh) | cmask;
        std::swap(data[i], data[i | tmask]);
    }
}

void
Statevector::applyCZ(size_t a, size_t b)
{
    // Only the dim/4 states with both bits set pick up the sign.
    const uint64_t mask = (uint64_t{1} << a) | (uint64_t{1} << b);
    const uint64_t plow = std::min(a, b);
    const uint64_t phigh = std::max(a, b);
    const size_t quarter = data_.size() / 4;
    for (uint64_t t = 0; t < quarter; ++t) {
        const uint64_t i =
            insertZeroBit(insertZeroBit(t, plow), phigh) | mask;
        data_[i] = -data_[i];
    }
}

void
Statevector::applySwap(size_t a, size_t b)
{
    // Only the dim/4 (a=1, b=0) states exchange with their partner.
    const uint64_t am = uint64_t{1} << a;
    const uint64_t bm = uint64_t{1} << b;
    const uint64_t plow = std::min(a, b);
    const uint64_t phigh = std::max(a, b);
    const size_t quarter = data_.size() / 4;
    Cd *data = data_.data();
    for (uint64_t t = 0; t < quarter; ++t) {
        const uint64_t i =
            insertZeroBit(insertZeroBit(t, plow), phigh) | am;
        std::swap(data[i], data[i ^ am ^ bm]);
    }
}

void
Statevector::applyMatrix2q(const Mat4 &u, size_t qa, size_t qb)
{
    Cd *data = data_.data();
    if (simd::tryApply2q(data, data_.size(), qa, qb, u))
        return;
    const uint64_t ma = uint64_t{1} << qa; // high bit of the 4x4 basis
    const uint64_t mb = uint64_t{1} << qb;
    const uint64_t plow = std::min(qa, qb);
    const uint64_t phigh = std::max(qa, qb);
    const size_t quarter = data_.size() / 4;
    for (uint64_t t = 0; t < quarter; ++t) {
        const uint64_t i00 = insertZeroBit(insertZeroBit(t, plow), phigh);
        const uint64_t i01 = i00 | mb;
        const uint64_t i10 = i00 | ma;
        const uint64_t i11 = i00 | ma | mb;
        const Cd v0 = data[i00];
        const Cd v1 = data[i01];
        const Cd v2 = data[i10];
        const Cd v3 = data[i11];
        data[i00] = u[0] * v0 + u[1] * v1 + u[2] * v2 + u[3] * v3;
        data[i01] = u[4] * v0 + u[5] * v1 + u[6] * v2 + u[7] * v3;
        data[i10] = u[8] * v0 + u[9] * v1 + u[10] * v2 + u[11] * v3;
        data[i11] = u[12] * v0 + u[13] * v1 + u[14] * v2 + u[15] * v3;
    }
}

void
Statevector::applyDiagPhase(const DiagPhaseOp &d)
{
    Cd *data = data_.data();
    const size_t dim = data_.size();
    if (d.hasTable()) {
        const Cd *table = d.table.data();
        if (d.contiguous) {
            // Participating qubits are the low bits: the gather is a
            // single mask over the index.
            const uint64_t mask = d.table.size() - 1;
            if (simd::tryDiagMask(data, dim, table, mask))
                return;
            for (uint64_t i = 0; i < dim; ++i)
                data[i] *= table[i & mask];
            return;
        }
        const uint32_t *qs = d.qubits.data();
        const size_t k = d.qubits.size();
        if (simd::tryDiagGather(data, dim, table, qs, k))
            return;
        for (uint64_t i = 0; i < dim; ++i) {
            uint64_t idx = 0;
            for (size_t j = 0; j < k; ++j)
                idx |= ((i >> qs[j]) & 1) << j;
            data[i] *= table[idx];
        }
        return;
    }
    // Too many participating qubits to table: per-qubit factor product.
    for (uint64_t i = 0; i < dim; ++i) {
        Cd phase = d.global;
        for (const auto &[q, r] : d.factors)
            if ((i >> q) & 1)
                phase *= r;
        for (const uint64_t m : d.cz_masks)
            if ((i & m) == m)
                phase = -phase;
        data[i] *= phase;
    }
}

void
Statevector::applyGf2Perm(const Gf2PermOp &p)
{
    const size_t dim = data_.size();
    switch (p.cls) {
      case Gf2PermClass::XorMask:
        // |i> -> |i ^ f> with f < dim.
        if (simd::tryXorMask(data_.data(), dim, p.flips))
            return;
        for (uint64_t i = 0; i < dim; ++i) {
            const uint64_t j = i ^ p.flips;
            if (i < j)
                std::swap(data_[i], data_[j]);
        }
        return;
      case Gf2PermClass::SingleCX:
        applyCX(p.q0, p.q1);
        return;
      case Gf2PermClass::SingleSwap:
        applySwap(p.q0, p.q1);
        return;
      case Gf2PermClass::General:
        break;
    }
    // General affine map: gather through one scratch pass, then adopt
    // the scratch storage (no copy back). The scratch persists per
    // calling thread so repeated runs don't re-allocate a state-sized
    // buffer.
    static thread_local simd::AmpVector scratch;
    scratch.resize(dim);
    std::complex<double> *out = scratch.data();
    const std::complex<double> *in = data_.data();
    const uint64_t f = p.flips;
    const uint64_t *inv = p.inv_rows.data();
    const size_t nb = p.inv_rows.size();
    for (uint64_t y = 0; y < dim; ++y) {
        const uint64_t z = y ^ f;
        uint64_t x = 0;
        for (size_t b = 0; b < nb; ++b)
            x |= static_cast<uint64_t>(std::popcount(z & inv[b]) & 1)
                 << b;
        out[y] = in[x];
    }
    data_.swap(scratch);
}

void
Statevector::applyGate(const Gate &g)
{
    if (g.isParameterized())
        throw std::invalid_argument(
            "Statevector::applyGate: unbound parameter");
    switch (g.type) {
      case GateType::I:
        return;
      case GateType::CX:
        applyCX(g.q0, g.q1);
        return;
      case GateType::CZ:
        applyCZ(g.q0, g.q1);
        return;
      case GateType::Swap:
        applySwap(g.q0, g.q1);
        return;
      case GateType::Measure:
      case GateType::Reset:
        throw std::invalid_argument(
            "Statevector::applyGate: measure/reset need an RNG");
      default:
        applyMatrix1q(gateMatrix1q(g.type, g.angle), g.q0);
        return;
    }
}

void
Statevector::applyPauli(const PauliString &p)
{
    if (p.nQubits() != n_)
        throw std::invalid_argument("Statevector::applyPauli: size mismatch");
    // In place: P maps |i> -> amp_i |i ^ xm| with amp_i depending only
    // on the Z-parity of i, so the X-mask pairs (i, i^xm) can be
    // exchanged directly without a scratch copy of the state.
    const auto &xw = p.xWords();
    const auto &zw = p.zWords();
    const uint64_t xm = xw.empty() ? 0 : xw[0];
    const uint64_t zm = zw.empty() ? 0 : zw[0];
    const std::complex<double> phase = p.phase();
    const size_t dim = data_.size();
    if (xm == 0) {
        for (uint64_t i = 0; i < dim; ++i) {
            const bool neg = std::popcount(i & zm) & 1;
            data_[i] *= neg ? -phase : phase;
        }
        return;
    }
    for (uint64_t i = 0; i < dim; ++i) {
        const uint64_t j = i ^ xm;
        if (j < i)
            continue; // pair already handled
        const std::complex<double> amp_i =
            (std::popcount(i & zm) & 1) ? -phase : phase;
        const std::complex<double> amp_j =
            (std::popcount(j & zm) & 1) ? -phase : phase;
        const std::complex<double> tmp = data_[i];
        data_[i] = amp_j * data_[j]; // P|j> lands on |i>
        data_[j] = amp_i * tmp;      // P|i> lands on |j>
    }
}

void
Statevector::run(const Circuit &circuit)
{
    if (circuit.nQubits() != n_)
        throw std::invalid_argument("Statevector::run: width mismatch");
    runCompiled(CompiledCircuit(circuit));
}

void
Statevector::runCompiled(const CompiledCircuit &compiled)
{
    if (compiled.nQubits() != n_)
        throw std::invalid_argument("Statevector::run: width mismatch");
    // Cooperative-deadline checkpoint: a cell whose soft deadline has
    // passed stops here instead of running one more circuit.
    cancelCheckpoint();
    for (const CompiledOp &op : compiled.ops()) {
        switch (op.kind) {
          case CompiledOpKind::Unitary1q:
            applyMatrix1q(compiled.mat1(op), op.q0);
            break;
          case CompiledOpKind::Unitary2q:
            applyMatrix2q(compiled.mat2(op), op.q0, op.q1);
            break;
          case CompiledOpKind::DiagPhase:
            applyDiagPhase(compiled.diag(op));
            break;
          case CompiledOpKind::Gf2Perm:
            applyGf2Perm(compiled.perm(op));
            break;
          case CompiledOpKind::Measure:
          case CompiledOpKind::Reset:
            throw std::invalid_argument(
                "Statevector::run: measure/reset need an RNG");
        }
    }
}

double
Statevector::probabilityOfOne(size_t q) const
{
    const uint64_t mask = uint64_t{1} << q;
    double p1 = 0.0;
    for (uint64_t i = 0; i < data_.size(); ++i)
        if (i & mask)
            p1 += std::norm(data_[i]);
    return p1;
}

int
Statevector::measure(size_t q, Rng &rng)
{
    const double p1 = probabilityOfOne(q);
    const int outcome = rng.uniform() < p1 ? 1 : 0;
    const double keep_prob = outcome ? p1 : 1.0 - p1;
    const double scale = keep_prob > 0.0 ? 1.0 / std::sqrt(keep_prob) : 0.0;
    // The qubit splits the state into contiguous stride-sized runs of
    // alternating bit value: scale the kept runs, zero the others.
    const size_t stride = size_t{1} << q;
    for (uint64_t b = 0; b < data_.size(); b += 2 * stride) {
        Cd *lo = data_.data() + b;          // bit q = 0
        Cd *hi = data_.data() + b + stride; // bit q = 1
        simd::scaleRun(outcome ? hi : lo, stride, scale);
        simd::zeroRun(outcome ? lo : hi, stride);
    }
    return outcome;
}

void
Statevector::reset(size_t q, Rng &rng)
{
    if (measure(q, rng) == 1)
        applyMatrix1q(gateMatrix1q(GateType::X), q);
}

double
Statevector::expectation(const PauliString &p) const
{
    if (p.nQubits() != n_)
        throw std::invalid_argument(
            "Statevector::expectation: size mismatch");
    const auto &xw = p.xWords();
    const auto &zw = p.zWords();
    const uint64_t xm = xw.empty() ? 0 : xw[0];
    const uint64_t zm = zw.empty() ? 0 : zw[0];
    // One ascending pass, so the value is the same at any team size.
    double re = 0.0, im = 0.0;
    for (uint64_t i = 0; i < data_.size(); ++i) {
        const std::complex<double> v =
            std::conj(data_[i ^ xm]) * data_[i];
        const bool neg = std::popcount(i & zm) & 1;
        re += neg ? -v.real() : v.real();
        im += neg ? -v.imag() : v.imag();
    }
    return (p.phase() * std::complex<double>{re, im}).real();
}

double
Statevector::expectation(const Hamiltonian &h) const
{
    double energy = 0.0;
    for (const auto &t : h.terms())
        energy += t.coefficient * expectation(t.op);
    return energy;
}

std::vector<double>
Statevector::expectationBatch(const Hamiltonian &h) const
{
    if (h.nQubits() != n_)
        throw std::invalid_argument(
            "Statevector::expectationBatch: size mismatch");
    const std::complex<double> *data = data_.data();
    return detail::expectationBatchSweep(
        h, data_.size(),
        [data](uint64_t xm, uint64_t i0, size_t n,
               std::complex<double> *out) {
            simd::bandSv(data, i0, n, xm, out);
        });
}

std::vector<double>
Statevector::basisProbabilities() const
{
    std::vector<double> probs(data_.size());
    for (size_t i = 0; i < data_.size(); ++i)
        probs[i] = std::norm(data_[i]);
    return probs;
}

double
Statevector::overlapSquared(const Statevector &other) const
{
    if (other.n_ != n_)
        throw std::invalid_argument("overlapSquared: size mismatch");
    std::complex<double> acc = 0.0;
    for (size_t i = 0; i < data_.size(); ++i)
        acc += std::conj(other.data_[i]) * data_[i];
    return std::norm(acc);
}

double
Statevector::norm() const
{
    double acc = 0.0;
    for (const auto &c : data_)
        acc += std::norm(c);
    return std::sqrt(acc);
}

} // namespace eftvqa
