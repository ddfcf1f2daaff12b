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

/** Minimum per-loop iteration count before an OpenMP fork pays off —
 *  the same grain applyMatrix1q has always used. */
constexpr size_t kParallelGrain = size_t{1} << 14;

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

// ------------------------------------------------------------------ //
// Range kernels: each applies one compiled op to [data, data + span)  //
// where `base` is the absolute amplitude index of data[0]. The full-  //
// state entry points call them with base = 0, span = dim; the cache-  //
// blocked executor calls them once per 2^kBlockQubits block with      //
// parallel = false (the blocks themselves are the parallel axis).     //
// Each tries the SIMD lane kernel first and falls back to the scalar  //
// loop — the two are bit-identical (see sim/simd.hpp).                //
// ------------------------------------------------------------------ //

void
svApply1q(Cd *data, size_t span, size_t stride, const Mat2 &u,
          bool parallel)
{
    if (simd::tryApply1q(data, span, stride, u, parallel))
        return;
    const size_t half = span / 2;
#ifdef _OPENMP
#pragma omp parallel for if (parallel && half >= kParallelGrain)
#endif
    for (int64_t st = 0; st < static_cast<int64_t>(half); ++st) {
        const auto t = static_cast<size_t>(st);
        const size_t i0 = ((t & ~(stride - 1)) << 1) | (t & (stride - 1));
        const size_t i1 = i0 + stride;
        const Cd a = data[i0];
        const Cd b = data[i1];
        data[i0] = u[0] * a + u[1] * b;
        data[i1] = u[2] * a + u[3] * b;
    }
}

void
svApply2q(Cd *data, size_t span, size_t qa, size_t qb, const Mat4 &u,
          bool parallel)
{
    if (simd::tryApply2q(data, span, qa, qb, u, parallel))
        return;
    const uint64_t ma = uint64_t{1} << qa; // high bit of the 4x4 basis
    const uint64_t mb = uint64_t{1} << qb;
    const uint64_t plow = std::min(qa, qb);
    const uint64_t phigh = std::max(qa, qb);
    const size_t quarter = span / 4;
#ifdef _OPENMP
#pragma omp parallel for if (parallel && quarter >= kParallelGrain)
#endif
    for (int64_t st = 0; st < static_cast<int64_t>(quarter); ++st) {
        const uint64_t i00 =
            insertZeroBit(insertZeroBit(static_cast<uint64_t>(st), plow),
                          phigh);
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
svApplyCXRange(Cd *data, size_t span, size_t control, size_t target,
               bool parallel)
{
    const uint64_t cmask = uint64_t{1} << control;
    const uint64_t tmask = uint64_t{1} << target;
    const uint64_t plow = std::min(control, target);
    const uint64_t phigh = std::max(control, target);
    const size_t quarter = span / 4;
#ifdef _OPENMP
#pragma omp parallel for if (parallel && quarter >= kParallelGrain)
#endif
    for (int64_t st = 0; st < static_cast<int64_t>(quarter); ++st) {
        const uint64_t i =
            insertZeroBit(insertZeroBit(static_cast<uint64_t>(st), plow),
                          phigh) |
            cmask;
        std::swap(data[i], data[i | tmask]);
    }
}

void
svApplySwapRange(Cd *data, size_t span, size_t a, size_t b,
                 bool parallel)
{
    const uint64_t am = uint64_t{1} << a;
    const uint64_t bm = uint64_t{1} << b;
    const uint64_t plow = std::min(a, b);
    const uint64_t phigh = std::max(a, b);
    const size_t quarter = span / 4;
#ifdef _OPENMP
#pragma omp parallel for if (parallel && quarter >= kParallelGrain)
#endif
    for (int64_t st = 0; st < static_cast<int64_t>(quarter); ++st) {
        const uint64_t i =
            insertZeroBit(insertZeroBit(static_cast<uint64_t>(st), plow),
                          phigh) |
            am;
        std::swap(data[i], data[i ^ am ^ bm]);
    }
}

void
svApplyDiagPhase(Cd *data, size_t span, uint64_t base,
                 const DiagPhaseOp &d, bool parallel)
{
    if (d.hasTable()) {
        const Cd *table = d.table.data();
        if (d.contiguous) {
            // Participating qubits are the low bits: the gather is a
            // single mask over the absolute index.
            const uint64_t mask = d.table.size() - 1;
            if (simd::tryDiagMask(data, span, base, table, mask,
                                  parallel))
                return;
#ifdef _OPENMP
#pragma omp parallel for if (parallel && span >= kParallelGrain)
#endif
            for (int64_t si = 0; si < static_cast<int64_t>(span); ++si)
                data[static_cast<size_t>(si)] *=
                    table[(base + static_cast<uint64_t>(si)) & mask];
            return;
        }
        const uint32_t *qs = d.qubits.data();
        const size_t k = d.qubits.size();
        if (simd::tryDiagGather(data, span, base, table, qs, k,
                                parallel))
            return;
#ifdef _OPENMP
#pragma omp parallel for if (parallel && span >= kParallelGrain)
#endif
        for (int64_t si = 0; si < static_cast<int64_t>(span); ++si) {
            const uint64_t i = base + static_cast<uint64_t>(si);
            uint64_t idx = 0;
            for (size_t j = 0; j < k; ++j)
                idx |= ((i >> qs[j]) & 1) << j;
            data[static_cast<size_t>(si)] *= table[idx];
        }
        return;
    }
    // Too many participating qubits to table: per-qubit factor product.
#ifdef _OPENMP
#pragma omp parallel for if (parallel && span >= kParallelGrain)
#endif
    for (int64_t si = 0; si < static_cast<int64_t>(span); ++si) {
        const uint64_t i = base + static_cast<uint64_t>(si);
        Cd phase = d.global;
        for (const auto &[q, r] : d.factors)
            if ((i >> q) & 1)
                phase *= r;
        for (const uint64_t m : d.cz_masks)
            if ((i & m) == m)
                phase = -phase;
        data[static_cast<size_t>(si)] *= phase;
    }
}

/** |i> -> |i ^ f> with f < span (pairs stay inside the range). */
void
svApplyXorMask(Cd *data, size_t span, uint64_t f, bool parallel)
{
    if (simd::tryXorMask(data, span, f, parallel))
        return;
#ifdef _OPENMP
#pragma omp parallel for if (parallel && span >= kParallelGrain)
#endif
    for (int64_t si = 0; si < static_cast<int64_t>(span); ++si) {
        const auto i = static_cast<uint64_t>(si);
        const uint64_t j = i ^ f;
        if (i < j)
            std::swap(data[i], data[j]);
    }
}

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

void
Statevector::applyMatrix1q(const Mat2 &u, size_t q)
{
    // Flattened over the dim/2 amplitude pairs so the whole update is
    // one parallelizable loop regardless of the target qubit's stride.
    svApply1q(data_.data(), data_.size(), size_t{1} << q, u, true);
}

void
Statevector::applyCX(size_t control, size_t target)
{
    // Iterate only the dim/4 pairs with control = 1, target = 0
    // instead of branching over every basis state.
    svApplyCXRange(data_.data(), data_.size(), control, target, true);
}

void
Statevector::applyCZ(size_t a, size_t b)
{
    // Only the dim/4 states with both bits set pick up the sign.
    const uint64_t mask = (uint64_t{1} << a) | (uint64_t{1} << b);
    const uint64_t plow = std::min(a, b);
    const uint64_t phigh = std::max(a, b);
    const size_t quarter = data_.size() / 4;
#ifdef _OPENMP
#pragma omp parallel for if (quarter >= kParallelGrain)
#endif
    for (int64_t st = 0; st < static_cast<int64_t>(quarter); ++st) {
        const uint64_t i =
            insertZeroBit(insertZeroBit(static_cast<uint64_t>(st), plow),
                          phigh) |
            mask;
        data_[i] = -data_[i];
    }
}

void
Statevector::applySwap(size_t a, size_t b)
{
    // Only the dim/4 (a=1, b=0) states exchange with their partner.
    svApplySwapRange(data_.data(), data_.size(), a, b, true);
}

void
Statevector::applyMatrix2q(const Mat4 &u, size_t qa, size_t qb)
{
    svApply2q(data_.data(), data_.size(), qa, qb, u, true);
}

void
Statevector::applyDiagPhase(const DiagPhaseOp &d)
{
    svApplyDiagPhase(data_.data(), data_.size(), 0, d, true);
}

void
Statevector::applyGf2Perm(const Gf2PermOp &p)
{
    const size_t dim = data_.size();
    switch (p.cls) {
      case Gf2PermClass::XorMask:
        svApplyXorMask(data_.data(), dim, p.flips, true);
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
    // buffer; OpenMP workers write through the caller's buffer via the
    // hoisted pointer (a thread_local reference inside the parallel
    // region would name each worker's own, unsized instance).
    static thread_local simd::AmpVector scratch;
    scratch.resize(dim);
    std::complex<double> *out = scratch.data();
    const std::complex<double> *in = data_.data();
    const uint64_t f = p.flips;
    const uint64_t *inv = p.inv_rows.data();
    const size_t nb = p.inv_rows.size();
#ifdef _OPENMP
#pragma omp parallel for if (dim >= kParallelGrain)
#endif
    for (int64_t sy = 0; sy < static_cast<int64_t>(dim); ++sy) {
        const uint64_t z = static_cast<uint64_t>(sy) ^ f;
        uint64_t x = 0;
        for (size_t b = 0; b < nb; ++b)
            x |= static_cast<uint64_t>(std::popcount(z & inv[b]) & 1)
                 << b;
        out[static_cast<size_t>(sy)] = in[x];
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
    const auto &ops = compiled.ops();
    const size_t dim = data_.size();
    const size_t block = std::min(dim, size_t{1} << kBlockQubits);
    const bool use_blocks =
        compiledBlockMode() != 0 && dim > block;

    // One op restricted to [data + base, data + base + span). Both
    // modes route through here, so blocked and flat execution differ
    // only in the traversal order of independent per-amplitude updates
    // and stay bit-identical.
    const auto execOp = [&](const CompiledOp &op, Cd *data, size_t span,
                            uint64_t base, bool parallel) {
        switch (op.kind) {
          case CompiledOpKind::Unitary1q:
            svApply1q(data, span, size_t{1} << op.q0, compiled.mat1(op),
                      parallel);
            break;
          case CompiledOpKind::Unitary2q:
            svApply2q(data, span, op.q0, op.q1, compiled.mat2(op),
                      parallel);
            break;
          case CompiledOpKind::DiagPhase:
            svApplyDiagPhase(data, span, base, compiled.diag(op),
                             parallel);
            break;
          case CompiledOpKind::Gf2Perm: {
            const Gf2PermOp &p = compiled.perm(op);
            switch (p.cls) {
              case Gf2PermClass::XorMask:
                svApplyXorMask(data, span, p.flips, parallel);
                break;
              case Gf2PermClass::SingleCX:
                svApplyCXRange(data, span, p.q0, p.q1, parallel);
                break;
              case Gf2PermClass::SingleSwap:
                svApplySwapRange(data, span, p.q0, p.q1, parallel);
                break;
              case Gf2PermClass::General:
                // Scheduled as an unblocked barrier: full state only.
                applyGf2Perm(p);
                break;
            }
            break;
          }
          case CompiledOpKind::Measure:
          case CompiledOpKind::Reset:
            throw std::invalid_argument(
                "Statevector::run: measure/reset need an RNG");
        }
    };

    // Both modes follow the schedule's (possibly hoisted) op order so
    // toggling blocking cannot change the result.
    for (const BlockSegment &seg : compiled.blockSchedule()) {
        // Cooperative-deadline checkpoint between blocked segments:
        // serial code, so a TimeoutError unwinds cleanly without
        // tearing an OpenMP team. A cell wedged inside one long
        // compiled run now times out at the next segment boundary
        // instead of only between engine calls.
        cancelCheckpoint();
        if (use_blocks && seg.blocked) {
            const auto nblocks = static_cast<int64_t>(dim / block);
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (nblocks > 1)
#endif
            for (int64_t b = 0; b < nblocks; ++b) {
                const uint64_t base =
                    static_cast<uint64_t>(b) * block;
                for (const uint32_t oi : seg.op_indices)
                    execOp(ops[oi], data_.data() + base, block, base,
                           false);
            }
        } else {
            for (const uint32_t oi : seg.op_indices)
                execOp(ops[oi], data_.data(), dim, 0, true);
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
        [data](uint64_t xm, uint64_t i0, size_t n, std::complex<double> *out,
               bool vec) { simd::bandSv(data, i0, n, xm, vec, out); });
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
