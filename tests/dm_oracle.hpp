/**
 * @file
 * Test-side density-matrix references. noiseless() and channel() run
 * the library's one executor, the DmPass stream, the way the backend
 * does. The Kraus oracle below them is independent of that executor:
 * Kraus-operator channels built here from their physical parameters
 * (thermal relaxation derives its own rates rather than sharing the
 * superoperator's), plain scalar loops over DensityMatrix::data() for
 * 2x2 and 4x4 ket/bra conjugation and Kraus sums, calling no simd::
 * kernel, and a gate-by-gate run that places the noise channels where
 * compileNoisyDmStream() does.
 */

#ifndef EFTVQA_TESTS_DM_ORACLE_HPP
#define EFTVQA_TESTS_DM_ORACLE_HPP

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>
#include <vector>

#include "noise/noise_model.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/simd.hpp"

namespace eftvqa::dm_oracle {

/** Run @p body with SIMD dispatch on auto, then pinned to the scalar
 *  reference (simd::setSimdMode(0)); leaves dispatch on auto. */
template <class Body>
void
inBothSimdModes(Body body)
{
    for (const int mode : {-1, 0}) {
        simd::setSimdMode(mode);
        SCOPED_TRACE(mode == 0 ? "simd pinned off" : "simd auto");
        body();
    }
    simd::setSimdMode(-1);
}

/** rho of a bound circuit as the density-matrix backend prepares it
 *  without noise: the DmNoiseSpec{} stream from |0..0>. */
inline DensityMatrix
noiseless(const Circuit &circuit)
{
    DensityMatrix rho(circuit.nQubits());
    rho.runPassesFromZero(compileNoisyDmStream(circuit, DmNoiseSpec{}));
    return rho;
}

/** A gate-free channel superoperator on qubit @p q as one Channel pass. */
inline void
channel(DensityMatrix &rho, size_t q, const Mat4 &superop)
{
    DmPassBuilder stream(rho.nQubits());
    stream.channel(q, superop);
    rho.runPasses(stream.finish());
}

/** Conjugate transpose. */
inline Mat2
dagger(const Mat2 &m)
{
    return {std::conj(m[0]), std::conj(m[2]), std::conj(m[1]),
            std::conj(m[3])};
}

/** A single-qubit channel as a list of Kraus operators. */
struct KrausChannel
{
    std::vector<Mat2> ops;

    /** Check sum_k K^dag K = I within @p tol. */
    bool
    isTracePreserving(double tol = 1e-9) const
    {
        Mat2 acc = {0, 0, 0, 0};
        for (const auto &k : ops) {
            const Mat2 kk = matmul(dagger(k), k);
            for (int i = 0; i < 4; ++i)
                acc[i] += kk[i];
        }
        return std::abs(acc[0] - 1.0) < tol && std::abs(acc[1]) < tol &&
               std::abs(acc[2]) < tol && std::abs(acc[3] - 1.0) < tol;
    }
};

/** Symmetric depolarizing channel with total error probability p. */
inline KrausChannel
depolarizingChannel(double p)
{
    if (p < 0.0 || p > 1.0)
        throw std::invalid_argument("depolarizingChannel: bad p");
    const std::complex<double> i(0.0, 1.0);
    const double s0 = std::sqrt(1.0 - p);
    const double s1 = std::sqrt(p / 3.0);
    return {{{s0, 0, 0, s0},
             {0, s1, s1, 0},           // X
             {0, -i * s1, i * s1, 0},  // Y
             {s1, 0, 0, -s1}}};        // Z
}

/** Classical bit-flip channel (X with probability p). */
inline KrausChannel
bitFlipChannel(double p)
{
    if (p < 0.0 || p > 1.0)
        throw std::invalid_argument("bitFlipChannel: bad p");
    const double s0 = std::sqrt(1.0 - p);
    const double s1 = std::sqrt(p);
    return {{{s0, 0, 0, s0}, {0, s1, s1, 0}}};
}

/** Pure dephasing channel (Z with probability p). */
inline KrausChannel
phaseFlipChannel(double p)
{
    if (p < 0.0 || p > 1.0)
        throw std::invalid_argument("phaseFlipChannel: bad p");
    const double s0 = std::sqrt(1.0 - p);
    const double s1 = std::sqrt(p);
    return {{{s0, 0, 0, s0}, {s1, 0, 0, -s1}}};
}

/**
 * Thermal relaxation for duration @p t with times T1 and T2 (T2 <= 2 T1):
 * amplitude damping with gamma = 1 - exp(-t/T1) composed with phase
 * damping chosen so off-diagonals decay as exp(-t/T2).
 */
inline KrausChannel
thermalRelaxationChannel(double t1, double t2, double t)
{
    if (t1 <= 0.0 || t2 <= 0.0 || t < 0.0)
        throw std::invalid_argument("thermalRelaxationChannel: bad times");
    if (t2 > 2.0 * t1 + 1e-12)
        throw std::invalid_argument(
            "thermalRelaxationChannel: requires T2 <= 2 T1");
    const double gamma = 1.0 - std::exp(-t / t1);
    // sqrt(1 - gamma) * sqrt(1 - lambda) = exp(-t/T2).
    const double sq1mg = std::sqrt(1.0 - gamma);
    double lambda = 0.0;
    if (sq1mg > 0.0) {
        const double ratio = std::exp(-t / t2) / sq1mg;
        lambda = std::max(0.0, 1.0 - ratio * ratio);
    }
    const Mat2 amp[2] = {{1, 0, 0, sq1mg}, {0, std::sqrt(gamma), 0, 0}};
    const Mat2 phase[2] = {{1, 0, 0, std::sqrt(1.0 - lambda)},
                           {0, 0, 0, std::sqrt(lambda)}};
    KrausChannel out;
    for (const Mat2 &ph : phase)
        for (const Mat2 &a : amp)
            out.ops.push_back(matmul(ph, a));
    return out;
}

/** v -> m v on index bit @p bit of the flat vector. */
inline void
applyAtBit(simd::AmpVector &v, const Mat2 &m, size_t bit)
{
    const size_t mask = size_t{1} << bit;
    for (size_t i = 0; i < v.size(); ++i) {
        if (i & mask)
            continue;
        const std::complex<double> a = v[i], b = v[i | mask];
        v[i] = m[0] * a + m[1] * b;
        v[i | mask] = m[2] * a + m[3] * b;
    }
}

/** v -> m v on index bits (pa, pb), pa the high bit of m's basis. */
inline void
applyAtBits(simd::AmpVector &v, const Mat4 &m, size_t pa, size_t pb)
{
    const size_t ma = size_t{1} << pa, mb = size_t{1} << pb;
    for (size_t i = 0; i < v.size(); ++i) {
        if (i & (ma | mb))
            continue;
        const size_t idx[4] = {i, i | mb, i | ma, i | ma | mb};
        std::complex<double> in[4];
        for (int r = 0; r < 4; ++r)
            in[r] = v[idx[r]];
        for (int r = 0; r < 4; ++r) {
            std::complex<double> acc = 0.0;
            for (int c = 0; c < 4; ++c)
                acc += m[4 * r + c] * in[c];
            v[idx[r]] = acc;
        }
    }
}

/** rho -> K rho K^dag for a 2x2 K on qubit @p q: K on the ket bit
 *  n + q, conj(K) on the bra bit q. */
inline void
conjugate1q(DensityMatrix &rho, const Mat2 &k, size_t q)
{
    Mat2 kc;
    for (int i = 0; i < 4; ++i)
        kc[i] = std::conj(k[i]);
    applyAtBit(rho.data(), k, rho.nQubits() + q);
    applyAtBit(rho.data(), kc, q);
}

/** rho -> U rho U^dag for a 4x4 U on (qa, qb), qa the high bit. */
inline void
conjugate2q(DensityMatrix &rho, const Mat4 &u, size_t qa, size_t qb)
{
    const size_t n = rho.nQubits();
    Mat4 uc;
    for (int i = 0; i < 16; ++i)
        uc[i] = std::conj(u[i]);
    applyAtBits(rho.data(), u, n + qa, n + qb);
    applyAtBits(rho.data(), uc, qa, qb);
}

/** rho -> sum_k K_k rho K_k^dag on qubit @p q. */
inline void
kraus1q(DensityMatrix &rho, const KrausChannel &channel, size_t q)
{
    simd::AmpVector acc(rho.data().size(), {0.0, 0.0});
    for (const Mat2 &k : channel.ops) {
        DensityMatrix term = rho;
        conjugate1q(term, k, q);
        for (size_t i = 0; i < acc.size(); ++i)
            acc[i] += term.data()[i];
    }
    rho.data() = acc;
}

inline const Mat2 kPaulis[4] = {gateMatrix1q(GateType::I),
                                gateMatrix1q(GateType::X),
                                gateMatrix1q(GateType::Y),
                                gateMatrix1q(GateType::Z)};

/** {sqrt(p_P) P} for P in I, X, Y, Z. */
inline KrausChannel
pauliKraus(const PauliChannel &ch)
{
    const double w[4] = {ch.pIdentity(), ch.px, ch.py, ch.pz};
    KrausChannel out;
    for (int k = 0; k < 4; ++k) {
        Mat2 op = kPaulis[k];
        for (auto &e : op)
            e *= std::sqrt(w[k]);
        out.ops.push_back(op);
    }
    return out;
}

/** Amplitude damping {diag(1, sqrt(1 - g)), sqrt(g) |0><1|}. */
inline KrausChannel
amplitudeDampingKraus(double gamma)
{
    return {{{1, 0, 0, std::sqrt(1.0 - gamma)},
             {0, std::sqrt(gamma), 0, 0}}};
}

/** (1 - p) rho + p/15 sum_{P != II} P rho P on the pair (q0, q1). */
inline void
depolarize2q(DensityMatrix &rho, double p, size_t q0, size_t q1)
{
    simd::AmpVector acc(rho.data().size(), {0.0, 0.0});
    for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
            const double w = (a == 0 && b == 0) ? 1.0 - p : p / 15.0;
            DensityMatrix term = rho;
            conjugate1q(term, kPaulis[a], q0);
            conjugate1q(term, kPaulis[b], q1);
            for (size_t i = 0; i < acc.size(); ++i)
                acc[i] += w * term.data()[i];
        }
    }
    rho.data() = acc;
}

/**
 * Gate-by-gate Kraus execution of a bound circuit on @p rho, from
 * whatever state it holds, with the stream's noise placement: the
 * gate's own channels after it, then per ASAP layer relaxation and
 * idle depolarizing on the qubits the layer leaves idle.
 */
inline void
run(const Circuit &circuit, const DmNoiseSpec &spec, DensityMatrix &rho)
{
    const size_t n = circuit.nQubits();
    std::vector<size_t> level(n, 0);
    std::vector<std::vector<const Gate *>> layers;
    for (const Gate &g : circuit.gates()) {
        size_t lvl = level[g.q0];
        if (g.isTwoQubit())
            lvl = std::max(lvl, level[g.q1]);
        level[g.q0] = lvl + 1;
        if (g.isTwoQubit())
            level[g.q1] = lvl + 1;
        if (layers.size() <= lvl)
            layers.resize(lvl + 1);
        layers[lvl].push_back(&g);
    }

    const auto pauli = [&](const PauliChannel &ch, size_t q) {
        if (ch.px + ch.py + ch.pz > 0.0)
            kraus1q(rho, pauliKraus(ch), q);
    };
    const auto relax = [&](double t, size_t q) {
        if (spec.use_relaxation && t > 0.0)
            kraus1q(rho, thermalRelaxationChannel(spec.t1_ns, spec.t2_ns, t),
                    q);
    };
    const KrausChannel measure{{{1, 0, 0, 0}, {0, 0, 0, 1}}};
    const KrausChannel reset{{{1, 0, 0, 0}, {0, 1, 0, 0}}};

    for (const auto &layer : layers) {
        std::vector<bool> busy(n, false);
        for (const Gate *g : layer) {
            busy[g->q0] = true;
            if (g->isTwoQubit()) {
                busy[g->q1] = true;
                conjugate2q(rho, gateMatrix2q(*g, g->q0, g->q1), g->q0,
                            g->q1);
                if (spec.two_qubit_depol > 0.0)
                    depolarize2q(rho, spec.two_qubit_depol, g->q0, g->q1);
                relax(spec.time_2q_ns, g->q0);
                relax(spec.time_2q_ns, g->q1);
            } else if (g->type == GateType::Measure) {
                kraus1q(rho, measure, g->q0);
            } else if (g->type == GateType::Reset) {
                kraus1q(rho, reset, g->q0);
            } else if (g->type != GateType::I) {
                conjugate1q(rho, gateMatrix1q(g->type, g->angle), g->q0);
                pauli(isRotationType(g->type)
                          ? spec.rotation
                          : depolarizingPauliChannel(spec.one_qubit_depol),
                      g->q0);
                relax(spec.time_1q_ns, g->q0);
            }
        }
        for (size_t q = 0; q < n; ++q) {
            if (busy[q])
                continue;
            relax(spec.time_2q_ns, q);
            pauli(depolarizingPauliChannel(spec.idle_depol), q);
        }
    }
}

/** max |a_i - b_i| over two matrices' storage. */
inline double
maxAbsDiff(const DensityMatrix &a, const DensityMatrix &b)
{
    double worst = 0.0;
    for (size_t i = 0; i < a.data().size(); ++i)
        worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
    return worst;
}

} // namespace eftvqa::dm_oracle

#endif // EFTVQA_TESTS_DM_ORACLE_HPP
