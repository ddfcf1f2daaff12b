/**
 * @file
 * Parity and determinism contract of the SIMD lane kernels
 * (sim/simd.hpp):
 *
 *  - every vector kernel (1q, fused 4x4, diagonal phase, xor-mask
 *    permutation, measure/reset, density-matrix channels and pair
 *    pass) must equal its scalar reference sweep bit for bit on
 *    randomized states, across strides, small dims below the lane
 *    width, and tail regions;
 *  - expectationBatch must be bit-identical between modes on both
 *    dense backends;
 *  - a 16-qubit compiled run must match the gate-by-gate loop in both
 *    modes to <= 1e-12 (fusion reorders the arithmetic);
 *  - EstimationEngine::energies must be bit-identical across OpenMP
 *    thread counts in both SIMD modes;
 *  - the X-mask group-plan memo must be looked up once per
 *    expectationBatch and hit on repeat Hamiltonians.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "ansatz/ansatz.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "noise/noise_model.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/lane_sweep.hpp"
#include "sim/simd.hpp"
#include "sim/statevector.hpp"
#include "vqa/estimation.hpp"

#include "omp_team.hpp"

using namespace eftvqa;
using cd = std::complex<double>;

namespace {

/** Fused ops against the gate-by-gate loop: the one comparison that is
 *  not between the two SIMD modes of one computation. */
constexpr double kTol = 1e-12;

/** Pin the SIMD dispatch mode for a scope; restores auto on exit. */
struct SimdModeGuard
{
    explicit SimdModeGuard(int mode) { simd::setSimdMode(mode); }
    ~SimdModeGuard() { simd::setSimdMode(-1); }
};

/** Normalized random state (deterministic in the seed). */
Statevector
randomState(size_t n, uint64_t seed)
{
    Statevector psi(n);
    Rng rng(seed);
    auto &a = psi.amplitudes();
    double norm2 = 0.0;
    for (auto &x : a) {
        x = cd(rng.normal(), rng.normal());
        norm2 += std::norm(x);
    }
    const double s = 1.0 / std::sqrt(norm2);
    for (auto &x : a)
        x *= s;
    return psi;
}

/** Random 2x2 unitary (deterministic in the seed). */
Mat2
randomU2(uint64_t seed)
{
    Rng rng(seed);
    const double a = rng.uniform(0.0, M_PI);
    const double b = rng.uniform(0.0, 2.0 * M_PI);
    const double c = rng.uniform(0.0, 2.0 * M_PI);
    const cd eb = std::polar(1.0, b);
    const cd ec = std::polar(1.0, c);
    return Mat2{cd(std::cos(a)), -eb * std::sin(a), ec * std::sin(a),
                eb * ec * std::cos(a)};
}

/** Random entangling 4x4 unitary: CZ * (U2 (x) U2). */
Mat4
randomU4(uint64_t seed)
{
    const Mat4 cz = gateMatrix2q(Gate(GateType::CZ, 0, 1), 0, 1);
    return matmul4(cz, kron2q(randomU2(seed), randomU2(seed + 101)));
}

/** memcmp equality of two equally sized buffers. */
template <class V>
::testing::AssertionResult
sameBits(const V &a, const V &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << b.size() << " != " << a.size();
    for (size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(a[i])) != 0)
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << b[i] << " != " << a[i];
    return ::testing::AssertionSuccess();
}

double
maxAbsDiff(const simd::AmpVector &a, const simd::AmpVector &b)
{
    EXPECT_EQ(a.size(), b.size());
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

Circuit
boundFche(int n, double theta)
{
    const auto ansatz = fcheAnsatz(n, 1);
    return ansatz.bind(
        std::vector<double>(ansatz.nParameters(), theta));
}

} // namespace

TEST(SimdKernels, Apply1qParityAllQubitsAndDims)
{
    // Covers stride == 1, strides below the lane width (the scalar
    // fallback) and wide strides, including dims < 2 * kLanes.
    for (const size_t n : {1u, 2u, 3u, 4u, 6u, 10u}) {
        for (size_t q = 0; q < n; ++q) {
            const Mat2 u = randomU2(7 * n + q);
            Statevector ref = randomState(n, 100 + n);
            Statevector vec = ref;
            {
                SimdModeGuard off(0);
                ref.applyMatrix1q(u, q);
            }
            vec.applyMatrix1q(u, q);
            EXPECT_TRUE(sameBits(ref.amplitudes(), vec.amplitudes()))
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(SimdKernels, Apply2qParityAllPairs)
{
    for (const size_t n : {2u, 3u, 4u, 6u, 10u}) {
        for (size_t qa = 0; qa < n; ++qa) {
            for (size_t qb = 0; qb < n; ++qb) {
                if (qa == qb)
                    continue;
                const Mat4 u = randomU4(31 * n + 5 * qa + qb);
                Statevector ref = randomState(n, 200 + n);
                Statevector vec = ref;
                {
                    SimdModeGuard off(0);
                    ref.applyMatrix2q(u, qa, qb);
                }
                vec.applyMatrix2q(u, qa, qb);
                EXPECT_TRUE(sameBits(ref.amplitudes(), vec.amplitudes()))
                    << "n=" << n << " qa=" << qa << " qb=" << qb;
            }
        }
    }
}

TEST(SimdKernels, DiagPhaseParityMaskAndGatherPaths)
{
    // Low contiguous run -> mask-indexed table; scattered / high runs
    // -> gather path; n=2 exercises dims below the lane width.
    const auto cases = std::vector<std::pair<size_t, std::vector<uint32_t>>>{
        {10, {0, 1, 2, 3}},
        {10, {7, 8, 9}},
        {10, {0, 5, 9}},
        {2, {0, 1}},
    };
    for (const auto &[n, qubits] : cases) {
        Circuit c(n);
        double theta = 0.3;
        for (const uint32_t q : qubits) {
            c.rz(q, theta);
            theta += 0.17;
        }
        const CompiledCircuit compiled(c);
        Statevector ref = randomState(n, 300 + n);
        Statevector vec = ref;
        {
            SimdModeGuard off(0);
            ref.runCompiled(compiled);
        }
        vec.runCompiled(compiled);
        EXPECT_TRUE(sameBits(ref.amplitudes(), vec.amplitudes()))
            << "n=" << n;
    }
}

TEST(SimdKernels, Gf2PermParity)
{
    for (const size_t n : {3u, 10u}) {
        Circuit c(n);
        c.x(0);
        if (n > 3) {
            c.cx(1, 4);
            c.swap(2, 7);
            c.cx(6, 0);
            c.x(static_cast<uint32_t>(n - 1));
        } else {
            c.cx(0, 2);
            c.swap(1, 2);
        }
        const CompiledCircuit compiled(c);
        Statevector ref = randomState(n, 400 + n);
        Statevector vec = ref;
        {
            SimdModeGuard off(0);
            ref.runCompiled(compiled);
        }
        vec.runCompiled(compiled);
        EXPECT_TRUE(sameBits(ref.amplitudes(), vec.amplitudes()))
            << "n=" << n;
    }
}

TEST(SimdKernels, MeasureResetParity)
{
    const size_t n = 10;
    Statevector ref = randomState(n, 55);
    Statevector vec = ref;
    int out_ref = -1, out_vec = -1;
    {
        SimdModeGuard off(0);
        Rng rng(9);
        out_ref = ref.measure(3, rng);
        ref.reset(7, rng);
    }
    {
        Rng rng(9);
        out_vec = vec.measure(3, rng);
        vec.reset(7, rng);
    }
    EXPECT_EQ(out_ref, out_vec);
    EXPECT_TRUE(sameBits(ref.amplitudes(), vec.amplitudes()));
}

TEST(SimdKernels, ExpectationBatchParityStatevector)
{
    const int n = 10;
    Statevector psi(static_cast<size_t>(n));
    psi.run(boundFche(n, 0.3));
    for (const auto &ham : {heisenbergHamiltonian(n, 1.0),
                            isingHamiltonian(n, 0.7)}) {
        std::vector<double> ref;
        {
            SimdModeGuard off(0);
            ref = psi.expectationBatch(ham);
        }
        EXPECT_TRUE(sameBits(ref, psi.expectationBatch(ham)));
    }
}

TEST(SimdKernels, DensityMatrixChannelAndBatchParity)
{
    // The noiseless FCHE stream, then one Channel pass per channel, a
    // gate-carrying Superop pass and a noisy CX pair pass: every kernel
    // the stream runs.
    const int n = 6;
    const auto apply = [&](DensityMatrix &rho) {
        rho.runPassesFromZero(
            compileNoisyDmStream(boundFche(n, 0.3), DmNoiseSpec{}));
        DmPassBuilder stream(static_cast<size_t>(n));
        stream.channel(0, amplitudeDampingSuperop(0.05));
        stream.channel(1, phaseDampingSuperop(0.08));
        stream.gate1q(Gate(GateType::Reset, 2));
        stream.gate1q(Gate(GateType::Measure, 3));
        stream.channel(4, pauliChannelSuperop(depolarizingPauliChannel(0.02)));
        stream.gate1q(Gate::rotation(GateType::Ry, 5, 0.9));
        stream.gate2q(Gate(GateType::CX, 5, 0), 0.03);
        rho.runPasses(stream.finish());
    };
    DensityMatrix ref(static_cast<size_t>(n));
    DensityMatrix vec(static_cast<size_t>(n));
    {
        SimdModeGuard off(0);
        apply(ref);
    }
    apply(vec);
    EXPECT_TRUE(sameBits(ref.data(), vec.data()));

    const auto ham = heisenbergHamiltonian(n, 1.0);
    std::vector<double> tref;
    {
        SimdModeGuard off(0);
        tref = ref.expectationBatch(ham);
    }
    EXPECT_TRUE(sameBits(tref, vec.expectationBatch(ham)));

    // Tiny density matrices (rows shorter than a vector register) must
    // stay correct through the scalar fallbacks.
    for (const size_t tiny : {1u, 2u}) {
        DmPassBuilder gates(tiny);
        gates.gate1q(Gate::rotation(GateType::Ry, 0, 0.3 + 0.1 * tiny));
        gates.gate1q(Gate::rotation(GateType::Rz, 0, 1.1));
        DmPassBuilder damping(tiny);
        damping.channel(0, amplitudeDampingSuperop(0.1));
        const std::vector<DmPass> superop = gates.finish();
        const std::vector<DmPass> channel = damping.finish();
        DensityMatrix a(tiny), b(tiny);
        {
            SimdModeGuard off(0);
            a.runPasses(superop);
            a.runPasses(channel);
        }
        b.runPasses(superop);
        b.runPasses(channel);
        EXPECT_TRUE(sameBits(a.data(), b.data()));
    }
}

TEST(SimdKernels, CompiledRunMatchesGateLoopAt16Qubits)
{
    // Wider than any register the figures run. Two circuits: the bound
    // FCHE ansatz from |0...0>, and a random circuit from a random
    // state whose X/CX/Swap cascades span low and high qubits, so it
    // compiles to at least one general Gf2Perm gather.
    const size_t n = 16;
    Rng rng(77);
    Circuit mixed(n);
    const auto cascade = [&] {
        for (int g = 0; g < 12; ++g) {
            const auto a = static_cast<uint32_t>(rng.uniformInt(n));
            auto b = static_cast<uint32_t>(rng.uniformInt(n - 1));
            if (b >= a)
                ++b;
            if (g % 4 == 3)
                mixed.swap(a, b);
            else
                mixed.cx(a, b);
        }
        mixed.x(static_cast<uint32_t>(rng.uniformInt(n)));
    };
    cascade();
    for (uint32_t q = 0; q < n; ++q) {
        mixed.add(Gate::rotation(GateType::Ry, q, rng.uniform(-M_PI, M_PI)));
        mixed.add(Gate::rotation(GateType::Rz, q, rng.uniform(-M_PI, M_PI)));
    }
    for (uint32_t q = 0; q + 1 < n; q += 3)
        mixed.cz(q, q + 1);
    cascade();
    const CompiledCircuit compiled_mixed(mixed);
    size_t general = 0;
    for (const CompiledOp &op : compiled_mixed.ops())
        if (op.kind == CompiledOpKind::Gf2Perm &&
            compiled_mixed.perm(op).cls == Gf2PermClass::General)
            ++general;
    ASSERT_GT(general, 0u);

    const auto expectParity = [](const Circuit &circuit,
                                 const CompiledCircuit &compiled,
                                 const Statevector &from) {
        for (const int mode : {0, -1}) {
            SimdModeGuard pin(mode);
            Statevector run = from;
            run.runCompiled(compiled);
            Statevector loop = from;
            for (const Gate &g : circuit.gates())
                loop.applyGate(g);
            EXPECT_LE(maxAbsDiff(run.amplitudes(), loop.amplitudes()),
                      kTol)
                << "simd mode " << mode << ", " << circuit.nGates()
                << " gates";
        }
    };
    const Circuit fche = boundFche(static_cast<int>(n), 0.3);
    expectParity(fche, CompiledCircuit(fche), Statevector(n));
    expectParity(mixed, compiled_mixed, randomState(n, 600));
}

TEST(SimdKernels, EnergiesBitIdenticalAcrossThreadsAndSimdModes)
{
    const int n = 10;
    const auto ham = heisenbergHamiltonian(n, 1.0);
    std::vector<Circuit> population;
    for (int k = 0; k < 6; ++k)
        population.push_back(
            boundFche(n, 0.1 + 0.07 * static_cast<double>(k)));

    std::vector<double> modes[2];
    for (const int mode : {0, -1}) {
        SimdModeGuard pin(mode);
        SCOPED_TRACE(mode == 0 ? "simd pinned off" : "simd auto");
        modes[mode == 0 ? 0 : 1] = omp_team::expectSameBits([&] {
            EstimationEngine engine(ham, EstimationConfig{});
            return engine.energies(population);
        });
    }
    EXPECT_TRUE(sameBits(modes[0], modes[1]));
}

TEST(SimdKernels, SweepPlanMemoHitsOnRepeatHamiltonian)
{
    // An odd coupling keeps this Hamiltonian's content hash unique to
    // this test, so the first batch must miss and the rest must hit.
    const auto ham = heisenbergHamiltonian(9, 1.234375);
    Statevector psi(9);
    psi.run(boundFche(9, 0.3));

    const uint64_t h0 = detail::sweepPlanCacheHits();
    const uint64_t m0 = detail::sweepPlanCacheMisses();
    psi.expectationBatch(ham);
    EXPECT_EQ(detail::sweepPlanCacheMisses(), m0 + 1);
    EXPECT_EQ(detail::sweepPlanCacheHits(), h0);
    psi.expectationBatch(ham);
    psi.expectationBatch(ham);
    EXPECT_EQ(detail::sweepPlanCacheMisses(), m0 + 1);
    EXPECT_EQ(detail::sweepPlanCacheHits(), h0 + 2);
}
