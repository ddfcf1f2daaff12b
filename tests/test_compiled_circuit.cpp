/**
 * @file
 * Compiled gate pipeline: compiled-vs-uncompiled state parity on
 * randomized circuits, fusion-structure guarantees of the compiler,
 * compile-memo behaviour in EstimationEngine, determinism of compiled
 * execution, weighted shot allocation, and the width-cap diagnostics.
 * The density matrix, which runs its own DmPass stream instead of the
 * compiled ops, is checked on the same circuits against |psi><psi| and
 * the Kraus oracle (dm_oracle.hpp), in both SIMD modes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numeric>
#include <vector>

#include "ansatz/ansatz.hpp"
#include "common/rng.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "sim/backend.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "vqa/estimation.hpp"

#include "dm_oracle.hpp"

using namespace eftvqa;

namespace {

/** Random bound circuit over the full unitary gate set. */
Circuit
randomUnitaryCircuit(size_t n, size_t n_gates, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n);
    const GateType one_q[] = {GateType::I,   GateType::X,  GateType::Y,
                              GateType::Z,   GateType::H,  GateType::S,
                              GateType::Sdg, GateType::T,  GateType::Tdg,
                              GateType::Rz,  GateType::Rx, GateType::Ry};
    for (size_t g = 0; g < n_gates; ++g) {
        const bool two_q = n >= 2 && rng.uniform() < 0.35;
        if (two_q) {
            const auto a = static_cast<uint32_t>(rng.uniformInt(n));
            auto b = static_cast<uint32_t>(rng.uniformInt(n - 1));
            if (b >= a)
                ++b;
            const uint64_t pick = rng.uniformInt(3);
            const GateType t = pick == 0   ? GateType::CX
                               : pick == 1 ? GateType::CZ
                                           : GateType::Swap;
            c.add(Gate(t, a, b));
        } else {
            const GateType t = one_q[rng.uniformInt(12)];
            const auto q = static_cast<uint32_t>(rng.uniformInt(n));
            if (isRotationType(t))
                c.add(Gate::rotation(t, q, rng.uniform(-M_PI, M_PI)));
            else
                c.add(Gate(t, q));
        }
    }
    return c;
}

/** Max |amplitude difference| between compiled run() and the naive
 *  gate-by-gate reference. */
double
statevectorParityError(const Circuit &c)
{
    Statevector compiled(c.nQubits());
    compiled.run(c);
    Statevector naive(c.nQubits());
    for (const auto &g : c.gates())
        naive.applyGate(g);
    double err = 0.0;
    for (size_t i = 0; i < compiled.dim(); ++i)
        err = std::max(err, std::abs(compiled.amplitudes()[i] -
                                     naive.amplitudes()[i]));
    return err;
}

/** Max |entry difference| between the noiseless density-matrix stream
 *  and |psi><psi| of the gate-by-gate statevector, over both SIMD
 *  modes. */
double
densityMatrixParityError(const Circuit &c)
{
    Statevector psi(c.nQubits());
    for (const auto &g : c.gates())
        psi.applyGate(g);
    DensityMatrix pure(c.nQubits());
    pure.setPureState(psi);
    double err = 0.0;
    dm_oracle::inBothSimdModes([&] {
        err = std::max(err,
                       dm_oracle::maxAbsDiff(dm_oracle::noiseless(c), pure));
    });
    return err;
}

} // namespace

TEST(CompiledCircuit, RandomizedStatevectorParity)
{
    for (size_t n = 1; n <= 6; ++n)
        for (uint64_t seed = 0; seed < 8; ++seed) {
            const Circuit c =
                randomUnitaryCircuit(n, 30 + 10 * n, 1000 * n + seed);
            EXPECT_LT(statevectorParityError(c), 1e-12)
                << "n=" << n << " seed=" << seed;
        }
}

TEST(CompiledCircuit, RandomizedDensityMatrixParity)
{
    for (size_t n = 1; n <= 4; ++n)
        for (uint64_t seed = 0; seed < 4; ++seed) {
            const Circuit c =
                randomUnitaryCircuit(n, 25, 2000 * n + seed);
            EXPECT_LT(densityMatrixParityError(c), 1e-12)
                << "n=" << n << " seed=" << seed;
        }
}

TEST(CompiledCircuit, ParameterizedThenBoundParity)
{
    for (const AnsatzKind kind :
         {AnsatzKind::LinearHea, AnsatzKind::Fche, AnsatzKind::UccsdLite}) {
        const Circuit ansatz = buildAnsatz(kind, 5, 2);
        Rng rng(7);
        std::vector<double> params(ansatz.nParameters());
        for (auto &p : params)
            p = rng.uniform(-M_PI, M_PI);
        EXPECT_LT(statevectorParityError(ansatz.bind(params)), 1e-12);
    }
}

TEST(CompiledCircuit, EmptyAndSingleGateCircuits)
{
    EXPECT_EQ(CompiledCircuit(Circuit(3)).nOps(), 0u);
    EXPECT_LT(statevectorParityError(Circuit(3)), 1e-15);

    const GateType all[] = {GateType::I,   GateType::X,    GateType::Y,
                            GateType::Z,   GateType::H,    GateType::S,
                            GateType::Sdg, GateType::T,    GateType::Tdg,
                            GateType::Rz,  GateType::Rx,   GateType::Ry,
                            GateType::CX,  GateType::CZ,   GateType::Swap};
    for (const GateType t : all) {
        Circuit c(2);
        if (isTwoQubitType(t))
            c.add(Gate(t, 0, 1));
        else if (isRotationType(t))
            c.add(Gate::rotation(t, 1, 0.37));
        else
            c.add(Gate(t, 1));
        EXPECT_LT(statevectorParityError(c), 1e-12) << gateName(t);
    }
}

TEST(CompiledCircuit, MeasureResetChannelsOnDensityMatrix)
{
    // Randomized unitaries with interleaved measure/reset barriers:
    // the noiseless stream must execute the same channels in the same
    // per-qubit order as the gate-by-gate Kraus oracle.
    Rng rng(11);
    for (uint64_t seed = 0; seed < 4; ++seed) {
        Circuit c(3);
        for (int block = 0; block < 4; ++block) {
            const Circuit u = randomUnitaryCircuit(3, 8, 300 + seed + block);
            c.append(u);
            const auto q = static_cast<uint32_t>(rng.uniformInt(3));
            if (rng.uniform() < 0.5)
                c.measure(q);
            else
                c.reset(q);
        }
        DensityMatrix oracle(3);
        dm_oracle::run(c, DmNoiseSpec{}, oracle);
        dm_oracle::inBothSimdModes([&] {
            EXPECT_LT(dm_oracle::maxAbsDiff(dm_oracle::noiseless(c), oracle),
                      1e-12)
                << seed;
        });
    }
}

TEST(CompiledCircuit, MeasureIsAFusionBarrierPerQubit)
{
    // H q0; measure q0; H q0 must stay three ops: the trailing H may
    // not merge backward across the measurement.
    Circuit c(2);
    c.h(0);
    c.measure(0);
    c.h(0);
    const CompiledCircuit compiled(c);
    ASSERT_EQ(compiled.nOps(), 3u);
    EXPECT_EQ(compiled.ops()[1].kind, CompiledOpKind::Measure);

    // ...but a gate on the other qubit still fuses across it.
    Circuit d(2);
    d.h(1);
    d.measure(0);
    d.h(1);
    const CompiledCircuit fused(d);
    EXPECT_EQ(fused.countKind(CompiledOpKind::Unitary1q), 1u);
}

TEST(CompiledCircuit, StatevectorRejectsMeasureLikeUncompiledPath)
{
    Circuit c(2);
    c.h(0);
    c.measure(0);
    Statevector psi(2);
    EXPECT_THROW(psi.run(c), std::invalid_argument);
}

TEST(CompiledCircuit, UnboundParameterThrows)
{
    Circuit c(2);
    c.rzParam(0, 0);
    EXPECT_THROW(CompiledCircuit compiled(c), std::invalid_argument);
    Statevector psi(2);
    EXPECT_THROW(psi.run(c), std::invalid_argument);
}

TEST(CompiledCircuit, AdjacentOneQubitGatesFuseToOneOp)
{
    Circuit c(2);
    c.h(0);
    c.rz(0, 0.3);
    c.ry(0, 0.9);
    c.h(0);
    const CompiledCircuit compiled(c);
    EXPECT_EQ(compiled.nOps(), 1u);
    EXPECT_EQ(compiled.countKind(CompiledOpKind::Unitary1q), 1u);
}

TEST(CompiledCircuit, DiagonalRunCollapsesToOnePhaseSweep)
{
    Circuit c(4);
    for (uint32_t q = 0; q < 4; ++q)
        c.rz(q, 0.1 + q);
    c.cz(0, 1);
    c.s(2);
    c.t(3);
    c.cz(2, 3);
    c.z(0);
    const CompiledCircuit compiled(c);
    EXPECT_EQ(compiled.nOps(), 1u);
    EXPECT_EQ(compiled.countKind(CompiledOpKind::DiagPhase), 1u);
    EXPECT_LT(statevectorParityError(c), 1e-12);
}

TEST(CompiledCircuit, SelfInverseRunsCancelStructurally)
{
    Circuit c(3);
    c.x(0);
    c.x(0);
    c.cx(1, 2);
    c.cx(1, 2);
    c.cz(0, 1);
    c.cz(0, 1);
    EXPECT_EQ(CompiledCircuit(c).nOps(), 0u);
}

TEST(CompiledCircuit, OneQubitGatesAbsorbIntoTwoQubitKernel)
{
    // The uccsd-lite building block: H CX Rz CX H fuses to one 4x4.
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    c.rz(1, 0.7);
    c.cx(0, 1);
    c.h(0);
    const CompiledCircuit compiled(c);
    EXPECT_EQ(compiled.nOps(), 1u);
    EXPECT_EQ(compiled.countKind(CompiledOpKind::Unitary2q), 1u);
    EXPECT_LT(statevectorParityError(c), 1e-12);
}

TEST(CompiledCircuit, CnotCascadeFoldsIntoOnePermutation)
{
    Circuit c(6);
    for (uint32_t a = 0; a < 6; ++a)
        for (uint32_t b = a + 1; b < 6; ++b)
            c.cx(a, b);
    const CompiledCircuit compiled(c);
    EXPECT_EQ(compiled.nOps(), 1u);
    EXPECT_EQ(compiled.countKind(CompiledOpKind::Gf2Perm), 1u);
    EXPECT_LT(statevectorParityError(c), 1e-15); // permutations are exact
}

TEST(CompiledCircuit, XLayerFoldsIntoOneXorMaskPass)
{
    Circuit c(5);
    for (uint32_t q = 0; q < 5; ++q)
        c.x(q);
    const CompiledCircuit compiled(c);
    ASSERT_EQ(compiled.nOps(), 1u);
    const Gf2PermOp &p = compiled.perm(compiled.ops()[0]);
    EXPECT_EQ(p.cls, Gf2PermClass::XorMask);
    EXPECT_EQ(p.flips, 0x1Fu);
    EXPECT_LT(statevectorParityError(c), 1e-15);
}

TEST(CompiledCircuit, SinglePermutationsUseInPlaceKernels)
{
    Circuit cx(3);
    cx.cx(2, 0);
    const CompiledCircuit ccx(cx);
    ASSERT_EQ(ccx.nOps(), 1u);
    EXPECT_EQ(ccx.perm(ccx.ops()[0]).cls, Gf2PermClass::SingleCX);
    EXPECT_EQ(ccx.perm(ccx.ops()[0]).q0, 2u);
    EXPECT_EQ(ccx.perm(ccx.ops()[0]).q1, 0u);

    Circuit sw(3);
    sw.swap(0, 2);
    const CompiledCircuit csw(sw);
    ASSERT_EQ(csw.nOps(), 1u);
    EXPECT_EQ(csw.perm(csw.ops()[0]).cls, Gf2PermClass::SingleSwap);
}

TEST(CompiledCircuit, Gf2PermRoundTripsThroughInverse)
{
    Circuit c(8);
    Rng rng(21);
    for (int g = 0; g < 40; ++g) {
        const auto a = static_cast<uint32_t>(rng.uniformInt(8));
        auto b = static_cast<uint32_t>(rng.uniformInt(7));
        if (b >= a)
            ++b;
        if (rng.uniform() < 0.2)
            c.x(a);
        else if (rng.uniform() < 0.5)
            c.cx(a, b);
        else
            c.swap(a, b);
    }
    const CompiledCircuit compiled(c);
    ASSERT_EQ(compiled.nOps(), 1u);
    const Gf2PermOp &p = compiled.perm(compiled.ops()[0]);
    for (uint64_t i = 0; i < 256; ++i)
        EXPECT_EQ(p.applyInverse(p.apply(i)), i);
    EXPECT_LT(statevectorParityError(c), 1e-15);
}

TEST(CompiledCircuit, WideDiagonalRunFallsBackToFactorSweep)
{
    // 17 participating qubits exceeds the phase-table cap; the factor
    // path must agree with the gate-by-gate reference.
    const size_t n = 17;
    Circuit c(n);
    for (uint32_t q = 0; q < n; ++q)
        c.rz(q, 0.05 * (q + 1));
    for (uint32_t q = 0; q + 1 < n; ++q)
        c.cz(q, q + 1);
    const CompiledCircuit compiled(c);
    ASSERT_EQ(compiled.nOps(), 1u);
    EXPECT_FALSE(compiled.diag(compiled.ops()[0]).hasTable());
    EXPECT_LT(statevectorParityError(c), 1e-12);
}

TEST(CompiledCircuit, GateMatrix2qMatchesGateSemantics)
{
    // CX with control above target, expressed in both qubit orders.
    for (const GateType t : {GateType::CX, GateType::CZ, GateType::Swap}) {
        Circuit c(2);
        c.add(Gate(t, 1, 0));
        Statevector ref(2);
        ref.applyMatrix1q(gateMatrix1q(GateType::H), 0);
        ref.applyMatrix1q(gateMatrix1q(GateType::Ry, 0.4), 1);
        Statevector via2q = ref;
        ref.applyGate(Gate(t, 1, 0));
        via2q.applyMatrix2q(gateMatrix2q(Gate(t, 1, 0), 0, 1), 0, 1);
        for (size_t i = 0; i < 4; ++i)
            EXPECT_LT(std::abs(ref.amplitudes()[i] -
                               via2q.amplitudes()[i]),
                      1e-15)
                << gateName(t) << " amp " << i;
    }
}

TEST(CompiledCircuit, WidthCapErrorsReportRequestedAndMax)
{
    try {
        Statevector psi(30);
        FAIL() << "expected throw";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("30"), std::string::npos);
        EXPECT_NE(msg.find("26"), std::string::npos);
    }
    try {
        DensityMatrix rho(16);
        FAIL() << "expected throw";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("16"), std::string::npos);
        EXPECT_NE(msg.find("13"), std::string::npos);
    }
}

TEST(CompiledCircuit, BackendPrepareCompiledMatchesPrepare)
{
    const auto ham = heisenbergHamiltonian(4, 1.0);
    const Circuit c = randomUnitaryCircuit(4, 30, 99);
    const CompiledCircuit compiled(c);
    for (const auto kind :
         {sim::BackendKind::Statevector, sim::BackendKind::DensityMatrix,
          sim::BackendKind::Auto}) {
        auto a = sim::makeBackend(kind, 4);
        auto b = sim::makeBackend(kind, 4);
        a->prepare(c);
        b->prepareCompiled(compiled);
        const auto va = a->expectationBatch(ham);
        const auto vb = b->expectationBatch(ham);
        for (size_t k = 0; k < va.size(); ++k)
            EXPECT_NEAR(va[k], vb[k], 1e-12)
                << sim::backendKindName(kind);
    }
}

TEST(CompiledCircuit, CompiledEnergiesAreBitIdenticalAcrossCalls)
{
    const auto ham = heisenbergHamiltonian(6, 1.0);
    std::vector<Circuit> population;
    for (uint64_t s = 0; s < 6; ++s)
        population.push_back(randomUnitaryCircuit(6, 40, 500 + s));

    EstimationConfig config;
    config.backend = sim::BackendKind::Statevector;
    EstimationEngine engine(ham, config);
    const auto first = engine.energies(population);
    const auto second = engine.energies(population);
    EstimationEngine fresh(ham, config);
    const auto third = fresh.energies(population);
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i], second[i]);
        EXPECT_EQ(first[i], third[i]);
    }
}

TEST(ShotAllocation, ProportionalToWeightsAndConservesBudget)
{
    const std::vector<double> weights = {3.0, 1.0, 0.5, 0.5};
    const auto shots = detail::allocateShotBudget(weights, 1000);
    ASSERT_EQ(shots.size(), 4u);
    EXPECT_EQ(std::accumulate(shots.begin(), shots.end(), size_t{0}),
              1000u);
    EXPECT_EQ(shots[0], 600u);
    EXPECT_EQ(shots[1], 200u);
    EXPECT_EQ(shots[2], 100u);
    EXPECT_EQ(shots[3], 100u);
}

TEST(ShotAllocation, EveryGroupGetsAtLeastOneShot)
{
    const std::vector<double> weights = {1000.0, 1e-9, 1e-9};
    const auto shots = detail::allocateShotBudget(weights, 300);
    EXPECT_EQ(std::accumulate(shots.begin(), shots.end(), size_t{0}),
              300u);
    for (const size_t s : shots)
        EXPECT_GE(s, 1u);
}

TEST(ShotAllocation, DegenerateInputs)
{
    EXPECT_TRUE(detail::allocateShotBudget({}, 100).empty());
    // Budget below the group count: one shot each.
    EXPECT_EQ(detail::allocateShotBudget({1.0, 1.0, 1.0}, 2),
              (std::vector<size_t>{1, 1, 1}));
    // Zero total weight: uniform split.
    EXPECT_EQ(detail::allocateShotBudget({0.0, 0.0}, 10),
              (std::vector<size_t>{5, 5}));
}

TEST(ShotAllocation, EngineAllocatesByGroupWeight)
{
    Hamiltonian ham(2);
    ham.addTerm(3.0, "ZZ");
    ham.addTerm(1.0, "XX");
    Circuit bell(2);
    bell.h(0);
    bell.cx(0, 1);

    EstimationConfig weighted;
    weighted.backend = sim::BackendKind::Statevector;
    weighted.shots = 100;
    EstimationEngine engine(ham, weighted);
    // Bell-state terms are deterministic, so the reallocation cannot
    // change the estimate — but the allocation itself must be 3:1.
    EXPECT_NEAR(engine.energy(bell), 4.0, 1e-12);
    const auto &alloc = engine.groupShotAllocation();
    ASSERT_EQ(alloc.size(), 2u);
    EXPECT_EQ(alloc[0] + alloc[1], 200u);
    EXPECT_EQ(std::max(alloc[0], alloc[1]), 150u);
}

TEST(ShotAllocation, WeightedEstimateStaysAccurate)
{
    const auto ham = heisenbergHamiltonian(4, 1.0);
    const Circuit c = randomUnitaryCircuit(4, 25, 17);

    EstimationConfig exact_config;
    exact_config.backend = sim::BackendKind::Statevector;
    EstimationEngine exact(ham, exact_config);
    const double reference = exact.energy(c);

    EstimationConfig shot_config = exact_config;
    shot_config.shots = 20000;
    shot_config.seed = 5;
    EstimationEngine weighted(ham, shot_config);
    EXPECT_NEAR(weighted.energy(c), reference, 0.15);
}
