/**
 * @file
 * Bit-level contracts of the Pauli-sum kernels at molecule scale:
 *
 *  - SweepOrder: both dense expectationBatch kernels equal, bit for bit,
 *    a reference written here that follows the one summation order
 *    that sim/lane_sweep.hpp documents — on the vector lanes and on the
 *    scalar path, at every register size from no qubits, and at OpenMP
 *    team sizes 1, 2 and 4 — so a kernel that re-associates a chain or
 *    slice sum fails on any build;
 *  - PauliSums: Hamiltonian::apply equals the per-basis-state product
 *    sum, groundStateEnergy() is pinned for the twelve 8-qubit
 *    Hamiltonians of the density-matrix figures, contentHash() is the
 *    FNV-1a fold of the term list through every mutation, and the
 *    density-matrix backend's readout damping is the per-term factor.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "ansatz/ansatz.hpp"
#include "common/rng.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "ham/molecule.hpp"
#include "noise/noise_model.hpp"
#include "sim/backend.hpp"
#include "sim/density_matrix.hpp"
#include "sim/simd.hpp"
#include "sim/statevector.hpp"

#include "dm_oracle.hpp"
#include "omp_team.hpp"

using namespace eftvqa;
using cd = std::complex<double>;

namespace {

struct SimdModeGuard
{
    explicit SimdModeGuard(int mode) { simd::setSimdMode(mode); }
    ~SimdModeGuard() { simd::setSimdMode(-1); }
};

/** FCHE on n qubits bound to seeded angles (no symmetric zeros). */
Circuit
boundFche(int n, uint64_t seed)
{
    const auto ansatz = fcheAnsatz(n, 1);
    Rng rng(seed);
    std::vector<double> params(ansatz.nParameters());
    for (auto &p : params)
        p = rng.uniform(-M_PI, M_PI);
    return ansatz.bind(params);
}

/** Seeded Ry, Rz on every qubit, a CX chain, then Ry again: complex
 *  amplitudes on any register from one qubit. */
Circuit
spread(int n, uint64_t seed)
{
    Rng rng(seed);
    Circuit c(n);
    for (int q = 0; q < n; ++q) {
        c.add(Gate::rotation(GateType::Ry, q, rng.uniform(-M_PI, M_PI)));
        c.add(Gate::rotation(GateType::Rz, q, rng.uniform(-M_PI, M_PI)));
    }
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    for (int q = 0; q < n; ++q)
        c.add(Gate::rotation(GateType::Ry, q, rng.uniform(-M_PI, M_PI)));
    return c;
}

/** A mixed state with complex off-diagonals. */
DensityMatrix
dampedRho(int n, uint64_t seed)
{
    DensityMatrix rho = dm_oracle::noiseless(spread(n, seed));
    DmPassBuilder damping(static_cast<size_t>(n));
    for (int q = 0; q < n; ++q)
        damping.channel(static_cast<size_t>(q),
                        amplitudeDampingSuperop(0.02 + 0.01 * q));
    rho.runPasses(damping.finish());
    return rho;
}

/**
 * The documented order (sim/lane_sweep.hpp), one on every build and in
 * both SIMD modes: a sweep of dim states runs S slices of len = dim / S
 * states, S = 8 from 32 states and 1 below, and two chains per slice.
 * Chain j of slice s adds the signed band values of states s len + j,
 * s len + j + 2, ... onto +0.0 in ascending order; a slice adds chain 1
 * to chain 0; the slices are added in ascending order onto +0.0; the
 * term is the real part of phase times that sum.
 */
template <class Band>
double
referenceTerm(size_t dim, const PauliString &op, Band &&band)
{
    const size_t S = dim >= 32 ? 8 : 1;
    const uint64_t x = op.xWords().empty() ? 0 : op.xWords()[0];
    const uint64_t z = op.zWords().empty() ? 0 : op.zWords()[0];
    const size_t len = dim / S;
    double re = 0.0, im = 0.0;
    for (size_t s = 0; s < S; ++s) {
        double cre[2] = {0.0, 0.0}, cim[2] = {0.0, 0.0};
        for (size_t i = s * len; i < (s + 1) * len; ++i) {
            const cd w = band(i, x);
            const bool neg = std::popcount(i & z) & 1;
            cre[i & 1] += neg ? -w.real() : w.real();
            cim[i & 1] += neg ? -w.imag() : w.imag();
        }
        re += cre[0] + cre[1];
        im += cim[0] + cim[1];
    }
    return (op.phase() * cd{re, im}).real();
}

/** Statevector band: conj(a_{i^x}) a_i; for x = 0, |a_i|^2 in both
 *  slots. */
std::vector<double>
referenceSv(const Statevector &psi, const Hamiltonian &h)
{
    const auto &a = psi.amplitudes();
    std::vector<double> out;
    for (const auto &t : h.terms())
        out.push_back(referenceTerm(
            psi.dim(), t.op, [&](uint64_t i, uint64_t x) -> cd {
                if (x != 0)
                    return std::conj(a[i ^ x]) * a[i];
                const double n2 = std::norm(a[i]);
                return {n2, n2};
            }));
    return out;
}

/** Density-matrix band: rho[i, i^x]; for x = 0, (Re rho_ii, 0). */
std::vector<double>
referenceDm(const DensityMatrix &rho, const Hamiltonian &h)
{
    const size_t d = rho.dim();
    const auto &data = rho.data();
    std::vector<double> out;
    for (const auto &t : h.terms())
        out.push_back(referenceTerm(
            d, t.op, [&](uint64_t i, uint64_t x) -> cd {
                if (x == 0)
                    return {data[i * d + i].real(), 0.0};
                return data[i * d + (i ^ x)];
            }));
    return out;
}

/** memcmp equality, reporting the first differing term. */
::testing::AssertionResult
sameBits(const std::vector<double> &want, const std::vector<double> &got)
{
    if (want.size() != got.size())
        return ::testing::AssertionFailure()
               << "size " << got.size() << " != " << want.size();
    for (size_t k = 0; k < want.size(); ++k)
        if (std::memcmp(&want[k], &got[k], sizeof(double)) != 0)
            return ::testing::AssertionFailure()
                   << "term " << k << ": " << got[k] << " != " << want[k];
    return ::testing::AssertionSuccess();
}

std::vector<Hamiltonian>
moleculeScaleHamiltonians()
{
    return {moleculeHamiltonian({Molecule::H6, 1.0, 8}),
            heisenbergHamiltonian(8, 0.75)};
}

/** Every one-qubit Pauli on n qubits, the identity and 24 seeded random
 *  strings: X-masks inside and across vector registers, Z-masks with
 *  and without bit 0. */
Hamiltonian
randomPauliSum(int n, uint64_t seed)
{
    Hamiltonian h(n);
    Rng rng(seed);
    h.addTerm(0.5, std::string(n, 'I'));
    for (int q = 0; q < n; ++q)
        for (const char p : {'X', 'Y', 'Z'}) {
            std::string label(n, 'I');
            label[q] = p;
            h.addTerm(rng.uniform(-1.0, 1.0), label);
        }
    for (int k = 0; k < 24; ++k) {
        std::string label(n, 'I');
        for (auto &c : label)
            c = "IXYZ"[rng.uniformInt(4)];
        h.addTerm(rng.uniform(-1.0, 1.0), label);
    }
    return h;
}

/** Register sizes of the order tests, from no qubits (one state, an
 *  empty second chain): 2 states (scalar on AVX-512), 16 to 32 (where
 *  eight slices start) and, on the statevector, 2^15 (two scratch
 *  blocks per slice). A 14-qubit density matrix would hold 4 GiB, so
 *  it stops at 10 qubits. */
constexpr int kMaxSvQubits = 15;
constexpr int kMaxDmQubits = 10;

/** Every statevector size in the current SIMD mode, bit for bit. */
void
expectStatevectorOrder()
{
    for (int n = 0; n <= kMaxSvQubits; ++n) {
        Statevector psi(n);
        psi.run(spread(n, 100 + n));
        const Hamiltonian h = randomPauliSum(n, 200 + n);
        EXPECT_TRUE(sameBits(referenceSv(psi, h), psi.expectationBatch(h)))
            << n << " qubits, " << simd::activeIsa();
    }
    Statevector psi(8);
    psi.run(boundFche(8, 11));
    for (const auto &h : moleculeScaleHamiltonians())
        EXPECT_TRUE(sameBits(referenceSv(psi, h), psi.expectationBatch(h)));
}

/** Every density-matrix size in the current SIMD mode, bit for bit. */
void
expectDensityMatrixOrder()
{
    for (int n = 0; n <= kMaxDmQubits; ++n) {
        const DensityMatrix rho = dampedRho(n, 300 + n);
        const Hamiltonian h = randomPauliSum(n, 400 + n);
        EXPECT_TRUE(sameBits(referenceDm(rho, h), rho.expectationBatch(h)))
            << n << " qubits, " << simd::activeIsa();
    }
    const DensityMatrix rho = dampedRho(8, 12);
    for (const auto &h : moleculeScaleHamiltonians())
        EXPECT_TRUE(sameBits(referenceDm(rho, h), rho.expectationBatch(h)));
}

/** One X-mask group: ZZ on the first @p terms neighbour pairs. */
Hamiltonian
zzChain(int n, int terms)
{
    Hamiltonian chain(n);
    for (int q = 0; q < terms; ++q) {
        std::string label(n, 'I');
        label[q] = label[q + 1] = 'Z';
        chain.addTerm(0.5 + 0.1 * q, label);
    }
    return chain;
}

} // namespace

TEST(SweepOrder, StatevectorMatchesDocumentedOrder)
{
    // The vector lanes where the build has them, else the scalar path.
    expectStatevectorOrder();
}

TEST(SweepOrder, DensityMatrixMatchesDocumentedOrder)
{
    expectDensityMatrixOrder();
}

TEST(SweepOrder, ScalarPathMatchesDocumentedOrder)
{
    SimdModeGuard scalar(0);
    expectStatevectorOrder();
    expectDensityMatrixOrder();
}

TEST(SweepOrder, LargeStatevectorAtEveryTeamAndAxis)
{
    // At 2^14 states every path runs eight slices; the Heisenberg chain
    // has 14 X-mask groups and the ZZ chain one.
    Statevector psi(14);
    psi.run(boundFche(14, 16));
    for (const Hamiltonian &h :
         {heisenbergHamiltonian(14, 1.0), zzChain(14, 11)}) {
        const auto want = referenceSv(psi, h);
        for (const int mode : {-1, 0}) {
            SimdModeGuard pin(mode);
            for (const int threads : omp_team::sizes()) {
                omp_team::Guard team(threads);
                EXPECT_TRUE(sameBits(want, psi.expectationBatch(h)))
                    << "simd mode " << mode << ", " << threads
                    << " threads, " << h.nTerms() << " terms";
            }
        }
    }
}

TEST(SweepOrder, ScalarBatchThreadCountInvariant)
{
    // A single X-mask group (11 ZZ terms) over 2^14 amplitudes, twenty
    // rounds at each team size.
    const int n = 14;
    Statevector psi(n);
    psi.run(boundFche(n, 17));
    const Hamiltonian chain = zzChain(n, 11);
    for (const int mode : {0, -1}) {
        SimdModeGuard pin(mode);
        const auto one = [&] {
            omp_team::Guard team(1);
            return psi.expectationBatch(chain);
        }();
        for (int round = 0; round < 20; ++round)
            for (const int threads : omp_team::sizes()) {
                omp_team::Guard team(threads);
                ASSERT_TRUE(sameBits(one, psi.expectationBatch(chain)))
                    << "simd mode " << mode << ", " << threads
                    << " threads, round " << round;
            }
    }
}

TEST(PauliSums, ApplyMatchesPerBasisProducts)
{
    // H|v> row j accumulates, in term order, c * (i^e (+-1)) * v[i]
    // for the one i with P|i> ~ |j>.
    const auto h = moleculeHamiltonian({Molecule::LiH, 4.5, 6});
    Statevector psi(6);
    psi.run(boundFche(6, 18));
    const std::vector<cd> v(psi.amplitudes().begin(),
                            psi.amplitudes().end());
    std::vector<cd> want(v.size(), cd{0.0, 0.0});
    for (const auto &t : h.terms()) {
        cd amp;
        for (uint64_t i = 0; i < v.size(); ++i) {
            const uint64_t j = t.op.applyToBasis(i, amp);
            want[j] += t.coefficient * amp * v[i];
        }
    }
    std::vector<cd> got;
    h.apply(v, got);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(cd)),
              0);
}

TEST(PauliSums, GroundStateEnergiesPinned)
{
    // The exact references of dm_vqe's and fig13's twelve 8-qubit
    // cells, as IEEE-754 bit patterns.
    const std::pair<Hamiltonian, uint64_t> pinned[] = {
        {isingHamiltonian(8, 0.25), 0xc020382860c07cd5ull},
        {isingHamiltonian(8, 0.5), 0xc020e298a2032365ull},
        {isingHamiltonian(8, 1.0), 0xc023ad07f8dc2122ull},
        {heisenbergHamiltonian(8, 0.25), 0xc01e5d3f66c10940ull},
        {heisenbergHamiltonian(8, 0.5), 0xc02271f1d93cc7ccull},
        {heisenbergHamiltonian(8, 1.0), 0xc02affdca98b4c16ull},
        {moleculeHamiltonian({Molecule::H2O, 1.0, 8}), 0xc02a02deaa17810eull},
        {moleculeHamiltonian({Molecule::H2O, 4.5, 8}), 0xc02d3bfac1ea9a86ull},
        {moleculeHamiltonian({Molecule::H6, 1.0, 8}), 0xc02e672d2cb00214ull},
        {moleculeHamiltonian({Molecule::H6, 4.5, 8}), 0xc0309f1a5e30f8c3ull},
        {moleculeHamiltonian({Molecule::LiH, 1.0, 8}), 0xc028682370f54c14ull},
        {moleculeHamiltonian({Molecule::LiH, 4.5, 8}), 0xc02e49c3c8e65974ull},
    };
    for (const auto &[h, bits] : pinned)
        EXPECT_EQ(std::bit_cast<uint64_t>(h.groundStateEnergy()), bits)
            << h.groundStateEnergy();
}

namespace {

/** FNV-1a over the width, then per term its coefficient bits, its Pauli
 *  letter on every qubit and its phase exponent. */
uint64_t
fnvFold(const Hamiltonian &h)
{
    uint64_t acc = 0xCBF29CE484222325ull;
    auto mix = [&acc](uint64_t v) { acc = (acc ^ v) * 0x100000001B3ull; };
    mix(h.nQubits());
    for (const auto &t : h.terms()) {
        mix(std::bit_cast<uint64_t>(t.coefficient));
        for (size_t q = 0; q < h.nQubits(); ++q)
            mix(static_cast<uint64_t>(t.op.at(q)));
        mix(static_cast<uint64_t>(t.op.phaseExponent()));
    }
    return acc;
}

} // namespace

TEST(PauliSums, ContentHashIsTheFnvFold)
{
    Hamiltonian h(70); // two mask words
    EXPECT_EQ(h.contentHash(), fnvFold(h));
    std::string label(70, 'I');
    label[0] = 'X';
    label[65] = 'Y';
    h.addTerm(0.5, label);
    label[3] = 'Z';
    h.addTerm(-0.25, label);
    label[0] = 'Y';
    h.addTerm(1e-14, label);
    h.addTerm(0.125, PauliString(70));
    label[3] = 'I';
    label[0] = 'X';
    h.addTerm(0.5, label); // duplicates the first term
    EXPECT_EQ(h.contentHash(), fnvFold(h));

    // compress merges the duplicate and drops the tiny term.
    const uint64_t before = h.contentHash();
    h.compress(1e-12);
    ASSERT_EQ(h.nTerms(), 3u);
    EXPECT_NE(h.contentHash(), before);
    EXPECT_EQ(h.contentHash(), fnvFold(h));

    const Hamiltonian copy = h;
    EXPECT_EQ(copy.contentHash(), fnvFold(copy));
    EXPECT_EQ(copy.contentHash(), h.contentHash());

    Hamiltonian moved = std::move(h);
    EXPECT_EQ(moved.contentHash(), fnvFold(moved));
    EXPECT_EQ(moved.contentHash(), copy.contentHash());
    // The moved-from Hamiltonian is empty, and its hash says so.
    EXPECT_EQ(h.nTerms(), 0u);
    EXPECT_EQ(h.contentHash(), fnvFold(h));

    Hamiltonian assigned(2);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.contentHash(), copy.contentHash());
    EXPECT_EQ(moved.contentHash(), fnvFold(moved));

    // The molecule builder's terms fold the same way.
    const auto mol = moleculeHamiltonian({Molecule::H6, 1.0, 8});
    EXPECT_EQ(mol.contentHash(), fnvFold(mol));
}

TEST(PauliSums, DensityMatrixReadoutDampingPerTerm)
{
    // Under nisqDensityMatrix (meas_flip > 0) every batched term is the
    // bare expectation times its own (1 - 2p)^weight factor.
    const int n = 6;
    const auto noise = sim::NoiseModel::nisq();
    ASSERT_GT(noise.dm.meas_flip, 0.0);
    const Circuit c = boundFche(n, 19);
    const auto h = moleculeHamiltonian({Molecule::H2O, 4.5, n});

    auto backend = sim::makeBackend(sim::BackendKind::DensityMatrix, n,
                                    &noise);
    backend->prepare(c);
    const std::vector<double> got = backend->expectationBatch(h);

    DensityMatrix rho(n);
    rho.runPasses(compileNoisyDmStream(c, noise.dm));
    std::vector<double> want = rho.expectationBatch(h);
    for (size_t k = 0; k < want.size(); ++k)
        want[k] *= readoutDampingFactor(noise.dm.meas_flip, h.terms()[k].op);
    EXPECT_TRUE(sameBits(want, got));
}
