/**
 * @file
 * Bit-level contracts of the Pauli-sum kernels at molecule scale:
 *
 *  - SweepOrder: both dense expectationBatch kernels equal, bit for bit,
 *    a reference written here that follows the summation order that
 *    sim/lane_sweep.hpp documents — on the vector lanes and on the
 *    scalar path, at OpenMP team sizes 1, 2 and 4 — so a kernel that
 *    re-associates a lane or slice sum fails;
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
#include <string_view>
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

/** A mixed state with complex off-diagonals. */
DensityMatrix
dampedRho(int n, uint64_t seed)
{
    DensityMatrix rho = dm_oracle::noiseless(boundFche(n, seed));
    DmPassBuilder damping(static_cast<size_t>(n));
    for (int q = 0; q < n; ++q)
        damping.channel(static_cast<size_t>(q),
                        amplitudeDampingSuperop(0.02 + 0.01 * q));
    rho.runPasses(damping.finish());
    return rho;
}

/**
 * The documented order (sim/lane_sweep.hpp): a sweep of dim states on
 * W lanes and S slices of len = dim / S. Lane j of slice s adds the
 * signed band values of states s len + j, s len + j + W, ... onto +0.0
 * in ascending order; each slice adds its lanes in ascending order; the
 * slices are added in ascending order onto +0.0; the term is the real
 * part of phase times that sum. Vector lanes (W = kLanes) take S = 8
 * when dim >= 16 W; the scalar path (W = 1) takes S = 8 when dim >=
 * 2^14; otherwise S = 1.
 */
template <class Band>
double
referenceTerm(size_t dim, bool vec, const PauliString &op, Band &&band)
{
    const size_t W = vec ? simd::kLanes : 1;
    const size_t S =
        (vec ? dim >= 16 * W : dim >= (size_t{1} << 14)) ? 8 : 1;
    const uint64_t x = op.xWords()[0];
    const uint64_t z = op.zWords()[0];
    const size_t len = dim / S;
    double re = 0.0, im = 0.0;
    for (size_t s = 0; s < S; ++s) {
        std::vector<double> lre(W, 0.0), lim(W, 0.0);
        for (size_t i = s * len; i < (s + 1) * len; i += W)
            for (size_t j = 0; j < W; ++j) {
                const cd w = band(i + j, x);
                const bool neg = std::popcount((i + j) & z) & 1;
                lre[j] += neg ? -w.real() : w.real();
                lim[j] += neg ? -w.imag() : w.imag();
            }
        double sre = lre[0], sim = lim[0];
        for (size_t j = 1; j < W; ++j) {
            sre += lre[j];
            sim += lim[j];
        }
        re += sre;
        im += sim;
    }
    return (op.phase() * cd{re, im}).real();
}

/** Statevector band: conj(a_{i^x}) a_i; for x = 0, |a_i|^2, which the
 *  avx2/avx512 lanes also carry in the imaginary slot. */
std::vector<double>
referenceSv(const Statevector &psi, const Hamiltonian &h, bool vec)
{
    const auto &a = psi.amplitudes();
    const bool norm_in_both =
        vec && std::string_view(simd::kCompiledIsa) != "generic";
    std::vector<double> out;
    for (const auto &t : h.terms())
        out.push_back(referenceTerm(
            psi.dim(), vec, t.op, [&](uint64_t i, uint64_t x) -> cd {
                if (x != 0)
                    return std::conj(a[i ^ x]) * a[i];
                const double n2 = std::norm(a[i]);
                return {n2, norm_in_both ? n2 : 0.0};
            }));
    return out;
}

/** Density-matrix band: rho[i, i^x]; for x = 0, (Re rho_ii, 0). */
std::vector<double>
referenceDm(const DensityMatrix &rho, const Hamiltonian &h, bool vec)
{
    const size_t d = rho.dim();
    const auto &data = rho.data();
    std::vector<double> out;
    for (const auto &t : h.terms())
        out.push_back(referenceTerm(
            d, vec, t.op, [&](uint64_t i, uint64_t x) -> cd {
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
    if (!simd::enabled())
        GTEST_SKIP() << "vector lanes not active (" << simd::kCompiledIsa
                     << " build)";
    Statevector psi(8);
    psi.run(boundFche(8, 11));
    for (const auto &h : moleculeScaleHamiltonians())
        EXPECT_TRUE(sameBits(referenceSv(psi, h, true),
                             psi.expectationBatch(h)));
}

TEST(SweepOrder, DensityMatrixMatchesDocumentedOrder)
{
    if (!simd::enabled())
        GTEST_SKIP() << "vector lanes not active (" << simd::kCompiledIsa
                     << " build)";
    const DensityMatrix rho = dampedRho(8, 12);
    for (const auto &h : moleculeScaleHamiltonians())
        EXPECT_TRUE(sameBits(referenceDm(rho, h, true),
                             rho.expectationBatch(h)));
}

TEST(SweepOrder, ScalarPathMatchesDocumentedOrder)
{
    SimdModeGuard scalar(0);
    Statevector psi(8);
    psi.run(boundFche(8, 13));
    const DensityMatrix rho = dampedRho(8, 14);
    for (const auto &h : moleculeScaleHamiltonians()) {
        EXPECT_TRUE(sameBits(referenceSv(psi, h, false),
                             psi.expectationBatch(h)));
        EXPECT_TRUE(sameBits(referenceDm(rho, h, false),
                             rho.expectationBatch(h)));
    }
    // At the grain the scalar path switches to eight slices.
    Statevector big(14);
    big.run(boundFche(14, 15));
    const auto h14 = heisenbergHamiltonian(14, 1.0);
    EXPECT_TRUE(sameBits(referenceSv(big, h14, false),
                         big.expectationBatch(h14)));
}

TEST(SweepOrder, LargeStatevectorAtEveryTeamAndAxis)
{
    // At 2^14 states both lane widths run eight slices; the Heisenberg
    // chain has 14 X-mask groups and the ZZ chain one.
    Statevector psi(14);
    psi.run(boundFche(14, 16));
    for (const Hamiltonian &h :
         {heisenbergHamiltonian(14, 1.0), zzChain(14, 11)}) {
        for (const int mode : {-1, 0}) {
            SimdModeGuard pin(mode);
            const auto want = referenceSv(psi, h, simd::enabled());
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
