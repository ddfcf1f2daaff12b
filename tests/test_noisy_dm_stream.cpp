/**
 * @file
 * The density-matrix DmPass stream (noise/noise_model.hpp,
 * sim/density_matrix.hpp) against the independent Kraus oracle of
 * dm_oracle.hpp: a gate-by-gate loop of scalar unitary conjugations,
 * Kraus sums (thermalRelaxationChannel and Pauli Kraus sets) and the
 * two-qubit depolarizing channel written as the weighted sum of its 15
 * Pauli conjugations. Plus the stream's pass-count bound, the live
 * prefix of runPassesFromZero() against runPasses() on a fresh matrix
 * (memcmp, or up to the sign of an exact zero), the pair pass on every
 * gate, the fused stream (pair passes carrying their qubits' pending
 * maps) against its unfused form by memcmp, and DmNoiseSpec::validate().
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ansatz/ansatz.hpp"
#include "common/rng.hpp"
#include "ham/heisenberg.hpp"
#include "noise/noise_model.hpp"
#include "sim/backend.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/simd.hpp"
#include "vqa/experiment.hpp"

#include "dm_oracle.hpp"

using namespace eftvqa;
using dm_oracle::maxAbsDiff;

namespace {

constexpr double kTol = 1e-12;

/** Pin the SIMD dispatch mode for a scope; restores auto on exit. */
struct SimdModeGuard
{
    explicit SimdModeGuard(int mode) { simd::setSimdMode(mode); }
    ~SimdModeGuard() { simd::setSimdMode(-1); }
};

/** Every DmNoiseSpec field non-zero, at rates large enough to matter. */
DmNoiseSpec
everyFieldSpec()
{
    DmNoiseSpec spec;
    spec.one_qubit_depol = 0.021;
    spec.two_qubit_depol = 0.047;
    spec.rotation = {0.013, 0.008, 0.031};
    spec.meas_flip = 0.02;
    spec.use_relaxation = true;
    spec.t1_ns = 4e3;
    spec.t2_ns = 5e3;
    spec.time_1q_ns = 60;
    spec.time_2q_ns = 300;
    spec.idle_depol = 0.009;
    return spec;
}

/** The specs every stream test runs: both presets and every field. */
std::vector<std::pair<std::string, DmNoiseSpec>>
streamSpecs()
{
    return {{"nisq", nisqDmSpec(NisqParams{})},
            {"pqec", pqecDmSpec(PqecParams{})},
            {"every-field", everyFieldSpec()}};
}

constexpr GateType kAllGates[] = {
    GateType::I,  GateType::X,     GateType::Y,     GateType::Z,
    GateType::H,  GateType::S,     GateType::Sdg,   GateType::T,
    GateType::Tdg, GateType::CX,   GateType::CZ,    GateType::Swap,
    GateType::Rz, GateType::Rx,    GateType::Ry,    GateType::Measure,
    GateType::Reset};

/**
 * Seeded random circuit over every gate type. Odd seeds are idle-heavy:
 * most gates land on qubits 0 and 1, so the other qubits sit through
 * long runs of idle layers.
 */
Circuit
randomCircuit(size_t n, uint64_t seed, std::set<GateType> &seen)
{
    Rng rng(seed);
    Circuit c(n);
    const size_t len = 8 + 5 * n;
    const bool idle_heavy = seed % 2 == 1;
    const auto pick = [&]() -> uint32_t {
        if (idle_heavy && n > 2 && rng.uniform() < 0.8)
            return static_cast<uint32_t>(rng.uniformInt(2));
        return static_cast<uint32_t>(rng.uniformInt(n));
    };
    for (size_t k = 0; k < len; ++k) {
        GateType t = kAllGates[rng.uniformInt(std::size(kAllGates))];
        if (isTwoQubitType(t) && n < 2)
            t = GateType::H;
        Gate g(t, pick());
        if (isTwoQubitType(t)) {
            g.q1 = pick();
            while (g.q1 == g.q0)
                g.q1 = static_cast<uint32_t>(rng.uniformInt(n));
        }
        if (isRotationType(t))
            g.angle = (rng.uniform() - 0.5) * 4.0 * M_PI;
        seen.insert(t);
        c.add(g);
    }
    return c;
}

/** Start from a random mixed state so every element of rho is live. */
void
mixedStart(DensityMatrix &rho, uint64_t seed)
{
    Rng rng(seed ^ 0xA5A5ull);
    for (size_t q = 0; q < rho.nQubits(); ++q) {
        dm_oracle::conjugate1q(
            rho, gateMatrix1q(GateType::Ry, rng.uniform() * 3.0), q);
        dm_oracle::conjugate1q(
            rho, gateMatrix1q(GateType::Rz, rng.uniform() * 3.0), q);
        dm_oracle::kraus1q(
            rho, dm_oracle::amplitudeDampingKraus(0.2 * rng.uniform()), q);
    }
}

/** FCHE-8 at depth 1 with seeded angles: the shipped DM workloads' ansatz. */
Circuit
fche8Circuit()
{
    const auto ansatz = fcheAnsatz(8, 1);
    Rng rng(3);
    std::vector<double> params(ansatz.nParameters());
    for (auto &p : params)
        p = rng.uniform() * 2.0 * M_PI;
    return ansatz.bind(params);
}

bool
sameBytes(const DensityMatrix &a, const DensityMatrix &b)
{
    return a.data().size() == b.data().size() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(a.data()[0])) == 0;
}

/**
 * The unfused form of a stream: each Pair pass becomes a Map pass per
 * map it carries (q0's, then q1's) plus the bare pair pass. A fused
 * stream must equal it byte for byte.
 */
std::vector<DmPass>
defuse(const std::vector<DmPass> &passes)
{
    std::vector<DmPass> out;
    for (const DmPass &p : passes) {
        if (p.kind != DmPass::Kind::Pair) {
            out.push_back(p);
            continue;
        }
        DmPass bare = p;
        for (int k = 0; k < 2; ++k) {
            bare.map[k] = DmMap{};
            if (p.map[k].kind == DmMap::Kind::None)
                continue;
            DmPass flush;
            flush.q0 = k == 0 ? p.q0 : p.q1;
            flush.map[0] = p.map[k];
            out.push_back(flush);
        }
        out.push_back(bare);
    }
    return out;
}

/**
 * @p passes against defuse(@p passes) through runPasses() from the same
 * mixed state, in both SIMD modes, and the two modes against each
 * other: memcmp over rho's storage.
 */
void
expectFusedBytes(size_t n, const std::vector<DmPass> &passes,
                 const std::string &what)
{
    const std::vector<DmPass> unfused = defuse(passes);
    std::vector<DensityMatrix> by_mode;
    for (const int mode : {-1, 0}) {
        SimdModeGuard guard(mode);
        DensityMatrix fused(n), ref(n);
        mixedStart(fused, n + passes.size());
        mixedStart(ref, n + passes.size());
        fused.runPasses(passes);
        ref.runPasses(unfused);
        EXPECT_TRUE(sameBytes(fused, ref)) << what << " simd " << mode;
        by_mode.push_back(std::move(fused));
    }
    EXPECT_TRUE(sameBytes(by_mode[0], by_mode[1])) << what << " simd/scalar";
}

/**
 * runPassesFromZero() on a matrix holding a stale mixed state (as a
 * reused backend's does) against runPasses() on a fresh |0..0> matrix,
 * in both SIMD modes: memcmp over rho's storage.
 */
void
expectLivePrefixBytes(const Circuit &c, const DmNoiseSpec &spec,
                      const std::string &what)
{
    const size_t n = c.nQubits();
    const std::vector<DmPass> passes = compileNoisyDmStream(c, spec);
    for (const int mode : {-1, 0}) {
        SimdModeGuard guard(mode);
        DensityMatrix full(n);
        full.runPasses(passes);
        DensityMatrix live(n);
        mixedStart(live, n + passes.size());
        live.runPassesFromZero(passes);
        EXPECT_TRUE(sameBytes(live, full)) << what << " simd " << mode;
        // A second prepare on the same object reads nothing of the first.
        live.runPassesFromZero(passes);
        EXPECT_TRUE(sameBytes(live, full))
            << what << " simd " << mode << " (reused)";
    }
}

} // namespace

TEST(NoisyDmStream, MatchesKrausOracleOnRandomCircuits)
{
    // From a mixed start through runPasses(), and from |0..0> through
    // the live prefix of runPassesFromZero(); the noiseless stream too.
    std::set<GateType> seen;
    double worst = 0.0;
    auto specs = streamSpecs();
    specs.emplace_back("noiseless", DmNoiseSpec{});
    for (uint64_t seed = 0; seed < 60; ++seed) {
        const size_t n = 1 + seed % 6;
        const Circuit c = randomCircuit(n, seed, seen);
        for (const auto &[name, spec] : specs) {
            DensityMatrix ref(n), ref_zero(n);
            mixedStart(ref, seed);
            dm_oracle::run(c, spec, ref);
            dm_oracle::run(c, spec, ref_zero);
            for (const int mode : {-1, 0}) {
                SimdModeGuard guard(mode);
                DensityMatrix rho(n), from_zero(n);
                mixedStart(rho, seed);
                rho.runPasses(compileNoisyDmStream(c, spec));
                from_zero.runPassesFromZero(compileNoisyDmStream(c, spec));
                const double diff = std::max(maxAbsDiff(rho, ref),
                                             maxAbsDiff(from_zero, ref_zero));
                worst = std::max(worst, diff);
                EXPECT_LE(diff, kTol) << "seed " << seed << " n " << n
                                      << " spec " << name << " simd "
                                      << mode;
            }
        }
    }
    for (const GateType t : kAllGates)
        EXPECT_TRUE(seen.count(t)) << "never drew " << gateName(t);
    char worst_str[32];
    std::snprintf(worst_str, sizeof worst_str, "%.3g", worst);
    RecordProperty("max_abs_diff", worst_str);
}

TEST(NoisyDmStream, BackendEnergyIsTheOracleTrace)
{
    // The production path (makeBackend -> prepare -> energy) over the
    // stream equals Tr(H rho_oracle) with the analytic readout damping.
    const size_t n = 5;
    const auto ham = heisenbergHamiltonian(n, 0.7);
    std::set<GateType> seen;
    for (uint64_t seed = 100; seed < 106; ++seed) {
        const Circuit c = randomCircuit(n, seed, seen);
        const DmNoiseSpec spec = everyFieldSpec();
        DensityMatrix ref(n);
        dm_oracle::run(c, spec, ref);
        double expected = 0.0;
        for (const auto &t : ham.terms())
            expected += t.coefficient *
                        readoutDampingFactor(spec.meas_flip, t.op) *
                        ref.expectation(t.op);

        sim::NoiseModel model;
        model.dm = spec;
        const auto backend =
            sim::makeBackend(sim::BackendKind::DensityMatrix, n, &model);
        backend->prepare(c);
        EXPECT_NEAR(backend->energy(ham), expected, kTol) << seed;
        backend->prepareCompiled(CompiledCircuit(c));
        EXPECT_NEAR(backend->energy(ham), expected, kTol) << seed;
    }
}

TEST(NoisyDmStream, Fche8PassCountIsBounded)
{
    // One pair pass per two-qubit gate, carrying its qubits' pending
    // maps, and at most one final Map pass per qubit.
    const size_t n = 8;
    const Circuit c = fche8Circuit();
    size_t two_qubit = 0;
    for (const Gate &g : c.gates())
        two_qubit += g.isTwoQubit() ? 1 : 0;
    ASSERT_EQ(two_qubit, 28u);

    for (const DmNoiseSpec &spec :
         {nisqDmSpec(NisqParams{}), pqecDmSpec(PqecParams{})}) {
        const std::vector<DmPass> passes = compileNoisyDmStream(c, spec);
        EXPECT_LE(passes.size(), two_qubit + n);
        size_t pairs = 0;
        for (const DmPass &p : passes)
            pairs += p.kind == DmPass::Kind::Pair ? 1 : 0;
        EXPECT_EQ(pairs, two_qubit);
    }
}

TEST(NoisyDmStream, LivePrefixIsBitIdenticalToFullWidth)
{
    const auto specs = streamSpecs();
    std::set<GateType> seen;
    for (uint64_t seed = 0; seed < 60; ++seed) {
        const Circuit c = randomCircuit(1 + seed % 6, seed, seen);
        for (const auto &[name, spec] : specs)
            expectLivePrefixBytes(c, spec,
                                  "seed " + std::to_string(seed) + " " +
                                      name);
    }

    const Circuit fche = fche8Circuit();
    expectLivePrefixBytes(fche, nisqDmSpec(NisqParams{}), "fche8 nisq");
    expectLivePrefixBytes(fche, pqecDmSpec(PqecParams{}), "fche8 pqec");

    // The first pass names the top qubit: full width from the start.
    Circuit top(6);
    top.h(0);
    top.rx(5, 0.7);
    top.cx(5, 3);
    top.cx(0, 1);
    top.cz(2, 4);
    top.ry(3, -1.1);
    top.cx(3, 0);
    // Qubit 3 meets no two-qubit gate: its one pass is the final flush.
    Circuit lone(4);
    lone.h(3);
    lone.rz(3, 0.4);
    lone.ry(0, 0.9);
    lone.cx(0, 1);
    lone.cx(1, 2);
    lone.h(3);
    lone.swap(2, 0);
    // Mid-circuit Measure and Reset between two-qubit gates.
    Circuit mid(5);
    mid.h(0);
    mid.cx(0, 1);
    mid.add(Gate(GateType::Measure, 1));
    mid.add(Gate(GateType::Reset, 0));
    mid.rx(2, 1.3);
    mid.cx(1, 2);
    mid.add(Gate(GateType::Measure, 2));
    mid.cz(2, 3);
    mid.add(Gate(GateType::Reset, 1));
    mid.cx(3, 4);
    mid.h(4);
    mid.add(Gate(GateType::Measure, 4));
    for (const auto &[name, spec] : specs) {
        expectLivePrefixBytes(top, spec, "cx(5,3) first " + name);
        expectLivePrefixBytes(lone, spec, "lone qubit " + name);
        expectLivePrefixBytes(mid, spec, "measure/reset " + name);
    }
}

TEST(NoisyDmStream, LivePrefixDiffersFromFullWidthOnlyInTheSignOfZero)
{
    // At full width this CZ pass negates entries of qubit 2 that are
    // still exact zeros, writing -0 over +0; the live prefix zeroes
    // them (+0) when it grows. Every entry compares equal, and every
    // expectation — each sweep accumulates from +0 — is byte-identical.
    const size_t n = 3;
    Circuit c(n);
    c.h(0);
    c.h(1);
    c.cz(0, 1);
    const std::vector<DmPass> passes =
        compileNoisyDmStream(c, pqecDmSpec(PqecParams{}));
    Hamiltonian every(n);
    for (size_t k = 0; k < (size_t{1} << (2 * n)); ++k) {
        std::string label;
        for (size_t q = 0; q < n; ++q)
            label += "IXYZ"[(k >> (2 * q)) & 3];
        every.addTerm(1.0, label);
    }
    for (const int mode : {-1, 0}) {
        SimdModeGuard guard(mode);
        DensityMatrix full(n), live(n);
        full.runPasses(passes);
        live.runPassesFromZero(passes);
        for (size_t i = 0; i < full.data().size(); ++i)
            EXPECT_EQ(live.data()[i], full.data()[i]) << i;
        const std::vector<double> a = full.expectationBatch(every);
        const std::vector<double> b = live.expectationBatch(every);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
                  0)
            << "simd " << mode;
    }
}

TEST(NoisyDmStream, LivePrefixRejectsBadPassesAndStaysAWholeMatrix)
{
    // Valid passes on qubits 0 and 1 of a 4-qubit register, then one
    // the kernels reject: rho must throw like runPasses() and hold the
    // full-width result of the valid passes, embedded at all 4 qubits.
    const size_t n = 4;
    Circuit c(n);
    c.h(0);
    c.cx(0, 1);
    const std::vector<DmPass> valid =
        compileNoisyDmStream(c, nisqDmSpec(NisqParams{}));
    DensityMatrix expected(n);
    expected.runPasses(valid);

    DmPass superop; // a Map pass
    superop.q0 = n;
    superop.map[0].kind = DmMap::Kind::Superop;
    superop.map[0].superop = unitarySuperop(gateMatrix1q(GateType::H));
    DmPass channel = superop;
    channel.map[0].kind = DmMap::Kind::Channel;
    channel.map[0].superop = amplitudeDampingSuperop(0.1);
    DmPass pair;
    pair.kind = DmPass::Kind::Pair;
    pair.gate = GateType::CX;
    pair.q0 = 0;
    pair.q1 = n;
    DmPass same_qubit = pair; // rejected inside the live block
    same_qubit.q1 = 0;

    const auto check = [&](const DmPass &bad, auto exception_tag,
                           const char *what) {
        using E = decltype(exception_tag);
        std::vector<DmPass> passes = valid;
        passes.push_back(bad);
        DensityMatrix full(n);
        EXPECT_THROW(full.runPasses(passes), E) << what;
        DensityMatrix live(n);
        mixedStart(live, 11);
        EXPECT_THROW(live.runPassesFromZero(passes), E) << what;
        EXPECT_EQ(live.nQubits(), n) << what;
        EXPECT_EQ(live.data().size(), size_t{1} << (2 * n)) << what;
        EXPECT_TRUE(sameBytes(live, expected)) << what;
    };
    check(superop, std::out_of_range("superop"), "superop on qubit n");
    check(channel, std::out_of_range("channel"), "channel on qubit n");
    check(pair, std::invalid_argument("pair"), "pair on qubit n");
    check(same_qubit, std::invalid_argument("pair"), "pair on (0, 0)");
}

TEST(NoisyDmStream, LivePrefixEngagesOnFche8)
{
    // The runner's own width rule (dmLiveWidth) over FCHE-8 depth 1:
    // how many passes still sweep all 8 qubits, and the share of the
    // full-width entry visits the prefix keeps. A change that falls
    // back to full width fails here, not only in the benchmark.
    const size_t n = 8;
    const Circuit c = fche8Circuit();
    const struct
    {
        const char *name;
        DmNoiseSpec spec;
        size_t passes, full_width;
        double visit_share;
    } cases[] = {
        {"nisq", nisqDmSpec(NisqParams{}), 36, 24, 0.694},
        {"pqec", pqecDmSpec(PqecParams{}), 34, 22, 0.676},
    };
    for (const auto &cs : cases) {
        const std::vector<DmPass> passes = compileNoisyDmStream(c, cs.spec);
        ASSERT_EQ(passes.size(), cs.passes) << cs.name;
        size_t m = 0, full_width = 0;
        double visits = 0.0;
        for (const DmPass &p : passes) {
            m = dmLiveWidth(p, m, n);
            full_width += m == n ? 1 : 0;
            visits += std::ldexp(1.0, static_cast<int>(2 * m));
        }
        const double share =
            visits / (std::ldexp(1.0, static_cast<int>(2 * n)) *
                      static_cast<double>(passes.size()));
        EXPECT_EQ(full_width, cs.full_width) << cs.name;
        EXPECT_NEAR(share, cs.visit_share, 5e-4) << cs.name;
    }
}

TEST(NoisyDmStream, PairPassMatchesMatrixConjugationForEveryGate)
{
    // The stream's lambda = 0 CX/CZ/Swap pair pass (the noiseless
    // prepare's two-qubit gates) equals the oracle's dense 4x4
    // conjugation, for both qubit orders, including pairs on bit 0.
    const size_t n = 4;
    for (const GateType t : {GateType::CX, GateType::CZ, GateType::Swap}) {
        for (uint32_t a = 0; a < n; ++a) {
            for (uint32_t b = 0; b < n; ++b) {
                if (a == b)
                    continue;
                DensityMatrix fast(n), ref(n);
                mixedStart(fast, a * 7 + b);
                mixedStart(ref, a * 7 + b);
                const Gate g(t, a, b);
                DmPassBuilder stream(n);
                stream.gate2q(g, 0.0);
                fast.runPasses(stream.finish());
                dm_oracle::conjugate2q(ref, gateMatrix2q(g, a, b), a, b);
                EXPECT_LE(maxAbsDiff(fast, ref), kTol)
                    << gateName(t) << " " << a << " " << b;
            }
        }
    }
}

TEST(NoisyDmStream, FusedStreamIsBitIdenticalToTheUnfusedStream)
{
    // Each pair pass applies its qubits' pending maps inside its groups
    // with the standalone kernels' arithmetic in their order, so rho is
    // byte for byte the stream of separate passes.
    auto specs = streamSpecs();
    specs.emplace_back("noiseless", DmNoiseSpec{});
    std::set<GateType> seen;
    size_t carried = 0;
    for (uint64_t seed = 0; seed < 60; ++seed) {
        const size_t n = 1 + seed % 6;
        const Circuit c = randomCircuit(n, seed, seen);
        for (const auto &[name, spec] : specs) {
            const std::vector<DmPass> passes = compileNoisyDmStream(c, spec);
            carried += defuse(passes).size() - passes.size();
            expectFusedBytes(n, passes,
                             "seed " + std::to_string(seed) + " " + name);
        }
    }
    EXPECT_GT(carried, 0u);
    const Circuit fche = fche8Circuit();
    for (const auto &[name, spec] : specs)
        expectFusedBytes(8, compileNoisyDmStream(fche, spec),
                         "fche8 " + name);
}

TEST(NoisyDmStream, FusedPairPassShapeSweep)
{
    // One pair pass on every ordered pair of a 5-qubit register (bits 0
    // and 1 included, so the bit-0 and sub-register shapes run), every
    // gate, every pending kind on each qubit, with and without
    // depolarizing: at full width byte for byte against the unfused
    // passes, and from |0..0> through the live prefix entry by entry
    // (== treats the sign of an exact zero as equal) and by every
    // Pauli expectation byte for byte.
    const size_t n = 5;
    enum class Pending
    {
        None,
        Channel,
        Superop
    };
    const Pending kinds[] = {Pending::None, Pending::Channel,
                             Pending::Superop};
    const auto pend = [](DmPassBuilder &b, uint32_t q, Pending k) {
        if (k == Pending::None)
            return;
        if (k == Pending::Superop)
            b.gate1q(Gate::rotation(GateType::Ry, q, 0.7 + 0.3 * q));
        b.channel(q, amplitudeDampingSuperop(0.13));
        b.channel(q, phaseDampingSuperop(0.05 + 0.01 * q));
    };
    Hamiltonian every(n);
    for (size_t k = 0; k < (size_t{1} << (2 * n)); ++k) {
        std::string label;
        for (size_t q = 0; q < n; ++q)
            label += "IXYZ"[(k >> (2 * q)) & 3];
        every.addTerm(1.0, label);
    }
    for (const GateType t : {GateType::CX, GateType::CZ, GateType::Swap})
        for (uint32_t a = 0; a < n; ++a)
            for (uint32_t b = 0; b < n; ++b) {
                if (a == b)
                    continue;
                for (const Pending ka : kinds)
                    for (const Pending kb : kinds)
                        for (const double p : {0.0, 0.047}) {
                            DmPassBuilder stream(n);
                            pend(stream, a, ka);
                            pend(stream, b, kb);
                            stream.gate2q(Gate(t, a, b), p);
                            const std::vector<DmPass> passes =
                                stream.finish();
                            ASSERT_EQ(passes.size(), 1u);
                            const std::string what =
                                gateName(t) + " " + std::to_string(a) +
                                " " + std::to_string(b) + " kinds " +
                                std::to_string(int(ka)) +
                                std::to_string(int(kb)) + " p " +
                                std::to_string(p);
                            expectFusedBytes(n, passes, what);
                            for (const int mode : {-1, 0}) {
                                SimdModeGuard guard(mode);
                                DensityMatrix fused(n), ref(n);
                                fused.runPassesFromZero(passes);
                                ref.runPassesFromZero(defuse(passes));
                                for (size_t i = 0; i < ref.data().size();
                                     ++i)
                                    ASSERT_EQ(fused.data()[i],
                                              ref.data()[i])
                                        << what << " entry " << i;
                                const std::vector<double> ea =
                                    fused.expectationBatch(every);
                                const std::vector<double> eb =
                                    ref.expectationBatch(every);
                                EXPECT_EQ(std::memcmp(ea.data(), eb.data(),
                                                      ea.size() *
                                                          sizeof(double)),
                                          0)
                                    << what << " simd " << mode;
                            }
                        }
            }
}

TEST(NoisyDmStream, ThermalRelaxationRejectsT2AboveTwiceT1LikeKraus)
{
    // The stream's superoperator and the Kraus constructor agree on
    // invalid times instead of one of them clamping silently.
    EXPECT_THROW(dm_oracle::thermalRelaxationChannel(100.0, 250.0, 10.0),
                 std::invalid_argument);
    EXPECT_THROW(thermalRelaxationSuperop(100.0, 250.0, 10.0),
                 std::invalid_argument);
}

namespace {

/** validate() throws invalid_argument naming "DmNoiseSpec.<field>". */
void
expectFieldError(const DmNoiseSpec &spec, const std::string &field)
{
    try {
        spec.validate();
        ADD_FAILURE() << field << ": expected invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("DmNoiseSpec." + field),
                  std::string::npos)
            << e.what();
    }
}

} // namespace

TEST(DmNoiseSpecValidate, PresetsAndDefaultPass)
{
    EXPECT_NO_THROW(DmNoiseSpec{}.validate());
    EXPECT_NO_THROW(nisqDmSpec(NisqParams{}).validate());
    EXPECT_NO_THROW(pqecDmSpec(PqecParams{}).validate());
    EXPECT_NO_THROW(everyFieldSpec().validate());
}

TEST(DmNoiseSpecValidate, OneQubitDepol)
{
    DmNoiseSpec spec;
    spec.one_qubit_depol = -0.1;
    expectFieldError(spec, "one_qubit_depol");
}

TEST(DmNoiseSpecValidate, TwoQubitDepol)
{
    DmNoiseSpec spec;
    spec.two_qubit_depol = 1.5;
    expectFieldError(spec, "two_qubit_depol");
}

TEST(DmNoiseSpecValidate, RotationComponents)
{
    DmNoiseSpec spec;
    spec.rotation.px = -0.01;
    expectFieldError(spec, "rotation.px");
    spec = DmNoiseSpec{};
    spec.rotation.py = 2.0;
    expectFieldError(spec, "rotation.py");
    spec = DmNoiseSpec{};
    spec.rotation.pz = std::nan("");
    expectFieldError(spec, "rotation.pz");
}

TEST(DmNoiseSpecValidate, RotationSum)
{
    DmNoiseSpec spec;
    spec.rotation = {0.5, 0.3, 0.3};
    expectFieldError(spec, "rotation");
}

TEST(DmNoiseSpecValidate, MeasFlip)
{
    DmNoiseSpec spec;
    spec.meas_flip = 1.01;
    expectFieldError(spec, "meas_flip");
}

TEST(DmNoiseSpecValidate, IdleDepol)
{
    DmNoiseSpec spec;
    spec.idle_depol = -1e-9;
    expectFieldError(spec, "idle_depol");
}

TEST(DmNoiseSpecValidate, GateTimes)
{
    DmNoiseSpec spec;
    spec.time_1q_ns = -1.0;
    expectFieldError(spec, "time_1q_ns");
    spec = DmNoiseSpec{};
    spec.time_2q_ns = -300.0;
    expectFieldError(spec, "time_2q_ns");
}

TEST(DmNoiseSpecValidate, RelaxationTimes)
{
    DmNoiseSpec spec = nisqDmSpec(NisqParams{});
    spec.t1_ns = 0.0;
    expectFieldError(spec, "t1_ns");
    spec = nisqDmSpec(NisqParams{});
    spec.t2_ns = -5.0;
    expectFieldError(spec, "t2_ns");
    spec = nisqDmSpec(NisqParams{});
    spec.t2_ns = 2.5 * spec.t1_ns;
    expectFieldError(spec, "t2_ns");
    // Without relaxation the times are unused and unchecked.
    spec.use_relaxation = false;
    EXPECT_NO_THROW(spec.validate());
}

TEST(DmNoiseSpecValidate, StreamCompileAndRegimeSpecValidate)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    DmNoiseSpec spec = nisqDmSpec(NisqParams{});
    spec.t2_ns = 3.0 * spec.t1_ns;
    EXPECT_THROW(compileNoisyDmStream(c, spec), std::invalid_argument);
    sim::NoiseModel model;
    model.dm = spec;
    EXPECT_THROW(
        sim::makeBackend(sim::BackendKind::DensityMatrix, 2, &model)
            ->prepare(c),
        std::invalid_argument);

    RegimeSpec regime = RegimeSpec::nisqDensityMatrix();
    regime.noise->dm.two_qubit_depol = -0.5;
    try {
        regime.validate();
        FAIL() << "a bad density-matrix half must fail RegimeSpec::validate";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("DmNoiseSpec.two_qubit_depol"),
                  std::string::npos);
    }
}

TEST(DmNoiseSpecValidate, NoiselessDensityMatrixBackendValidatesAtPrepare)
{
    // meas_flip = -0.1 carries no noise by NoiseModel::hasDmNoise(),
    // yet the backend runs its spec through the stream compiler, which
    // rejects it at prepare() and names the field.
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    sim::NoiseModel model;
    model.dm.meas_flip = -0.1;
    ASSERT_FALSE(model.hasDmNoise());
    const auto backend =
        sim::makeBackend(sim::BackendKind::DensityMatrix, 2, &model);
    try {
        backend->prepare(c);
        FAIL() << "a negative meas_flip must fail prepare()";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("DmNoiseSpec.meas_flip"),
                  std::string::npos)
            << e.what();
    }
}
