/**
 * @file
 * The noisy density-matrix DmPass stream (noise/noise_model.hpp,
 * sim/density_matrix.hpp) against an independent Kraus oracle: a
 * gate-by-gate loop of unitary conjugations (applyMatrix1q/2q), Kraus
 * sums (applyKraus1q with thermalRelaxationChannel and Pauli Kraus
 * sets) and the two-qubit depolarizing channel written as the weighted
 * sum of its 15 Pauli conjugations. Plus the stream's pass-count bound,
 * the pair pass on every gate and DmNoiseSpec::validate().
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>

#include "ansatz/ansatz.hpp"
#include "common/rng.hpp"
#include "ham/heisenberg.hpp"
#include "noise/noise_model.hpp"
#include "sim/backend.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/simd.hpp"
#include "vqa/experiment.hpp"

using namespace eftvqa;

namespace {

constexpr double kTol = 1e-12;

/** Pin the SIMD dispatch mode for a scope; restores auto on exit. */
struct SimdModeGuard
{
    explicit SimdModeGuard(int mode) { simd::setSimdMode(mode); }
    ~SimdModeGuard() { simd::setSimdMode(-1); }
};

const Mat2 kPaulis[4] = {gateMatrix1q(GateType::I),
                         gateMatrix1q(GateType::X),
                         gateMatrix1q(GateType::Y),
                         gateMatrix1q(GateType::Z)};

/** {sqrt(p_P) P} for P in I, X, Y, Z. */
KrausChannel
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

/** (1 - p) rho + p/15 sum_{P != II} P rho P. */
void
oracleDepolarize2q(DensityMatrix &rho, double p, size_t q0, size_t q1)
{
    simd::AmpVector acc(rho.data().size(), {0.0, 0.0});
    for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
            const double w = (a == 0 && b == 0) ? 1.0 - p : p / 15.0;
            DensityMatrix term = rho;
            term.applyMatrix1q(kPaulis[a], q0);
            term.applyMatrix1q(kPaulis[b], q1);
            for (size_t i = 0; i < acc.size(); ++i)
                acc[i] += w * term.data()[i];
        }
    }
    rho.data() = acc;
}

/** Gate-by-gate Kraus execution with the stream's noise placement. */
void
oracleRun(const Circuit &circuit, const DmNoiseSpec &spec,
          DensityMatrix &rho)
{
    const size_t n = circuit.nQubits();
    const auto &gates = circuit.gates();
    std::vector<size_t> level(n, 0);
    std::vector<std::vector<const Gate *>> layers;
    for (const Gate &g : gates) {
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
            rho.applyKraus1q(pauliKraus(ch), q);
    };
    const auto relax = [&](double t, size_t q) {
        if (spec.use_relaxation && t > 0.0)
            rho.applyKraus1q(
                thermalRelaxationChannel(spec.t1_ns, spec.t2_ns, t), q);
    };
    const KrausChannel measure{{{1, 0, 0, 0}, {0, 0, 0, 1}}};
    const KrausChannel reset{{{1, 0, 0, 0}, {0, 1, 0, 0}}};

    for (const auto &layer : layers) {
        std::vector<bool> busy(n, false);
        for (const Gate *g : layer) {
            busy[g->q0] = true;
            if (g->isTwoQubit()) {
                busy[g->q1] = true;
                rho.applyMatrix2q(gateMatrix2q(*g, g->q0, g->q1), g->q0,
                                  g->q1);
                if (spec.two_qubit_depol > 0.0)
                    oracleDepolarize2q(rho, spec.two_qubit_depol, g->q0,
                                       g->q1);
                relax(spec.time_2q_ns, g->q0);
                relax(spec.time_2q_ns, g->q1);
            } else if (g->type == GateType::Measure) {
                rho.applyKraus1q(measure, g->q0);
            } else if (g->type == GateType::Reset) {
                rho.applyKraus1q(reset, g->q0);
            } else if (g->type != GateType::I) {
                rho.applyMatrix1q(gateMatrix1q(g->type, g->angle), g->q0);
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

double
maxAbsDiff(const DensityMatrix &a, const DensityMatrix &b)
{
    double worst = 0.0;
    for (size_t i = 0; i < a.data().size(); ++i)
        worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
    return worst;
}

/** Start from a random mixed state so every element of rho is live. */
void
mixedStart(DensityMatrix &rho, uint64_t seed)
{
    Rng rng(seed ^ 0xA5A5ull);
    for (size_t q = 0; q < rho.nQubits(); ++q) {
        rho.applyMatrix1q(gateMatrix1q(GateType::Ry, rng.uniform() * 3.0),
                          q);
        rho.applyMatrix1q(gateMatrix1q(GateType::Rz, rng.uniform() * 3.0),
                          q);
        rho.applyAmplitudeDamping(0.2 * rng.uniform(), q);
    }
}

} // namespace

TEST(NoisyDmStream, MatchesKrausOracleOnRandomCircuits)
{
    const std::pair<const char *, DmNoiseSpec> specs[] = {
        {"nisq", nisqDmSpec(NisqParams{})},
        {"pqec", pqecDmSpec(PqecParams{})},
        {"every-field", everyFieldSpec()},
    };
    std::set<GateType> seen;
    double worst = 0.0;
    for (uint64_t seed = 0; seed < 60; ++seed) {
        const size_t n = 1 + seed % 6;
        const Circuit c = randomCircuit(n, seed, seen);
        for (const auto &[name, spec] : specs) {
            DensityMatrix ref(n);
            mixedStart(ref, seed);
            oracleRun(c, spec, ref);
            for (const int mode : {-1, 0}) {
                SimdModeGuard guard(mode);
                DensityMatrix rho(n);
                mixedStart(rho, seed);
                runNoisyDensityMatrix(c, spec, rho);
                const double diff = maxAbsDiff(rho, ref);
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
        oracleRun(c, spec, ref);
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
        EXPECT_NEAR(noisyDensityMatrixEnergy(c, ham, spec), expected, kTol)
            << seed;
    }
}

TEST(NoisyDmStream, Fche8PassCountIsBounded)
{
    // One pair pass per two-qubit gate, at most one flush per qubit of
    // the pair before it, and one final flush per qubit.
    const size_t n = 8;
    const auto ansatz = fcheAnsatz(static_cast<int>(n), 1);
    Rng rng(3);
    std::vector<double> params(ansatz.nParameters());
    for (auto &p : params)
        p = rng.uniform() * 2.0 * M_PI;
    const Circuit c = ansatz.bind(params);
    size_t two_qubit = 0;
    for (const Gate &g : c.gates())
        two_qubit += g.isTwoQubit() ? 1 : 0;
    ASSERT_EQ(two_qubit, 28u);

    for (const DmNoiseSpec &spec :
         {nisqDmSpec(NisqParams{}), pqecDmSpec(PqecParams{})}) {
        const std::vector<DmPass> passes = compileNoisyDmStream(c, spec);
        EXPECT_LE(passes.size(), 3 * two_qubit + n);
        size_t pairs = 0;
        for (const DmPass &p : passes)
            pairs += p.kind == DmPass::Kind::Pair ? 1 : 0;
        EXPECT_EQ(pairs, two_qubit);
    }
}

TEST(NoisyDmStream, PairPassMatchesMatrixConjugationForEveryGate)
{
    // applyGate's CX/CZ/Swap pair pass equals the dense 4x4
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
                fast.applyGate(g);
                ref.applyMatrix2q(gateMatrix2q(g, a, b), a, b);
                EXPECT_LE(maxAbsDiff(fast, ref), kTol)
                    << gateName(t) << " " << a << " " << b;
            }
        }
    }
}

TEST(NoisyDmStream, ThermalRelaxationRejectsT2AboveTwiceT1LikeKraus)
{
    // The in-place channel and the Kraus constructor agree on invalid
    // times instead of one of them clamping silently.
    DensityMatrix rho(1);
    EXPECT_THROW(thermalRelaxationChannel(100.0, 250.0, 10.0),
                 std::invalid_argument);
    EXPECT_THROW(rho.applyThermalRelaxation(100.0, 250.0, 10.0, 0),
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
    DensityMatrix rho(2);
    EXPECT_THROW(runNoisyDensityMatrix(c, spec, rho), std::invalid_argument);

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
