/**
 * @file
 * google-benchmark timing microbenchmarks for the simulation kernels:
 * establishes the cost envelope of the substrates (tableau gates,
 * statevector/density-matrix updates, union-find decoding).
 */

#include <benchmark/benchmark.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ansatz/ansatz.hpp"
#include "common/rng.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "noise/noise_model.hpp"
#include "qec/memory_experiment.hpp"
#include "qec/union_find.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/simd.hpp"
#include "sim/statevector.hpp"
#include "stabilizer/noisy_clifford.hpp"
#include "stabilizer/tableau.hpp"
#include "vqa/estimation.hpp"

using namespace eftvqa;

namespace {

/** Non-Clifford FCHE state for expectation benchmarks. */
Statevector
preparedState(size_t n)
{
    Statevector psi(n);
    const auto ansatz = fcheAnsatz(static_cast<int>(n), 1);
    psi.run(ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.3)));
    return psi;
}

/** The same state as a density matrix, prepared as the backend does
 *  without noise: the DmNoiseSpec{} stream from |0..0>. */
DensityMatrix
preparedDensityMatrix(size_t n)
{
    DensityMatrix rho(n);
    const auto ansatz = fcheAnsatz(static_cast<int>(n), 1);
    const Circuit bound =
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.3));
    rho.runPassesFromZero(compileNoisyDmStream(bound, DmNoiseSpec{}));
    return rho;
}

/** Bound Clifford FCHE circuit for trajectory benchmarks. */
Circuit
cliffordFche(int n)
{
    const auto ansatz = fcheAnsatz(n, 1);
    return ansatz.bind(
        std::vector<double>(ansatz.nParameters(), M_PI / 2));
}

} // namespace

static void
BM_TableauCx(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    Tableau t(n);
    size_t q = 0;
    for (auto _ : state) {
        t.cx(q % n, (q + 1) % n);
        ++q;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TableauCx)->Arg(16)->Arg(64)->Arg(128);

static void
BM_TableauEnergy(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Tableau t(static_cast<size_t>(n));
    Rng rng(1);
    const auto ansatz = fcheAnsatz(n, 1);
    const auto bound = ansatz.bind(
        std::vector<double>(ansatz.nParameters(), M_PI / 2));
    t.run(bound, rng);
    const auto ham = isingHamiltonian(n, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(t.energy(ham));
}
BENCHMARK(BM_TableauEnergy)->Arg(16)->Arg(48);

static void
BM_StatevectorGate(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    Statevector psi(n);
    const Mat2 h = gateMatrix1q(GateType::H);
    size_t q = 0;
    for (auto _ : state) {
        psi.applyMatrix1q(h, q % n);
        ++q;
    }
}
BENCHMARK(BM_StatevectorGate)->Arg(10)->Arg(16);

static void
BM_NaiveGateLoop(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const auto ansatz = fcheAnsatz(n, 1);
    const Circuit bound =
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.3));
    Statevector psi(static_cast<size_t>(n));
    for (auto _ : state) {
        psi.setZeroState();
        for (const auto &g : bound.gates())
            psi.applyGate(g);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NaiveGateLoop)->Arg(12)->Arg(16);

static void
BM_CompiledRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const auto ansatz = fcheAnsatz(n, 1);
    const Circuit bound =
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.3));
    const CompiledCircuit compiled(bound);
    Statevector psi(static_cast<size_t>(n));
    for (auto _ : state) {
        psi.setZeroState();
        psi.runCompiled(compiled);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CompiledRun)->Arg(12)->Arg(16);

static void
BM_CircuitCompile(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const auto ansatz = fcheAnsatz(n, 1);
    const Circuit bound =
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.3));
    for (auto _ : state)
        benchmark::DoNotOptimize(CompiledCircuit(bound).nOps());
}
BENCHMARK(BM_CircuitCompile)->Arg(16);

static void
BM_ExpectationPerTerm(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    const Statevector psi = preparedState(n);
    const auto ham = heisenbergHamiltonian(static_cast<int>(n), 1.0);
    for (auto _ : state) {
        double energy = 0.0;
        for (const auto &t : ham.terms())
            energy += t.coefficient * psi.expectation(t.op);
        benchmark::DoNotOptimize(energy);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * ham.nTerms()));
}
BENCHMARK(BM_ExpectationPerTerm)->Arg(16)->Arg(18);

static void
BM_ExpectationBatch(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    const Statevector psi = preparedState(n);
    const auto ham = heisenbergHamiltonian(static_cast<int>(n), 1.0);
    for (auto _ : state) {
        const auto vals = psi.expectationBatch(ham);
        double energy = 0.0;
        for (size_t k = 0; k < vals.size(); ++k)
            energy += ham.terms()[k].coefficient * vals[k];
        benchmark::DoNotOptimize(energy);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * ham.nTerms()));
}
BENCHMARK(BM_ExpectationBatch)->Arg(16)->Arg(18);

static void
BM_DensityMatrixExpectationPerTerm(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    const DensityMatrix rho = preparedDensityMatrix(n);
    const auto ham = heisenbergHamiltonian(static_cast<int>(n), 1.0);
    for (auto _ : state) {
        double energy = 0.0;
        for (const auto &t : ham.terms())
            energy += t.coefficient * rho.expectation(t.op);
        benchmark::DoNotOptimize(energy);
    }
}
BENCHMARK(BM_DensityMatrixExpectationPerTerm)->Arg(8);

static void
BM_DensityMatrixExpectationBatch(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    const DensityMatrix rho = preparedDensityMatrix(n);
    const auto ham = heisenbergHamiltonian(static_cast<int>(n), 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(rho.expectationBatch(ham));
}
BENCHMARK(BM_DensityMatrixExpectationBatch)->Arg(8);

static void
BM_EstimationEngineEnergy(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    const auto ham = heisenbergHamiltonian(static_cast<int>(n), 1.0);
    const auto ansatz = fcheAnsatz(static_cast<int>(n), 1);
    const auto bound =
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.3));
    EstimationEngine engine(ham, EstimationConfig{});
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.energy(bound));
}
BENCHMARK(BM_EstimationEngineEnergy)->Arg(16);

/** Trajectory farm at an OpenMP team of range(1) threads; a team of
 *  one is the serial reference. */
static void
BM_TrajectoryFarm(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const Circuit circuit = cliffordFche(n);
    const auto ham = isingHamiltonian(n, 1.0);
    const size_t trajectories = 32;
    NoisyCliffordSimulator sim(nisqCliffordSpec(NisqParams{}), 77);
#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    omp_set_num_threads(static_cast<int>(state.range(1)));
#endif
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sim.termExpectations(circuit, ham, trajectories));
#ifdef _OPENMP
    omp_set_num_threads(saved);
#endif
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * trajectories));
}
BENCHMARK(BM_TrajectoryFarm)
    ->ArgsProduct({{48, 100}, {1, 2, 4}});

/** Warm LRU energy cache on a population of duplicate genomes. */
static void
BM_EnergyCacheWarm(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    const auto ham = isingHamiltonian(n, 1.0);
    std::vector<Circuit> population(8, cliffordFche(n));
    EstimationEngine engine(
        ham, EstimationConfig::tableau(nisqCliffordSpec(NisqParams{}), 32, 9));
    engine.attachSharedCache(std::make_shared<SharedEnergyCache>(16), 0);
    engine.energies(population); // warm the cache
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.energies(population));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * population.size()));
}
BENCHMARK(BM_EnergyCacheWarm)->Arg(16)->Arg(48);

/** One noiseless CX: a single lambda = 0 pair pass at full width. */
static void
BM_DensityMatrixCx(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    DmPassBuilder h(n);
    h.gate1q(Gate(GateType::H, 0));
    DmPassBuilder cx(n);
    cx.gate2q(Gate(GateType::CX, 0, 1), 0.0);
    const std::vector<DmPass> cx_pass = cx.finish();
    DensityMatrix rho(n);
    rho.runPasses(h.finish());
    for (auto _ : state)
        rho.runPasses(cx_pass);
}
BENCHMARK(BM_DensityMatrixCx)->Arg(6)->Arg(8);

/**
 * Fused 4x4 two-qubit kernel, scalar reference sweep vs SIMD lanes.
 * range(1) = 0 pins simd::setSimdMode(0) (scalar); 1 restores auto so
 * the vector path runs when the build + CPU support it.
 */
static void
BM_Apply2QFusedSimd(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    simd::setSimdMode(state.range(1) != 0 ? -1 : 0);
    Statevector psi = preparedState(n);
    const Mat4 u = kron2q(gateMatrix1q(GateType::H),
                          gateMatrix1q(GateType::T));
    size_t q = 0;
    for (auto _ : state) {
        psi.applyMatrix2q(u, q % n, (q + 1) % n);
        ++q;
    }
    simd::setSimdMode(-1);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_Apply2QFusedSimd)->Args({16, 0})->Args({16, 1});

/**
 * Tabled diagonal-phase kernel (contiguous low-qubit Rz run, so the
 * compiled stream is a single mask-indexed DiagPhase op), scalar vs
 * SIMD as in BM_Apply2QFusedSimd.
 */
static void
BM_DiagPhaseSimd(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    simd::setSimdMode(state.range(1) != 0 ? -1 : 0);
    Statevector psi = preparedState(n);
    Circuit diag(n);
    for (uint32_t q = 0; q < 8; ++q)
        diag.rz(q, 0.1 * static_cast<double>(q + 1));
    const CompiledCircuit compiled(diag);
    for (auto _ : state)
        psi.runCompiled(compiled);
    simd::setSimdMode(-1);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DiagPhaseSimd)->Args({16, 0})->Args({16, 1});

/**
 * X-mask group sweep behind expectationBatch (one band fill per
 * group, one signed accumulation per term), scalar vs SIMD as above.
 */
static void
BM_LaneSweepSimd(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));
    simd::setSimdMode(state.range(1) != 0 ? -1 : 0);
    const Statevector psi = preparedState(n);
    const auto ham = heisenbergHamiltonian(static_cast<int>(n), 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(psi.expectationBatch(ham));
    simd::setSimdMode(-1);
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * ham.nTerms()));
}
BENCHMARK(BM_LaneSweepSimd)->Args({16, 0})->Args({16, 1});

static void
BM_UnionFindDecode(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    const auto graph = DecodingGraph::surfaceCodeMemory(d, d, 0.01, 0.01);
    UnionFindDecoder decoder(graph);
    Rng rng(7);
    std::vector<uint8_t> syndrome;
    bool flip = false;
    graph.sampleError(rng, syndrome, flip);
    for (auto _ : state)
        benchmark::DoNotOptimize(decoder.decode(syndrome));
}
BENCHMARK(BM_UnionFindDecode)->Arg(5)->Arg(9)->Arg(13);

static void
BM_MemoryExperimentShot(benchmark::State &state)
{
    const int d = static_cast<int>(state.range(0));
    uint64_t seed = 3;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            runMemoryExperiment(d, d, 0.02, 1, seed++));
}
BENCHMARK(BM_MemoryExperimentShot)->Arg(5)->Arg(9);

BENCHMARK_MAIN();
