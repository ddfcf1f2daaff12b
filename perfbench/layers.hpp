/**
 * @file
 * Layer probes. ExperimentSession calls the sim, noise and stabilizer
 * layers internally, so the traced run times them by re-driving bound
 * circuits through the layers' public functions (CompiledCircuit,
 * makeBackend(...)->prepareCompiled, Backend::energy). The same fixed
 * circuits serve as seed-independent correctness probes, compared with
 * values recorded at the commit that defined the benchmark.
 */

#ifndef EFTBENCH_LAYERS_HPP
#define EFTBENCH_LAYERS_HPP

#include <string>
#include <vector>

#include "bench.hpp"
#include "circuit/circuit.hpp"
#include "pauli/hamiltonian.hpp"
#include "vqa/experiment.hpp"

namespace eftbench {

/** One fixed problem: a Hamiltonian with its ansatz and a name. */
struct Problem
{
    std::string name;
    eftvqa::Hamiltonian ham;
    eftvqa::Circuit ansatz;
};

/** fig13's twelve default 8-qubit cases. */
std::vector<Problem> dmProblems();

/** Ising and Heisenberg at 16, 32 and 48 qubits (J = 1). */
std::vector<Problem> cliffordProblems();

/** A fixed bound circuit per problem: continuous angles for the
 *  density-matrix problems, multiples of pi/2 for the Clifford ones. */
eftvqa::Circuit probeCircuit(const Problem &p, bool clifford);

/**
 * Re-drive @p bound under a density-matrix regime: compile, noiseless
 * and noisy prepareCompiled, expectation. Adds sim.compile_ms,
 * sim.compiled_ops, sim.dm_run_ms, noise.dm_prepare_ms and
 * sim.dm_expectation_ms samples; returns the noisy energy.
 */
double redriveDensityMatrix(Samples &samples, const eftvqa::Hamiltonian &ham,
                            const eftvqa::Circuit &bound,
                            const eftvqa::RegimeSpec &regime);

/** Statevector prepare + energy (sim.sv_energy_ms); returns it. */
double redriveStatevector(Samples &samples, const eftvqa::Hamiltonian &ham,
                          const eftvqa::Circuit &bound);

/** Tableau prepare + energy under @p regime: per-trajectory time for
 *  noisy regimes (stabilizer.trajectory_us_n<width>), stabilizer.ideal_ms
 *  for single-trajectory ones; also sim.compile_ms/sim.compiled_ops.
 *  Returns the energy. */
double redriveTableau(Samples &samples, const eftvqa::Hamiltonian &ham,
                      const eftvqa::Circuit &bound,
                      const eftvqa::RegimeSpec &regime);

/** dm_vqe's probes: energies of the fixed circuits under the ideal,
 *  NISQ and pQEC density-matrix regimes, within 1e-9 of the record. */
void checkDmProbes(Run &run, size_t threads);

/** clifford_ga's probes: tableau energies of the fixed Clifford
 *  circuits, compared exactly with the record. */
void checkCliffordProbes(Run &run);

/** Print every probe value in the recorded-probe format. */
void recordProbes(size_t threads);

/** Store layer, outside-in: a read-only reopen of the run's store
 *  (store.open_ms), its bytes per cell, and its lines replayed through
 *  SweepStore::appendLine into a fresh store on the same filesystem
 *  (store.append_ms), at least 1000 appends. */
void storeLayer(Run &run, const std::string &store_path);

/** Layer samples from the fixed probe circuits, for every layer
 *  metric @p have lacks (traced runs only). */
void referenceLayerProbes(const Samples &have, Samples &out);

} // namespace eftbench

#endif // EFTBENCH_LAYERS_HPP
