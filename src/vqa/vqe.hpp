/**
 * @file
 * The Variational Quantum Eigensolver driver (paper section 2.1).
 *
 * A VQE instance binds an ansatz template, a Hamiltonian and an energy
 * evaluator (ideal statevector, noisy density matrix, or any callable),
 * and minimizes the energy with a classical optimizer. The paper runs
 * each benchmark three to five times with different seeds and reports
 * the best; runBestOf() mirrors that protocol.
 */

#ifndef EFTVQA_VQA_VQE_HPP
#define EFTVQA_VQA_VQE_HPP

#include <functional>

#include "circuit/circuit.hpp"
#include "pauli/hamiltonian.hpp"
#include "vqa/estimation.hpp"
#include "vqa/optimizer.hpp"

namespace eftvqa {

/** Energy of a bound circuit under some execution model. */
using EnergyEvaluator = std::function<double(const Circuit &)>;

/** Outcome of one VQE run. */
struct VqeResult
{
    double energy = 0.0;
    std::vector<double> params;
    size_t evaluations = 0;
    std::vector<double> history; ///< best-so-far energy trace
};

/**
 * Ideal (noiseless, auto-dispatched exact backend) energy evaluator.
 * Session-backed (a one-regime session owned by the callable — see
 * sessionEvaluator() in vqa/experiment.hpp); multi-regime studies
 * should build one ExperimentSession and use its evaluator() so the
 * regimes share engines and the cross-engine energy cache.
 */
EnergyEvaluator idealEvaluator(const Hamiltonian &ham);

/**
 * Minimize the energy of @p ansatz under @p evaluate with @p optimizer.
 * @p initial must match the ansatz parameter count (or be empty for an
 * all-0.1 start).
 */
VqeResult runVqe(const Circuit &ansatz, const EnergyEvaluator &evaluate,
                 Optimizer &optimizer, std::vector<double> initial,
                 size_t max_evals);

/**
 * The paper's protocol: @p attempts runs from perturbed starts, best
 * result returned.
 */
VqeResult runBestOf(const Circuit &ansatz, const EnergyEvaluator &evaluate,
                    Optimizer &optimizer, size_t max_evals,
                    size_t attempts, uint64_t seed);

} // namespace eftvqa

#endif // EFTVQA_VQA_VQE_HPP
