#include "vqa/vqe.hpp"

#include <memory>
#include <stdexcept>

#include "vqa/experiment.hpp"

namespace eftvqa {

EnergyEvaluator
idealEvaluator(const Hamiltonian &ham)
{
    return sessionEvaluator(ham, RegimeSpec::ideal());
}

VqeResult
runVqe(const Circuit &ansatz, const EnergyEvaluator &evaluate,
       Optimizer &optimizer, std::vector<double> initial, size_t max_evals)
{
    const size_t n_params = ansatz.nParameters();
    if (initial.empty())
        initial.assign(n_params, 0.1);
    if (initial.size() != n_params)
        throw std::invalid_argument("runVqe: parameter count mismatch");

    ObjectiveFn objective = [&](const std::vector<double> &params) {
        return evaluate(ansatz.bind(params));
    };
    const OptimizerResult opt = optimizer.minimize(objective, initial,
                                                   max_evals);
    VqeResult result;
    result.energy = opt.best_value;
    result.params = opt.best_params;
    result.evaluations = opt.evaluations;
    result.history = opt.history;
    return result;
}

VqeResult
runBestOf(const Circuit &ansatz, const EnergyEvaluator &evaluate,
          Optimizer &optimizer, size_t max_evals, size_t attempts,
          uint64_t seed)
{
    if (attempts == 0)
        throw std::invalid_argument("runBestOf: attempts >= 1");
    Rng rng(seed);
    const size_t n_params = ansatz.nParameters();
    VqeResult best;
    bool have_best = false;
    for (size_t a = 0; a < attempts; ++a) {
        std::vector<double> initial(n_params);
        for (auto &v : initial)
            v = rng.uniform(-0.5, 0.5);
        VqeResult r = runVqe(ansatz, evaluate, optimizer, initial,
                             max_evals);
        if (!have_best || r.energy < best.energy) {
            best = std::move(r);
            have_best = true;
        }
    }
    return best;
}

} // namespace eftvqa
