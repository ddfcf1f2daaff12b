/**
 * @file
 * Reproduces paper Fig 13: gamma(pQEC/NISQ) for physics and chemistry
 * Hamiltonians via noisy density-matrix VQE.
 *
 * The sweep is serve::fig13Workload (src/serve/workloads.cpp): 8-qubit
 * physics models plus shrunken 8-qubit molecular surrogates by
 * default, the paper's 12-qubit Hamiltonians under --full, one physics
 * case per family under --smoke. The flags are sweep_driver.hpp's.
 */

#include "sweep_driver.hpp"

using namespace eftvqa;

namespace {

void
banner(std::ostream &out, const serve::Workload &)
{
    out << "=== Fig 13: gamma(pQEC/NISQ), density-matrix VQE ===\n";
    out << "(paper 8/12-qubit averages: Ising 3.45x, Heisenberg "
           "3.0x, H2O 19.5x, H6 2.69x,\n LiH 1.61x — pQEC always "
           ">= NISQ)\n\n";
}

/** One table over every benchmark; the summary is gamma's average and
 *  maximum. */
SweepRow
table(std::ostream &out, const serve::Workload &,
      const std::vector<SweepRow> &rows)
{
    AsciiTable table({"Benchmark", "E0", "E(NISQ)", "E(pQEC)", "gamma"});
    std::vector<double> gammas;
    for (const SweepRow &row : rows) {
        gammas.push_back(row.num("gamma"));
        table.addRow({row.str("benchmark"), AsciiTable::num(row.num("e0"), 5),
                      AsciiTable::num(row.num("e_nisq"), 5),
                      AsciiTable::num(row.num("e_pqec"), 5),
                      AsciiTable::num(row.num("gamma"), 4)});
    }
    table.print(out);
    out << "\ngamma average = " << bench::statText(mean, gammas)
        << ", max = " << bench::statText(maxOf, gammas) << "\n";

    SweepRow summary;
    bench::setStat(summary, "gamma_avg", mean, gammas);
    bench::setStat(summary, "gamma_max", maxOf, gammas);
    return summary;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runSweepFigure("fig13_density_matrix_gamma",
                                 {banner, table}, argc, argv);
}
