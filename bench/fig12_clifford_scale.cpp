/**
 * @file
 * Reproduces paper Fig 12: relative improvement gamma(pQEC/NISQ) for
 * Ising and Heisenberg models at scale via Clifford-state VQE with the
 * genetic optimizer (stabilizer backend, trajectory Pauli noise).
 *
 * The sweep is serve::fig12Workload (src/serve/workloads.cpp): 16..48
 * qubits by default, the paper's 16..100 with a larger GA budget under
 * --full, one 16-qubit case per family under --smoke. The flags are
 * sweep_driver.hpp's.
 */

#include "sweep_driver.hpp"

using namespace eftvqa;

namespace {

void
banner(std::ostream &out, const serve::Workload &)
{
    out << "=== Fig 12: gamma(pQEC/NISQ), Clifford-state VQE at "
           "scale ===\n";
    out << "(paper: Ising avg 6.83x max 257x; Heisenberg avg "
           "12.59x max 189x; pQEC\n always wins and the advantage "
           "grows with size)\n\n";
}

/** One table per family, each with its gamma average and maximum. */
SweepRow
table(std::ostream &out, const serve::Workload &,
      const std::vector<SweepRow> &rows)
{
    for (const char *family : {"ising", "heisenberg"}) {
        out << "-- " << family << " --\n";
        AsciiTable table({"Qubits", "J", "E0(ref)", "E(NISQ)", "E(pQEC)",
                          "gamma"});
        std::vector<double> gammas;
        for (const SweepRow &row : rows) {
            if (row.str("family") != family)
                continue;
            gammas.push_back(row.num("gamma"));
            table.addRow({AsciiTable::num(row.integer("qubits")),
                          AsciiTable::num(row.num("j"), 3),
                          AsciiTable::num(row.num("e0"), 5),
                          AsciiTable::num(row.num("e_nisq"), 5),
                          AsciiTable::num(row.num("e_pqec"), 5),
                          AsciiTable::num(row.num("gamma"), 4)});
        }
        table.print(out);
        out << "gamma average = " << bench::statText(mean, gammas)
            << ", max = " << bench::statText(maxOf, gammas) << "\n\n";
    }
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runSweepFigure("fig12_clifford_scale", {banner, table},
                                 argc, argv);
}
