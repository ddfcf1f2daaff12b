/**
 * @file
 * Reproduces paper Fig 15: VarSaw measurement-error mitigation helps
 * VQE converge to lower energies under both NISQ and pQEC execution.
 *
 * The sweep is serve::fig15Workload (src/serve/workloads.cpp): J=1
 * Ising and Heisenberg at 8 qubits by default, the paper's 12 under
 * --full, 6 under --smoke. --out keeps one entry per (family, regime),
 * two per cell; the other flags are sweep_driver.hpp's.
 */

#include "sweep_driver.hpp"

using namespace eftvqa;

namespace {

void
banner(std::ostream &out, const serve::Workload &wl)
{
    out << "=== Fig 15: VQE convergence with VarSaw (J=1, "
        << wl.knobs.integer("qubits") << " qubits) ===\n";
    out << "(paper: VarSaw lowers the converged energy for both "
           "NISQ and pQEC)\n\n";
}

/** A cell's plain and VarSaw-mitigated energy under NISQ or pQEC. */
double
plain(const SweepRow &row, bool pqec)
{
    return row.num(pqec ? "e_plain_pqec" : "e_plain_nisq");
}

double
varsaw(const SweepRow &row, bool pqec)
{
    return row.num(pqec ? "e_varsaw_pqec" : "e_varsaw_nisq");
}

SweepRow
table(std::ostream &out, const serve::Workload &,
      const std::vector<SweepRow> &rows)
{
    AsciiTable table({"Benchmark", "Regime", "E (plain)", "E (VarSaw)",
                      "E0"});
    for (const SweepRow &row : rows)
        for (const bool pqec : {false, true})
            table.addRow({row.str("family"), pqec ? "pQEC" : "NISQ",
                          AsciiTable::num(plain(row, pqec), 5),
                          AsciiTable::num(varsaw(row, pqec), 5),
                          AsciiTable::num(row.num("e0"), 5)});
    table.print(out);
    return {};
}

/** Two --out entries per cell, one per regime. */
void
outRow(bench::JsonWriter &json, const SweepRow &row)
{
    for (const bool pqec : {false, true}) {
        json.beginObject();
        json.field("family", row.str("family"));
        json.field("regime", pqec ? "pQEC" : "NISQ");
        json.field("e_plain", plain(row, pqec));
        json.field("e_varsaw", varsaw(row, pqec));
        json.field("e0", row.num("e0"));
        json.endObject();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runSweepFigure("fig15_varsaw", {banner, table, outRow},
                                 argc, argv);
}
