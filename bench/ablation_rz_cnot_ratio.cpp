/**
 * @file
 * Section 4.4 analysis: the CNOT-to-Rz ratio of each ansatz family
 * against the 0.76 threshold that decides whether pQEC beats NISQ at
 * large depth, and the resulting crossover qubit counts.
 *
 * The sizes are serve::ablationRzCnotWorkload (src/serve/workloads.cpp),
 * one analytic cell per qubit count; the flags are sweep_driver.hpp's.
 */

#include "ansatz/ansatz.hpp"
#include "sweep_driver.hpp"

using namespace eftvqa;

namespace {

constexpr AnsatzKind kKinds[] = {AnsatzKind::LinearHea, AnsatzKind::Fche,
                                 AnsatzKind::BlockedAllToAll,
                                 AnsatzKind::UccsdLite};

void
banner(std::ostream &out, const serve::Workload &)
{
    out << "=== Section 4.4: CNOT-to-Rz ratio analysis ===\n";
    out << "(pQEC wins at large depth when the ratio exceeds "
           "0.76e-3/1e-3 = 0.76;\n paper: blocked crosses at N = "
           "13, linear never crosses at 0.25,\n FCHE/UCCSD scale "
           "as O(N))\n\n";
}

/** One table row per ansatz family: its ratio at each size and the
 *  size where it crosses the workload's threshold. */
SweepRow
table(std::ostream &out, const serve::Workload &wl,
      const std::vector<SweepRow> &rows)
{
    std::vector<std::string> headers = {"Ansatz"};
    for (const SweepRow &row : rows)
        headers.push_back("N=" + AsciiTable::num(row.integer("qubits")));
    headers.push_back("crossover N");
    AsciiTable table(headers);
    for (const AnsatzKind kind : kKinds) {
        const int crossover =
            crossoverQubits(kind, wl.knobs.num("threshold"));
        std::vector<std::string> cols = {ansatzKindName(kind)};
        for (const SweepRow &row : rows)
            cols.push_back(
                AsciiTable::num(row.num(ansatzKindName(kind)), 4));
        cols.push_back(crossover < 0
                           ? "never"
                           : AsciiTable::num(
                                 static_cast<long long>(crossover)));
        table.addRow(cols);
    }
    table.print(out);

    out << "\nBlocked closed form N/8 - 5/4 + 5/N at N = 13: "
        << AsciiTable::num(cnotToRzRatio(AnsatzKind::BlockedAllToAll, 13),
                           4)
        << " (just above 0.76)\n";
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::runSweepFigure("ablation_rz_cnot_ratio", {banner, table},
                                 argc, argv);
}
