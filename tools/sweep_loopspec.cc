/**
 * @file
 * Command-line front end for the unified speculation sweep engine:
 * arbitrary (workloads × CLS × policies × TUs × LET) grids beyond the
 * paper's figures, with the consolidated BENCH_specsim.json artifact.
 *
 *   sweep_loopspec                                    # paper grid, all cores
 *   sweep_loopspec --grid paper --jobs 4 --baseline   # CI configuration
 *   sweep_loopspec --grid "policies=str,str3;tus=2,4,8;cls=8,16;let=0,64"
 *   sweep_loopspec --benchmarks swim,gcc --grid "policies=str+live;tus=4"
 *   sweep_loopspec --grid "predictors=bimodal,gshare:12;tus=2,4"
 *
 * The grid spec is semicolon-separated key=value pairs with
 * comma-separated lists:
 *   policies    idle | str | str1..str9, each with an optional "+live",
 *               "+mem" or "+all" data-mode suffix (see dataspec)
 *   predictors  conventional-baseline entries appended to the policy
 *               axis: bimodal[:T] | gshare[:H[/T]] | local[:H/L] |
 *               let[:T] | tage[:N/a-b[/T]] | tournament:<a>+<b>
 *               (docs/PREDICTORS.md) — each spawns threads from chained
 *               branch predictions instead of LET trip predictions
 *   tus         thread-unit counts
 *   cls         CLS capacities (first is traced live, rest replayed);
 *               overrides --cls
 *   let         LET capacities backing the trip predictor (0 = unbounded)
 *   spawnconf   <bits>/<threshold> or "off": grid-wide per-loop spawn
 *               throttle trained on verify/squash outcomes (off = the
 *               paper behaviour, bit-identical to no throttle)
 *   ideal       0/1: collect the ∞-TU TPC artifact per workload
 *   dataspec    "0"/"1": collect the §4 data-speculation report per
 *               workload (the legacy row-report switch); otherwise a
 *               comma list of data modes (none | live | mem | all,
 *               docs/DATASPEC.md) crossed into the policy axis
 *               policy-major — e.g. "policies=str,str3;dataspec=none,mem"
 *               produces str, str+mem, str3, str3+mem cells. live/all
 *               need the functional pass's live-in flags (single-CLS
 *               grids only); mem re-derives the conflict annotation
 *               from the memory sidecar at every CLS
 *   datacost    recovery cycles charged per data-violation event in the
 *               live/mem/all modes (SpecConfig::dataSquashCycles;
 *               default 0)
 * or the single preset "paper": every Table-1 workload ×
 * {IDLE, STR, STR(1..3)} × {2,4,8,16} TUs at CLS 16 — the union of the
 * Figure 6/7 and Table 2 grids.
 *
 * --baseline additionally re-runs the identical grid fully serially
 * (--jobs 1), verifies the swept rows AND cells are bit-identical to
 * the serial ones, and records the wall-clock speedup in the JSON.
 * --json <path> writes the consolidated artifact (CI uses
 * BENCH_specsim.json; no file is written without the flag). Exit 0 on
 * success; any divergence is fatal.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "loop/cls.hh"
#include "util/logging.hh"
#include "util/table_writer.hh"

using namespace loopspec;

namespace
{

void
checkResultsIdentical(const SweepResult &swept, const SweepResult &serial)
{
    if (swept.rows.size() != serial.rows.size())
        fatal("baseline check: %zu swept rows vs %zu serial",
              swept.rows.size(), serial.rows.size());
    for (size_t i = 0; i < swept.rows.size(); ++i) {
        const SweepRow &a = swept.rows[i];
        const SweepRow &b = serial.rows[i];
        // Exact double comparison is deliberate: determinism means
        // bit-identical, not approximately equal.
        if (a.totalInstrs != b.totalInstrs || a.idealTpc != b.idealTpc ||
            a.idealTpcPrefix != b.idealTpcPrefix ||
            a.dataSpec.itersEvaluated != b.dataSpec.itersEvaluated ||
            a.dataSpec.modalIters != b.dataSpec.modalIters ||
            a.dataSpec.lrCorrect != b.dataSpec.lrCorrect ||
            a.dataSpec.lmCorrect != b.dataSpec.lmCorrect ||
            a.dataSpec.allDataIters != b.dataSpec.allDataIters) {
            fatal("baseline check: row %zu (%s @ CLS %zu) diverges "
                  "between swept and serial runs",
                  i, a.workload.c_str(), a.clsEntries);
        }
    }
    if (swept.cells.size() != serial.cells.size())
        fatal("baseline check: %zu swept cells vs %zu serial",
              swept.cells.size(), serial.cells.size());
    for (size_t i = 0; i < swept.cells.size(); ++i) {
        const SpecStats &a = swept.cells[i].stats;
        const SpecStats &b = serial.cells[i].stats;
        if (a != b) {
            fatal("baseline check: cell %zu diverges between swept and "
                  "serial runs (cycles %llu vs %llu)",
                  i, static_cast<unsigned long long>(a.cycles),
                  static_cast<unsigned long long>(b.cycles));
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::unique_ptr<CliArgs> args;
    RunOptions opts = parseRunOptions(argc, argv,
                                      {"grid", "json", "baseline"}, &args);

    SweepGrid grid = sweepGridFromOptions(opts);
    // Shared with the sweep service (sweep.hh): same parser, so a grid
    // string means the same thing on the command line and on the wire.
    std::string grid_err =
        applyGridSpec(args->getString("grid", "paper"), &grid);
    if (!grid_err.empty())
        fatal("--%s", grid_err.c_str());
    const std::string json_path = args->getString("json", "");
    const bool baseline = args->getBool("baseline", false);

    SweepResult swept = runSpecSweep(grid, opts.jobs);

    double serial_seconds = 0.0;
    if (baseline) {
        SweepResult serial = runSpecSweep(grid, 1);
        checkResultsIdentical(swept, serial);
        serial_seconds = serial.sweepSeconds;
    }

    TableWriter t({"metric", "value"});
    auto metric = [&t](const std::string &name, uint64_t value) {
        t.row();
        t.cell(name);
        t.cell(value);
    };
    metric("workloads", grid.workloads.size());
    metric("cls sizes", grid.clsSizes.size());
    metric("policies", grid.policies.size());
    metric("tu counts", grid.tuCounts.size());
    metric("let sizes", grid.letEntries.size());
    metric("functional passes", swept.functionalPasses);
    metric("recordings produced", swept.recordingsProduced);
    metric("cells run", swept.cellsRun);
    std::cout << "Speculation sweep ("
              << (opts.jobs ? std::to_string(opts.jobs)
                            : std::string("hw"))
              << " jobs)\n";
    if (opts.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);

    if (!swept.cells.empty()) {
        std::vector<std::string> headers = {"policy \\ TUs"};
        for (unsigned tu : grid.tuCounts)
            headers.push_back(std::to_string(tu));
        TableWriter tpc(headers);
        for (size_t p = 0; p < grid.policies.size(); ++p) {
            tpc.row();
            tpc.cell(grid.policies[p].name());
            for (size_t i = 0; i < grid.tuCounts.size(); ++i)
                tpc.cell(swept.meanTpc(p, i), 2);
        }
        std::cout << "suite-average TPC (first CLS/LET point)\n";
        if (opts.csv)
            tpc.printCsv(std::cout);
        else
            tpc.print(std::cout);
    }

    std::cout << "swept wall time: " << swept.sweepSeconds << "s\n";
    if (baseline) {
        std::cout << "serial wall time: " << serial_seconds
                  << "s  (speedup "
                  << (swept.sweepSeconds > 0.0
                          ? serial_seconds / swept.sweepSeconds
                          : 0.0)
                  << "x, rows+cells bit-identical)\n";
    }
    writeSweepJsonFile(json_path, swept, opts.jobs, serial_seconds);
    return 0;
}
