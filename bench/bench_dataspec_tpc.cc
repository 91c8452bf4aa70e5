/**
 * @file
 * Extension experiment (the paper's stated follow-up, §4/§5): the
 * combined control+data speculation figure. The §3 model's TPC is an
 * upper bound that ignores inter-thread data dependences; this bench
 * charges them, one source at a time, on the same annotated recordings
 * (docs/DATASPEC.md):
 *
 *   control  - §3 model (data dependences ignored; Figure 6/Table 2)
 *   +live    - live-in register values must be stride-predictable at
 *              spawn or the thread and everything younger are squashed,
 *              charging the same recovery penalty (DataMode::LiveIns,
 *              the value-prediction squash)
 *   +mem     - profiled cross-iteration memory conflicts squash the
 *              violating thread and everything younger, charging a
 *              per-violation recovery penalty (DataMode::Conflicts)
 *   +all     - both squash sources together (DataMode::Full): the
 *              combined control+data TPC the §5 conclusion reasons
 *              about
 *
 * One grid on STR / 4 TUs; a single functional pass per workload feeds
 * every cell. retained% is the share of the control-speculation TPC
 * *gain* (over 1.0) surviving the full data model.
 */

#include <iostream>
#include <memory>

#include "harness/runner.hh"
#include "util/table_writer.hh"

using namespace loopspec;

int
main(int argc, char **argv)
{
    std::unique_ptr<CliArgs> args;
    RunOptions opts = parseRunOptions(argc, argv, {"json", "datacost"},
                                      &args);

    SweepGrid grid = sweepGridFromOptions(opts);
    grid.policies = {
        {SpecPolicy::Str, 3, DataMode::None, "control"},
        {SpecPolicy::Str, 3, DataMode::LiveIns, "+live"},
        {SpecPolicy::Str, 3, DataMode::Conflicts, "+mem"},
        {SpecPolicy::Str, 3, DataMode::Full, "+all"}};
    grid.tuCounts = {4};
    // Per-violation recovery penalty (SpecConfig::dataSquashCycles):
    // the squashed work is already lost; this adds the restart cost a
    // LAMP-style remediation would pay per flagged edge.
    grid.dataSquashCycles =
        static_cast<unsigned>(args->getUint("datacost", 20));
    SweepResult r = runSpecSweep(grid, opts.jobs);

    TableWriter t({"bench", "control", "+live", "+mem", "+all",
                   "retained%", "mem squash%", "live miss%"});
    for (size_t w = 0; w < grid.workloads.size(); ++w) {
        const SpecStats &sc = r.cell(w, 0, 0, 0);
        const SpecStats &sl = r.cell(w, 0, 1, 0);
        const SpecStats &sm = r.cell(w, 0, 2, 0);
        const SpecStats &sa = r.cell(w, 0, 3, 0);

        uint64_t attempts = sa.threadsVerified + sa.threadsSquashed;
        t.row();
        t.cell(grid.workloads[w]);
        t.cell(sc.tpc(), 2);
        t.cell(sl.tpc(), 2);
        t.cell(sm.tpc(), 2);
        t.cell(sa.tpc(), 2);
        t.cell(sc.tpc() > 1.0
                   ? 100.0 * (sa.tpc() - 1.0) / (sc.tpc() - 1.0)
                   : 100.0,
               1);
        t.cell(attempts ? 100.0 *
                              static_cast<double>(sa.conflictSquashes) /
                              static_cast<double>(attempts)
                        : 0.0,
               1);
        t.cell(attempts ? 100.0 * static_cast<double>(sa.dataMisses) /
                              static_cast<double>(attempts)
                        : 0.0,
               1);
    }
    double avg_ctrl = r.meanTpc(0, 0);
    double avg_full = r.meanTpc(3, 0);
    t.row();
    t.cell(std::string("AVG"));
    t.cell(avg_ctrl, 2);
    t.cell(r.meanTpc(1, 0), 2);
    t.cell(r.meanTpc(2, 0), 2);
    t.cell(avg_full, 2);
    t.cell(avg_ctrl > 1.0
               ? 100.0 * (avg_full - 1.0) / (avg_ctrl - 1.0)
               : 100.0,
           1);

    std::cout << "Extension: combined control+data speculation TPC "
                 "(STR, 4 TUs, datacost="
              << grid.dataSquashCycles << ")\n";
    std::cout << "retained% = share of the control-speculation TPC gain "
                 "surviving the full data model (+all).\n";
    if (opts.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    writeSweepJsonFile(args->getString("json", ""), r, opts.jobs);
    return 0;
}
