/**
 * @file
 * Reproduces Table 1: per-program loop statistics (#instructions, static
 * loop count, iterations per execution, instructions per iteration,
 * average and maximum nesting level), side by side with the paper's
 * values. Absolute instruction counts are scaled (synthetic workloads);
 * every other column is a shape statistic and comparable directly.
 */

#include <iostream>

#include "bench/paper_ref.hh"
#include "harness/runner.hh"
#include "util/table_writer.hh"

using namespace loopspec;

int
main(int argc, char **argv)
{
    RunOptions opts = parseRunOptions(argc, argv, {});

    TableWriter t({"bench", "#instr/1e6", "#loops", "#loops(paper)",
                   "#iter/exec", "(paper)", "#instr/iter", "(paper)",
                   "avg.nl", "(paper)", "max.nl", "(paper)"});

    CollectFlags flags;
    flags.loopStats = true;

    // All workloads trace concurrently; artifacts come back in suite
    // order, so the printed table is identical to the sequential loop.
    std::vector<std::string> names = opts.selected();
    std::vector<WorkloadArtifacts> artifacts =
        runWorkloads(names, opts, flags, opts.jobs);
    for (size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[i];
        const auto &r = artifacts[i].loopStats;
        // Workloads outside the paper's suite (synth.*) have no
        // reference row; their paper columns print "-".
        auto it = paper::table1.find(name);
        const paper::Table1Row *p =
            it == paper::table1.end() ? nullptr : &it->second;
        auto paperCount = [&](auto member) {
            if (p)
                t.cell(static_cast<uint64_t>(p->*member));
            else
                t.cell("-");
        };
        auto paperStat = [&](double paper::Table1Row::*member) {
            if (p)
                t.cell(p->*member, 2);
            else
                t.cell("-");
        };
        t.row();
        t.cell(name);
        t.cell(static_cast<double>(r.totalInstrs) / 1e6, 2);
        t.cell(r.staticLoops);
        paperCount(&paper::Table1Row::loops);
        t.cell(r.itersPerExec, 2);
        paperStat(&paper::Table1Row::itersPerExec);
        t.cell(r.instrsPerIter, 2);
        paperStat(&paper::Table1Row::instrsPerIter);
        t.cell(r.avgNesting, 2);
        paperStat(&paper::Table1Row::avgNest);
        t.cell(static_cast<uint64_t>(r.maxNesting));
        paperCount(&paper::Table1Row::maxNest);
    }

    std::cout << "Table 1: loop statistics (measured vs paper)\n";
    if (opts.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    return 0;
}
