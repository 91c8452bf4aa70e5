/**
 * @file
 * Loop-detection vs conventional branch predictors — the comparison the
 * paper makes by citation, measured (docs/PREDICTORS.md). Two views
 * over the Table-1 suite plus the synth.* families:
 *
 *  1. raw predictor accuracy over the retired conditional-branch
 *     stream (the stream the CLS consumes), per workload;
 *  2. delivered speculation quality: TPC and thread hit ratio of the
 *     LET-backed STR policy against each predictor driving the PRED
 *     spawn policy, across the --tus axis, through the sweep engine
 *     (one functional pass per workload, bit-identical for any
 *     --jobs).
 *
 * --json writes the consolidated BENCH_predict.json artifact
 * (accuracy rows + speculation cells + suite averages); CI uploads it.
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "util/logging.hh"
#include "util/table_writer.hh"

using namespace loopspec;

namespace
{

std::vector<unsigned>
parseTus(const std::string &csv)
{
    std::vector<unsigned> out;
    for (const std::string &v : splitList(csv)) {
        if (v.empty() ||
            v.find_first_not_of("0123456789") != std::string::npos)
            fatal("--tus: malformed count '%s'", v.c_str());
        unsigned long n;
        try {
            n = std::stoul(v);
        } catch (const std::exception &) {
            fatal("--tus: malformed count '%s'", v.c_str());
        }
        if (n < 1 || n > 4096)
            fatal("--tus: TU count %lu outside [1, 4096]", n);
        out.push_back(static_cast<unsigned>(n));
    }
    if (out.empty())
        fatal("--tus: empty list");
    return out;
}

void
writeJson(const std::string &path,
          const std::vector<std::string> &names,
          const std::vector<PredictorConfig> &configs,
          const std::vector<WorkloadArtifacts> &arts,
          const SweepGrid &grid, const SweepResult &r, unsigned jobs)
{
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os)
        fatal("cannot write %s", path.c_str());
    os.precision(12);

    os << "{\n  \"jobs\": " << jobs << ",\n  \"workloads\": [";
    for (size_t i = 0; i < names.size(); ++i)
        os << (i ? ", " : "") << "\"" << names[i] << "\"";
    os << "],\n  \"predictors\": [";
    for (size_t i = 0; i < configs.size(); ++i)
        os << (i ? ", " : "") << "\"" << predictorName(configs[i])
           << "\"";
    os << "],\n";

    os << "  \"accuracy\": [\n";
    for (size_t w = 0; w < arts.size(); ++w) {
        for (size_t p = 0; p < arts[w].predictorStats.size(); ++p) {
            const PredictorMeterResult &m = arts[w].predictorStats[p];
            os << "    {\"workload\": \"" << names[w]
               << "\", \"predictor\": \"" << predictorName(m.config)
               << "\", \"branches\": " << m.lookups
               << ", \"hits\": " << m.hits
               << ", \"hit_pct\": " << m.hitPct() << "}"
               << (w + 1 < arts.size() ||
                           p + 1 < arts[w].predictorStats.size()
                       ? ","
                       : "")
               << "\n";
        }
    }
    os << "  ],\n";

    os << "  \"speculation\": {\n    \"tus\": [";
    for (size_t t = 0; t < grid.tuCounts.size(); ++t)
        os << (t ? ", " : "") << grid.tuCounts[t];
    os << "],\n    \"policies\": [";
    for (size_t p = 0; p < grid.policies.size(); ++p)
        os << (p ? ", " : "") << "\"" << grid.policies[p].name()
           << "\"";
    os << "],\n    \"cells\": [\n";
    for (size_t w = 0; w < grid.workloads.size(); ++w) {
        for (size_t p = 0; p < grid.policies.size(); ++p) {
            for (size_t t = 0; t < grid.tuCounts.size(); ++t) {
                const SpecStats &s = r.cell(w, 0, p, t);
                os << "      {\"workload\": \"" << grid.workloads[w]
                   << "\", \"policy\": \""
                   << grid.policies[p].name()
                   << "\", \"tus\": " << grid.tuCounts[t]
                   << ", \"tpc\": " << s.tpc()
                   << ", \"hit_pct\": " << 100.0 * s.hitRatio() << "}"
                   << (w + 1 < grid.workloads.size() ||
                               p + 1 < grid.policies.size() ||
                               t + 1 < grid.tuCounts.size()
                           ? ","
                           : "")
                   << "\n";
            }
        }
    }
    os << "    ],\n    \"suite_avg\": [\n";
    // Policy 0 is the LET-backed STR reference; tpc_gap_vs_str > 0
    // means the scheme closed (and passed) the PR-5 predictor gap.
    for (size_t p = 0; p < grid.policies.size(); ++p) {
        for (size_t t = 0; t < grid.tuCounts.size(); ++t) {
            os << "      {\"policy\": \"" << grid.policies[p].name()
               << "\", \"tus\": " << grid.tuCounts[t]
               << ", \"tpc\": " << r.meanTpc(p, t)
               << ", \"tpc_gap_vs_str\": "
               << r.meanTpc(p, t) - r.meanTpc(0, t)
               << ", \"hit_pct\": " << r.meanHitPct(p, t) << "}"
               << (p + 1 < grid.policies.size() ||
                           t + 1 < grid.tuCounts.size()
                       ? ","
                       : "")
               << "\n";
        }
    }
    os << "    ]\n  }\n}\n";
    std::cout << "wrote " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::unique_ptr<CliArgs> args;
    RunOptions opts = parseRunOptions(argc, argv,
                                      {"predictors", "tus", "json"},
                                      &args);

    std::vector<PredictorConfig> configs;
    for (const std::string &spec : splitList(args->getString(
             "predictors",
             "bimodal:12,gshare:12,local:10/10,let:10,"
             "tournament:let:10+local:10/10,tage:4/2-8")))
        configs.push_back(parsePredictorSpec(spec));
    if (configs.empty())
        fatal("--predictors: empty list");
    std::vector<unsigned> tus = parseTus(args->getString("tus", "2,4,8"));

    // Default scope in process: the whole Table-1 suite plus the
    // generated synth.* families — the irregular-control regime where
    // the baselines and the loop tables disagree most. Under --trace-dir
    // the default is whatever the directory holds, as for every bench.
    std::vector<std::string> names = opts.selected();
    if (opts.benchmarks.empty() && opts.traceDir.empty()) {
        for (const std::string &n : syntheticWorkloadNames())
            names.push_back(n);
    }

    // --- 1. Accuracy over the retired conditional-branch stream ------
    CollectFlags flags;
    flags.predictors = configs;
    std::vector<WorkloadArtifacts> arts =
        runWorkloads(names, opts, flags, opts.jobs);

    std::vector<std::string> headers = {"bench", "branches"};
    for (const PredictorConfig &c : configs)
        headers.push_back(predictorName(c) + " hit%");
    TableWriter acc(headers);
    for (size_t w = 0; w < arts.size(); ++w) {
        acc.row();
        acc.cell(names[w]);
        acc.cell(arts[w].predictorStats.empty()
                     ? 0
                     : arts[w].predictorStats[0].lookups);
        for (const PredictorMeterResult &m : arts[w].predictorStats)
            acc.cell(m.hitPct(), 2);
    }
    std::cout << "Predictor accuracy on the retired conditional-branch "
                 "stream\n";
    if (opts.csv)
        acc.printCsv(std::cout);
    else
        acc.print(std::cout);

    // --- 2. Delivered speculation: STR (LET) vs each PRED scheme -----
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.workloads = names;
    grid.policies = {{SpecPolicy::Str, 3, DataMode::None, "STR"}};
    for (const PredictorConfig &c : configs)
        grid.policies.push_back(predictorGridPolicy(predictorName(c)));
    grid.tuCounts = tus;
    SweepResult r = runSpecSweep(grid, opts.jobs);

    std::vector<std::string> sh = {"policy \\ TUs"};
    for (unsigned tu : tus)
        sh.push_back(std::to_string(tu));
    TableWriter tpc(sh);
    TableWriter hit(sh);
    for (size_t p = 0; p < grid.policies.size(); ++p) {
        tpc.row();
        hit.row();
        tpc.cell(grid.policies[p].name());
        hit.cell(grid.policies[p].name());
        for (size_t t = 0; t < tus.size(); ++t) {
            tpc.cell(r.meanTpc(p, t), 2);
            hit.cell(r.meanHitPct(p, t), 2);
        }
    }
    std::cout << "suite-average TPC (loop detection vs predictors)\n";
    if (opts.csv)
        tpc.printCsv(std::cout);
    else
        tpc.print(std::cout);
    std::cout << "suite-average thread hit ratio %\n";
    if (opts.csv)
        hit.printCsv(std::cout);
    else
        hit.print(std::cout);

    writeJson(args->getString("json", ""), names, configs, arts, grid,
              r, opts.jobs);
    return 0;
}
