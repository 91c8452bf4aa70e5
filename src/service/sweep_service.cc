#include "service/sweep_service.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "trace_io/trace_codec.hh"
#include "util/cli.hh"
#include "workloads/workload.hh"

namespace loopspec
{

SweepService::SweepService(const SweepServiceConfig &config)
    : cfg(config), cache(config.cacheBytes), pool(config.jobs)
{
    // A bad --trace-dir is a server configuration error: fail at
    // startup (fatal is fine here — no remote input involved).
    if (!cfg.traceDir.empty())
        traceWorkloads = traceDirWorkloads(cfg.traceDir);
}

std::string
SweepService::requestToGrid(const SweepRequest &req, SweepGrid *grid,
                            unsigned *jobs_echo) const
{
    std::string err;

    // Mirror parseRunOptions defaults and validation, through the same
    // tryParse* primitives, so a raw flag string parses to the exact
    // value the CLI would produce (including the double bit pattern
    // behind --scale).
    double scale = 1.0;
    if (!req.scale.empty()) {
        err = tryParseDouble(req.scale, &scale);
        if (!err.empty())
            return err + " for scale";
    }
    if (!(scale > 0.0) || !std::isfinite(scale))
        return "scale must be positive";

    uint64_t cls = 16;
    if (!req.cls.empty()) {
        err = tryParseUint(req.cls, &cls);
        if (!err.empty())
            return err + " for cls";
    }

    uint64_t max_instrs = 0;
    if (!req.maxInstrs.empty()) {
        err = tryParseUint(req.maxInstrs, &max_instrs);
        if (!err.empty())
            return err + " for max-instrs";
    }

    uint64_t jobs = 0;
    if (!req.jobs.empty()) {
        err = tryParseUint(req.jobs, &jobs);
        if (!err.empty())
            return err + " for jobs";
        if (jobs > 4096)
            return "jobs out of range";
    }
    *jobs_echo = static_cast<unsigned>(jobs);

    SweepGrid g;
    g.scale.factor = scale;
    g.clsSizes = {static_cast<size_t>(cls)};
    g.maxInstrs = max_instrs;
    g.traceDir = req.traceDir;
    g.workloads = splitList(req.benchmarks);
    if (g.workloads.empty())
        g.workloads =
            req.traceDir.empty() ? workloadNames() : traceWorkloads;

    err = applyGridSpec(req.grid.empty() ? "paper" : req.grid, &g);
    if (!err.empty())
        return err;

    err = validateGrid(g);
    if (!err.empty())
        return err;
    *grid = std::move(g);
    return "";
}

std::string
SweepService::validateGrid(const SweepGrid &grid) const
{
    if (grid.checkReplay)
        return "check-replay is not supported by the sweep service "
               "(divergence is fatal, not an error response)";

    // Requests may only read the directory this server was started to
    // serve: arbitrary client paths would turn the daemon into a file
    // probe.
    if (!grid.traceDir.empty() && grid.traceDir != cfg.traceDir)
        return "trace-dir '" + grid.traceDir +
               "' is not served by this server";

    std::string err = validateSweepGrid(grid);
    if (!err.empty())
        return err;

    for (const std::string &w : grid.workloads) {
        if (grid.traceDir.empty()) {
            if (!isKnownWorkload(w))
                return "unknown workload '" + w + "'";
        } else if (std::find(traceWorkloads.begin(),
                             traceWorkloads.end(),
                             w) == traceWorkloads.end()) {
            return "workload '" + w +
                   "' has no trace in the served directory";
        }
    }
    return "";
}

std::string
SweepService::run(const SweepGrid &grid, SweepResult *out)
{
    using clk = std::chrono::steady_clock;
    const auto t0 = clk::now();
    served.fetch_add(1);

    std::string err = validateGrid(grid);
    if (!err.empty())
        return err;

    SweepResult result;
    std::vector<std::shared_ptr<const CachedRecording>> recordings;
    err = materializeSweep(grid, cache, &pool, cfg.jobs, &result,
                           &recordings);
    if (!err.empty())
        return err;
    if (grid.hasCells())
        runSweepCells(grid, recordings, &result.cells, &pool, cfg.jobs);
    result.cellsRun = result.cells.size();
    result.sweepSeconds =
        std::chrono::duration<double>(clk::now() - t0).count();
    *out = std::move(result);
    return "";
}

} // namespace loopspec
