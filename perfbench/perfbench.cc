/**
 * @file
 * perfbench: the pipeline benchmark (perfbench/README.md).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--scale f] [--work-dir dir] [--inject corrupt|delay:L:ms]
 *
 * Workloads: sweep_paper, sweep_dataspec, sweep_cls_tracedir (this
 * file) and sweepd_mixed (service.cc). --trace 0 prints the end-to-end
 * metrics measured with tracing off; --trace 1 runs the traced
 * decomposition and prints the per-layer metrics. The last stdout line
 * is the JSON result; the lines before it give provenance and every
 * metric with its unit and sample count.
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include <limits.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include "harness/runner.hh"
#include "perfbench/perfbench.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

using namespace loopspec;

namespace perfbench
{

namespace
{

struct SweepWorkload
{
    const char *name;
    const char *grid; //!< applyGridSpec text
    bool traceDir;    //!< replay exported .lstrace containers
};

const SweepWorkload kSweepWorkloads[] = {
    {"sweep_paper", "paper", false},
    {"sweep_dataspec",
     "policies=str;tus=4;dataspec=none,live,mem,all;datacost=20", false},
    {"sweep_cls_tracedir", "policies=str;tus=4;cls=16,4,8,32,64;ideal=1",
     true},
};

const SweepWorkload *
findSweepWorkload(const std::string &name)
{
    for (const SweepWorkload &w : kSweepWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

/** Build and validate every program; for the trace-dir workload also
 *  export each one's control trace (varint). */
void
prepare(const Options &opts, const SweepGrid &grid, bool export_traces)
{
    parallelFor(opts.jobs, grid.workloads.size(), [&](uint64_t w) {
        buildWorkload(grid.workloads[w], grid.scale).validate();
        if (export_traces) {
            RunOptions ro;
            ro.scale = grid.scale;
            exportWorkloadTrace(grid.workloads[w], ro, grid.traceDir,
                                TraceEncoding::Varint);
        }
    });
}

/** A sweep's JSON minus the wall block; @p corrupt first perturbs one
 *  cell (the self-tests' injected fault). */
std::string
checkedJson(SweepResult *r, unsigned jobs, bool corrupt)
{
    if (corrupt && !r->cells.empty())
        r->cells[r->cells.size() / 2].stats.cycles += 1;
    return stripWall(sweepJson(*r, jobs));
}

/** Control-only stage 1 over the same programs: the base of
 *  dataspec.pass_vs_control. */
void
controlOnlyPass(const SweepGrid &grid, unsigned jobs, Tracer &tracer,
                uint64_t rid, uint64_t parent)
{
    RunOptions ro;
    ro.scale = grid.scale;
    ro.clsEntries = grid.clsSizes[0];
    CollectFlags flags;
    flags.recording = true;
    parallelFor(jobs, grid.workloads.size(), [&](uint64_t w) {
        SpanScope s(tracer, "tracegen.controlPass", parent, rid);
        runWorkload(grid.workloads[w], ro, flags);
    });
}

} // namespace

RunResult
runSweepWorkload(const Options &opts, Tracer &tracer)
{
    const SweepWorkload &wl = *findSweepWorkload(opts.workload);
    SweepGrid grid;
    grid.scale.factor = opts.scale;
    const std::string err = applyGridSpec(wl.grid, &grid);
    if (!err.empty())
        fatal("%s", err.c_str());
    if (wl.traceDir) {
        grid.traceDir = opts.workDir + "/traces";
        mkdir(grid.traceDir.c_str(), 0755);
    }
    // Each repetition sweeps the programs in its own seeded order: the
    // order moves the pool's load balance, never a result.
    uint64_t rep = 0;
    const auto next_grid = [&] {
        grid.workloads = seededProgramOrder(opts.seed, rep++);
        return grid;
    };

    const bool corrupt = opts.inject == "corrupt";
    RunResult res;
    uint64_t ref_digest = 0;
    SweepResult ref;
    /** One untraced sweep: runSpecSweep + writeSweepJson, checked
     *  against the first one's canonical digest. */
    const auto untraced_sweep = [&](const SweepGrid &g, bool corrupt_it,
                                    std::string *json) {
        const double t0 = now();
        SweepResult r = runSpecSweep(g, opts.jobs);
        *json = checkedJson(&r, opts.jobs, corrupt_it);
        const double seconds = now() - t0;
        const uint64_t digest = canonicalDigest(*json);
        if (res.attempted++ == 0) {
            ref_digest = digest;
            ref = std::move(r);
        }
        res.failed += digest != ref_digest;
        return seconds;
    };

    // Set-up, twice: program build (+ trace export) and one warm-up
    // sweep, whose digest is the reference every later sweep matches.
    std::vector<double> setups;
    for (int i = 0; i < 2; ++i) {
        const double t0 = now();
        const SweepGrid g = next_grid();
        prepare(opts, g, wl.traceDir);
        std::string json;
        untraced_sweep(g, false, &json);
        setups.push_back(now() - t0);
    }
    res.set("setup_s", median(setups), setups.size());

    std::vector<double> untraced;
    const double deadline = now() + opts.seconds;
    if (!opts.trace) {
        // Peak RSS per sweep: which programs share the pool at once
        // depends on the order, so one process-wide maximum would be an
        // extreme of the seeded orders rather than a typical sweep.
        std::vector<double> peaks;
        do {
            std::string json;
            resetPeakRss();
            untraced.push_back(
                untraced_sweep(next_grid(), corrupt && untraced.empty(),
                               &json));
            peaks.push_back(procStatusMb("VmHWM"));
        } while (now() < deadline);
        res.set("peak_rss_mb", median(peaks), peaks.size(),
                "high-water RSS of one sweep");

        double q = 0.0;
        const double tail = tailQuantile(untraced, &q);
        double busy = 0.0;
        for (double s : untraced)
            busy += s;
        char note[64];
        std::snprintf(note, sizeof(note), "p%.0f of sweep latency",
                      q * 100.0);
        res.set("sweep_s", median(untraced), untraced.size());
        res.set("req_p50_ms", median(untraced) * 1e3, untraced.size(),
                "one sweep = one request");
        res.set("req_p99_ms", tail * 1e3, untraced.size(), note);
        res.set("req_per_s", untraced.size() / busy, untraced.size(),
                "sweeps per second, one caller");
        res.set("tpc_mean", canonicalTpcMean({&ref}), ref.cells.size());
        res.set("paper_err_pct", paperErrorPct({&ref}));
        return res;
    }

    // Traced run: an untraced sweep and the traced decomposition of the
    // same grid, which must reproduce its JSON byte for byte. Which of
    // the two goes first alternates (the second finds the heap the first
    // left behind), so their difference is the tracing overhead.
    std::vector<double> traced;
    std::vector<LayerSample> samples;
    uint64_t rid = 0;
    do {
        const SweepGrid g = next_grid();
        std::string direct_json;
        if (rid % 2 == 0)
            untraced.push_back(untraced_sweep(g, false, &direct_json));

        LayerSample sample;
        ++rid;
        const double t0 = now();
        std::string json;
        {
            SpanScope top(tracer, "perfbench.sweep", 0, rid);
            SweepResult r = decomposedSweep(g, opts.jobs, tracer, rid,
                                            top.id(), &sample);
            SpanScope js(tracer, "harness.writeSweepJson", top.id(), rid);
            json = checkedJson(&r, opts.jobs, corrupt && traced.empty());
        }
        traced.push_back(now() - t0);
        if (rid % 2 == 0)
            untraced.push_back(untraced_sweep(g, false, &direct_json));
        ++res.attempted;
        res.failed += json != direct_json;
        sample["harness.json_s"] =
            tracer.total("harness.writeSweepJson", rid);

        if (g.needsDataCorrectness() || g.needsConflictProfile()) {
            controlOnlyPass(g, opts.jobs, tracer, rid, 0);
            const double base = tracer.total("tracegen.controlPass", rid);
            sample["dataspec.pass_vs_control"] =
                base > 0.0 ? tracer.total("tracegen.runWorkload", rid) / base
                           : 0.0;
        }
        samples.push_back(std::move(sample));
    } while (now() < deadline);

    for (const auto &[name, unit] : perLayerMetrics()) {
        std::vector<double> vals;
        for (const LayerSample &s : samples) {
            auto it = s.find(name);
            if (it != s.end())
                vals.push_back(it->second);
        }
        if (!vals.empty())
            res.set(name, median(vals), vals.size());
    }
    res.set("perfbench.traced_sweep_s", median(traced), traced.size());
    res.set("perfbench.trace_overhead_s", median(traced) - median(untraced),
            traced.size(), "traced minus untraced sweep_s");
    return res;
}

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
provenanceJson(const Options &opts)
{
    std::ostringstream os;
    os << "{\"workload\": \"" << jsonEscape(opts.workload)
       << "\", \"seed\": " << opts.seed << ", \"scale\": " << opts.scale
       << ", \"seconds\": " << opts.seconds
       << ", \"trace\": " << (opts.trace ? 1 : 0)
       << ", \"nproc\": " << opts.jobs << ", \"compiler\": \""
       << jsonEscape(PERFBENCH_COMPILER) << "\", \"build_type\": \""
       << jsonEscape(PERFBENCH_BUILD_TYPE) << "\", \"git_commit\": \""
       << jsonEscape(opts.gitCommit) << "\", \"source_digest\": \""
       << jsonEscape(opts.sourceDigest) << "\", \"inject\": \""
       << jsonEscape(opts.inject) << "\"}";
    return os.str();
}

/** Full-precision number for the result line. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

} // namespace perfbench

using namespace perfbench;

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 {"workload", "seed", "seconds", "trace", "scale", "work-dir",
                  "inject", "git-commit", "source-digest"});
    Options opts;
    opts.workload = args.getString("workload", "");
    opts.seed = args.getUint("seed", 1);
    opts.seconds = args.getDouble("seconds", 10.0);
    opts.trace = args.getUint("trace", 0) != 0;
    opts.scale = args.getDouble("scale", 1.0);
    opts.inject = args.getString("inject", "");
    opts.gitCommit = args.getString("git-commit", "unknown");
    opts.sourceDigest = args.getString("source-digest", "unknown");
    opts.jobs = std::max(1u, std::thread::hardware_concurrency());
    if (!findSweepWorkload(opts.workload) &&
        opts.workload != "sweepd_mixed")
        fatal("--workload must be sweep_paper, sweep_dataspec, "
              "sweep_cls_tracedir or sweepd_mixed");
    if (!(opts.seconds > 0.0) || !(opts.scale > 0.0))
        fatal("--seconds and --scale must be positive");
    if (!opts.inject.empty() && opts.inject != "corrupt" &&
        opts.inject.rfind("delay:", 0) != 0)
        fatal("--inject takes corrupt or delay:<layer>:<ms>");

    // Everything the run writes lives in the work directory; running
    // from inside it keeps the server's socket path short.
    const std::string work = args.getString("work-dir", ".perfbench_work");
    mkdir(work.c_str(), 0755);
    char abs[PATH_MAX];
    if (!realpath(work.c_str(), abs) || chdir(abs) != 0)
        fatal("cannot use work directory %s", work.c_str());
    opts.workDir = abs;

    Tracer tracer(opts.inject);
    RunResult res = opts.workload == "sweepd_mixed"
                        ? runServiceWorkload(opts, tracer)
                        : runSweepWorkload(opts, tracer);

    const auto &sheet = opts.trace ? perLayerMetrics() : endToEndMetrics();
    if (opts.trace) {
        res.set("failed_frac", static_cast<double>(res.failed) /
                                   static_cast<double>(res.attempted),
                res.attempted);
    }

    const std::string provenance = provenanceJson(opts);
    std::cout << "provenance " << provenance << "\n";
    std::cout << "attempted " << res.attempted << " failed " << res.failed
              << "\n";
    std::ostringstream metrics;
    bool first = true;
    for (const auto &[name, unit] : sheet) {
        // Metrics of layers this workload never calls read 0.
        const Metric m = res.metrics.count(name) ? res.metrics[name]
                                                 : Metric{};
        char line[160];
        std::snprintf(line, sizeof(line), "%-36s %14.6g %-9s n=%llu",
                      name.c_str(), m.value, unit.c_str(),
                      static_cast<unsigned long long>(m.samples));
        std::cout << line << (m.note.empty() ? "" : "  (" + m.note + ")")
                  << "\n";
        metrics << (first ? "" : ", ") << "\"" << name
                << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
                << unit << "\"}";
        first = false;
    }
    if (opts.trace) {
        const std::string path = opts.workDir + "/spans-" + opts.workload +
                                 "-seed" + std::to_string(opts.seed) +
                                 ".json";
        if (!tracer.write(path, provenance))
            fatal("cannot write %s", path.c_str());
        std::cout << "spans written to " << path << " (injected delays: "
                  << tracer.delayedCalls() << ")\n";
    }
    std::cout << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << res.attempted
              << ", \"failed\": " << res.failed << ", \"metrics\": {"
              << metrics.str() << "}}" << std::endl;
    return 0;
}
