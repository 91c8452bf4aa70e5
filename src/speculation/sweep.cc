#include "speculation/sweep.hh"

#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <utility>

#include "dataspec/conflict_profiler.hh"
#include "harness/runner.hh"
#include "loop/cls.hh"
#include "loop/loop_detector.hh"
#include "service/recording_cache.hh"
#include "speculation/ideal_tpc.hh"
#include "speculation/spec_sim.hh"
#include "trace_io/replay_source.hh"
#include "trace_io/stream_reader.hh"
#include "trace_io/trace_codec.hh"
#include "tracegen/control_trace.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace loopspec
{

namespace
{

/** Every spelling of a data mode (docs/DATASPEC.md): its `dataspec=`
 *  grid token, its policy-label suffix and its JSON `data_mode` name. */
struct DataModeNames
{
    DataMode mode;
    const char *token;
    const char *suffix;
    const char *json;
};

constexpr DataModeNames kDataModeNames[] = {
    {DataMode::None, "none", "", "none"},
    {DataMode::LiveIns, "live", "+live", "live"},
    {DataMode::Conflicts, "mem", "+mem", "conflicts"},
    {DataMode::Full, "all", "+all", "full"},
};

const DataModeNames &
dataModeNames(DataMode mode)
{
    for (const DataModeNames &n : kDataModeNames) {
        if (n.mode == mode)
            return n;
    }
    return kDataModeNames[0];
}

} // namespace

std::string
GridPolicy::name() const
{
    if (!label.empty())
        return label;
    std::string base = policy == SpecPolicy::Pred
                           ? predictorName(predictor)
                           : specPolicyName(policy, nestLimit);
    return base + dataModeNames(dataMode).suffix;
}

GridPolicy
predictorGridPolicy(const std::string &spec)
{
    GridPolicy gp;
    gp.policy = SpecPolicy::Pred;
    gp.predictor = parsePredictorSpec(spec);
    gp.label = predictorName(gp.predictor);
    return gp;
}

size_t
SweepGrid::configsPerRecording() const
{
    return policies.size() * tuCounts.size() * letEntries.size();
}

size_t
SweepGrid::numCells() const
{
    return workloads.size() * clsSizes.size() * configsPerRecording();
}

bool
SweepGrid::hasCells() const
{
    return numCells() > 0;
}

bool
SweepGrid::needsDataCorrectness() const
{
    for (const GridPolicy &p : policies) {
        if (checksLiveIns(p.dataMode))
            return true;
    }
    return false;
}

bool
SweepGrid::needsConflictProfile() const
{
    for (const GridPolicy &p : policies) {
        if (checksConflicts(p.dataMode))
            return true;
    }
    return false;
}

size_t
SweepResult::rowIndex(size_t w, size_t c) const
{
    LOOPSPEC_ASSERT(w < grid.workloads.size() && c < grid.clsSizes.size(),
                    "sweep row coordinate out of range");
    return w * grid.clsSizes.size() + c;
}

size_t
SweepResult::cellIndex(size_t w, size_t c, size_t p, size_t t,
                       size_t l) const
{
    LOOPSPEC_ASSERT(w < grid.workloads.size() &&
                        c < grid.clsSizes.size() &&
                        p < grid.policies.size() &&
                        t < grid.tuCounts.size() &&
                        l < grid.letEntries.size(),
                    "sweep cell coordinate out of range");
    return (((w * grid.clsSizes.size() + c) * grid.policies.size() + p) *
                grid.tuCounts.size() +
            t) *
               grid.letEntries.size() +
           l;
}

const SweepRow &
SweepResult::row(size_t w, size_t c) const
{
    return rows[rowIndex(w, c)];
}

const SpecStats &
SweepResult::cell(size_t w, size_t c, size_t p, size_t t, size_t l) const
{
    return cells[cellIndex(w, c, p, t, l)].stats;
}

double
SweepResult::meanCellOverWorkloads(size_t c, size_t p, size_t t, size_t l,
                                   double (*fn)(const SpecStats &)) const
{
    const size_t w_count = grid.workloads.size();
    if (w_count == 0)
        return 0.0;
    double sum = 0.0;
    for (size_t w = 0; w < w_count; ++w)
        sum += fn(cell(w, c, p, t, l));
    return sum / static_cast<double>(w_count);
}

double
SweepResult::meanRowOverWorkloads(size_t c,
                                  double (*fn)(const SweepRow &)) const
{
    const size_t w_count = grid.workloads.size();
    if (w_count == 0)
        return 0.0;
    double sum = 0.0;
    for (size_t w = 0; w < w_count; ++w)
        sum += fn(row(w, c));
    return sum / static_cast<double>(w_count);
}

double
SweepResult::geomeanRowOverWorkloads(size_t c,
                                     double (*fn)(const SweepRow &)) const
{
    double log_sum = 0.0;
    unsigned count = 0;
    for (size_t w = 0; w < grid.workloads.size(); ++w) {
        double v = fn(row(w, c));
        if (v > 0.0) {
            log_sum += std::log10(v);
            ++count;
        }
    }
    return count ? std::pow(10.0, log_sum / count) : 0.0;
}

double
SweepResult::meanTpc(size_t p, size_t t, size_t c, size_t l) const
{
    return meanCellOverWorkloads(
        c, p, t, l, +[](const SpecStats &s) { return s.tpc(); });
}

double
SweepResult::meanHitPct(size_t p, size_t t, size_t c, size_t l) const
{
    return meanCellOverWorkloads(
        c, p, t, l, +[](const SpecStats &s) { return 100.0 * s.hitRatio(); });
}

void
applyPaperAxes(SweepGrid *grid)
{
    grid->policies = {{SpecPolicy::Idle, 3, DataMode::None, "IDLE"},
                      {SpecPolicy::Str, 3, DataMode::None, "STR"},
                      {SpecPolicy::StrI, 1, DataMode::None, "STR(1)"},
                      {SpecPolicy::StrI, 2, DataMode::None, "STR(2)"},
                      {SpecPolicy::StrI, 3, DataMode::None, "STR(3)"}};
    grid->tuCounts = {2, 4, 8, 16};
    grid->letEntries = {0};
}

namespace
{

/** Grid-axis policy entry: "idle" / "str" / "strN", with an optional
 *  data-mode suffix — "+live" (live-in register mispredictions), "+mem"
 *  (conflict violations) or "+all" (both). */
std::string
tryParseGridPolicy(std::string text, GridPolicy *gp)
{
    for (const DataModeNames &n : kDataModeNames) {
        const size_t len = std::strlen(n.suffix);
        if (len && text.size() > len &&
            text.compare(text.size() - len, len, n.suffix) == 0) {
            gp->dataMode = n.mode;
            text.resize(text.size() - len);
            break;
        }
    }
    return tryParseSpecPolicy(text, &gp->policy, &gp->nestLimit);
}

/** Grid-axis number with the axis name prepended to any diagnostic. */
std::string
tryParseGridU64(const std::string &text, const char *what, uint64_t *out)
{
    std::string err = tryParseUint(text, out);
    return err.empty() ? err : std::string(what) + ": " + err;
}

} // namespace

std::string
applyGridSpec(const std::string &spec, SweepGrid *grid)
{
    if (spec == "paper") {
        applyPaperAxes(grid); // shared with bench_fig7
        return "";
    }
    // dataspec= mode lists collect here and cross into the policy axis
    // only after every key is parsed, so "dataspec=...;policies=..."
    // and "policies=...;dataspec=..." produce the same grid.
    std::vector<DataMode> data_modes;
    bool have_data_modes = false;
    for (const std::string &pair : splitOn(spec, ';')) {
        size_t eq = pair.find('=');
        if (eq == std::string::npos)
            return "grid: expected key=value, got '" + pair + "'";
        const std::string key = pair.substr(0, eq);
        const std::vector<std::string> vals =
            splitList(pair.substr(eq + 1));
        if (vals.empty())
            return "grid: empty value list for '" + key + "'";
        std::string err;
        if (key == "policies") {
            // Replaces earlier policies= entries but keeps predictors=
            // ones (and vice versa), so the two sub-axes compose in
            // either key order.
            std::vector<GridPolicy> kept;
            for (GridPolicy &gp : grid->policies) {
                if (gp.policy == SpecPolicy::Pred)
                    kept.push_back(std::move(gp));
            }
            grid->policies = std::move(kept);
            for (const auto &v : vals) {
                GridPolicy gp;
                err = tryParseGridPolicy(v, &gp);
                if (!err.empty())
                    return "grid: " + err;
                grid->policies.push_back(std::move(gp));
            }
        } else if (key == "predictors") {
            std::vector<GridPolicy> kept;
            for (GridPolicy &gp : grid->policies) {
                if (gp.policy != SpecPolicy::Pred)
                    kept.push_back(std::move(gp));
            }
            grid->policies = std::move(kept);
            for (const auto &v : vals) {
                GridPolicy gp;
                gp.policy = SpecPolicy::Pred;
                err = tryParsePredictorSpec(v, &gp.predictor);
                if (!err.empty())
                    return "grid: " + err;
                gp.label = predictorName(gp.predictor);
                grid->policies.push_back(std::move(gp));
            }
        } else if (key == "tus") {
            grid->tuCounts.clear();
            for (const auto &v : vals) {
                uint64_t n = 0;
                err = tryParseGridU64(v, "grid tus", &n);
                if (!err.empty())
                    return err;
                if (n < 1)
                    return "grid: TU count must be >= 1";
                grid->tuCounts.push_back(static_cast<unsigned>(n));
            }
        } else if (key == "cls") {
            grid->clsSizes.clear();
            for (const auto &v : vals) {
                uint64_t n = 0;
                err = tryParseGridU64(v, "grid cls", &n);
                if (!err.empty())
                    return err;
                if (n < 1 || n > clsMaxCapacity)
                    return strprintf(
                        "grid: CLS size %llu outside [1, %zu]",
                        static_cast<unsigned long long>(n),
                        clsMaxCapacity);
                grid->clsSizes.push_back(static_cast<size_t>(n));
            }
        } else if (key == "let") {
            grid->letEntries.clear();
            for (const auto &v : vals) {
                uint64_t n = 0;
                err = tryParseGridU64(v, "grid let", &n);
                if (!err.empty())
                    return err;
                grid->letEntries.push_back(static_cast<size_t>(n));
            }
        } else if (key == "spawnconf") {
            // Grid-wide spawn throttle: a single "bits/threshold"
            // value (not a list), or "off"/"0" to disable.
            if (vals.size() != 1)
                return "grid: spawnconf wants one bits/threshold value "
                       "(e.g. spawnconf=2/2) or 'off'";
            if (vals[0] == "off" || vals[0] == "0") {
                grid->spawnConfidenceBits = 0;
            } else {
                size_t slash = vals[0].find('/');
                if (slash == std::string::npos)
                    return "grid: spawnconf wants bits/threshold "
                           "(e.g. spawnconf=2/2) or 'off'";
                uint64_t bits = 0;
                uint64_t thr = 0;
                err = tryParseGridU64(vals[0].substr(0, slash),
                                      "grid spawnconf bits", &bits);
                if (!err.empty())
                    return err;
                err = tryParseGridU64(vals[0].substr(slash + 1),
                                      "grid spawnconf threshold", &thr);
                if (!err.empty())
                    return err;
                if (bits < 1 || bits > 8)
                    return "grid: spawnconf bits outside [1, 8]";
                if (thr < 1 || thr >= (uint64_t(1) << bits))
                    return strprintf(
                        "grid: spawnconf threshold %llu outside "
                        "[1, %llu]",
                        static_cast<unsigned long long>(thr),
                        static_cast<unsigned long long>(
                            (uint64_t(1) << bits) - 1));
                grid->spawnConfidenceBits =
                    static_cast<unsigned>(bits);
                grid->spawnConfidenceThreshold =
                    static_cast<unsigned>(thr);
            }
        } else if (key == "ideal") {
            if (vals.size() != 1)
                return "grid: ideal wants one 0/1 switch (e.g. ideal=1)";
            uint64_t n = 0;
            err = tryParseGridU64(vals[0], "grid ideal", &n);
            if (!err.empty())
                return err;
            grid->ideal = n != 0;
        } else if (key == "dataspec") {
            // A single 0/1 is the legacy per-row §4 report switch; mode
            // tokens become a data-mode axis crossed into the policies.
            if (vals.size() == 1 && (vals[0] == "0" || vals[0] == "1")) {
                grid->dataSpec = vals[0] == "1";
            } else {
                data_modes.clear();
                for (const auto &v : vals) {
                    const DataModeNames *found = nullptr;
                    for (const DataModeNames &n : kDataModeNames) {
                        if (v == n.token)
                            found = &n;
                    }
                    if (!found)
                        return "grid: bad dataspec mode '" + v +
                               "' (want none|live|mem|all, or a "
                               "single 0/1)";
                    data_modes.push_back(found->mode);
                }
                have_data_modes = true;
            }
        } else if (key == "datacost") {
            if (vals.size() != 1)
                return "grid: datacost wants one cycle count "
                       "(e.g. datacost=8)";
            uint64_t n = 0;
            err = tryParseGridU64(vals[0], "grid datacost", &n);
            if (!err.empty())
                return err;
            if (n > 1000000)
                return "grid: datacost outside [0, 1000000]";
            grid->dataSquashCycles = static_cast<unsigned>(n);
        } else {
            return "grid: unknown axis '" + key +
                   "' (want policies|predictors|tus|cls|let|spawnconf|"
                   "ideal|dataspec|datacost)";
        }
    }
    if (have_data_modes) {
        // Cross the data-mode axis into the policy axis: each policy
        // entry fans out over the modes (policy-major, so a policy's
        // modes sit side by side in reports), replacing any data mode
        // a "+live"/"+mem"/"+all" suffix already set.
        std::vector<GridPolicy> crossed;
        crossed.reserve(grid->policies.size() * data_modes.size());
        for (const GridPolicy &gp : grid->policies) {
            for (DataMode mode : data_modes) {
                GridPolicy copy = gp;
                copy.dataMode = mode;
                if (!copy.label.empty())
                    copy.label += dataModeNames(mode).suffix;
                crossed.push_back(std::move(copy));
            }
        }
        grid->policies = std::move(crossed);
    }
    return "";
}

std::string
validateSweepGrid(const SweepGrid &grid)
{
    if (grid.clsSizes.empty())
        return "sweep grid needs at least one CLS size";
    for (size_t cls : grid.clsSizes) {
        if (cls < 1 || cls > clsMaxCapacity)
            return strprintf("CLS size %zu outside [1, %zu]", cls,
                             clsMaxCapacity);
    }
    for (unsigned tu : grid.tuCounts) {
        if (tu < 1)
            return "TU count must be >= 1";
    }
    // Live-in flags and the §4 report read register values, which only
    // the functional pass sees — single CLS only. Conflict profiles are
    // a pure function of (recording, memory sidecar) and re-derive at
    // every CLS, so Conflicts-only grids stay multi-CLS legal.
    const bool live = grid.needsDataCorrectness() || grid.dataSpec;
    if (live && grid.clsSizes.size() > 1)
        return "data-speculation artifacts read operand values and "
               "cannot be derived by control-trace replay; use a "
               "single-CLS grid";
    if (!grid.traceDir.empty() && (live || grid.needsConflictProfile()))
        return "data-speculation artifacts read operand values, which a "
               "control-trace replay (--trace-dir) cannot provide";
    return "";
}

namespace
{

/**
 * Materialize one workload's rows and recordings through @p cache.
 * Cached artifacts are reused; what is missing comes from one
 * functional pass (a streaming replay under --trace-dir) at CLS[0],
 * plus — only when a further CLS size or the ideal prefix needs it — a
 * control trace that every further size replays in one interleaved
 * walk. @p recs is null when the grid has no cells.
 */
std::string
materializeOneWorkload(const SweepGrid &grid, const std::string &name,
                       RecordingCache &cache, SweepRow *rows,
                       std::shared_ptr<const CachedRecording> *recs)
{
    const size_t num_c = grid.clsSizes.size();
    const bool cells = recs != nullptr;
    const bool data = grid.needsDataCorrectness();
    const bool conflicts = cells && grid.needsConflictProfile();
    const bool from_traces = !grid.traceDir.empty();
    const double scale = grid.scale.factor;
    const std::string src = from_traces ? grid.traceDir : "run";
    // Annotated recordings are keyed apart from plain ones.
    const std::string ann =
        std::string(data ? "l" : "") + (conflicts ? "m" : "");
    const auto rec_key = [&](size_t c) {
        return RecordingCache::recordingKey(name, scale, grid.maxInstrs,
                                            src, grid.clsSizes[c], ann);
    };

    std::vector<bool> missing(num_c, false);
    bool any_missing = false;
    for (size_t c = 0; cells && c < num_c; ++c) {
        recs[c] = cache.getRecording(rec_key(c));
        missing[c] = !recs[c];
        any_missing = any_missing || missing[c];
    }
    std::shared_ptr<const CachedDataReport> dsrep;
    if (grid.dataSpec)
        dsrep = cache.getDataReport(RecordingCache::dataReportKey(
            name, scale, grid.maxInstrs, src));
    std::shared_ptr<const CachedMemTrace> mt;
    if (conflicts && any_missing)
        mt = cache.getMemTrace(RecordingCache::memTraceKey(
            name, scale, grid.maxInstrs, src));

    const auto fill_rows = [&](uint64_t total_instrs) {
        for (size_t c = 0; c < num_c; ++c) {
            rows[c].workload = name;
            rows[c].clsEntries = grid.clsSizes[c];
            rows[c].totalInstrs = total_instrs;
            if (dsrep)
                rows[c].dataSpec = dsrep->report;
        }
    };
    // A fully warm request executes nothing.
    if (cells && !any_missing && !grid.ideal && (!grid.dataSpec || dsrep)) {
        fill_rows(recs[0]->recording.totalInstrs);
        return "";
    }

    bool derive = false;
    for (size_t c = 1; c < num_c; ++c)
        derive = derive || missing[c] || grid.ideal;

    RunOptions opts;
    opts.scale = grid.scale;
    opts.maxInstrs = grid.maxInstrs;
    opts.checkReplay = grid.checkReplay;
    opts.clsEntries = grid.clsSizes[0];
    opts.traceDir = grid.traceDir;

    CollectFlags flags;
    flags.recording = missing[0];
    flags.dataCorrectness = data && missing[0];
    flags.ideal = grid.ideal;
    flags.dataSpec = grid.dataSpec && !dsrep;
    flags.memTrace = conflicts && any_missing && !mt;
    flags.controlTrace = derive && !from_traces;
    std::string pass_err;
    WorkloadArtifacts art = runWorkload(name, opts, flags, &pass_err);
    if (!pass_err.empty())
        return pass_err;

    if (flags.memTrace) {
        auto built = std::make_shared<CachedMemTrace>();
        built->trace = std::move(art.memTrace);
        mt = cache.putMemTrace(RecordingCache::memTraceKey(
                                   name, scale, grid.maxInstrs, src),
                               std::move(built));
    }
    if (flags.dataSpec) {
        auto built = std::make_shared<CachedDataReport>();
        built->report = art.dataSpec;
        dsrep = cache.putDataReport(RecordingCache::dataReportKey(
                                        name, scale, grid.maxInstrs, src),
                                    std::move(built));
    }
    // Conflicts/Full: every CLS's recording is annotated from the
    // shared, CLS-independent memory sidecar of the one pass; then the
    // recording is indexed and frozen.
    const auto freeze = [&](size_t c, LoopEventRecording r) {
        if (conflicts)
            annotateConflicts(&r, profileConflicts(r, mt->trace));
        recs[c] = cache.putRecording(
            rec_key(c), std::make_shared<CachedRecording>(std::move(r)));
    };
    if (missing[0])
        freeze(0, std::move(art.recording));

    fill_rows(art.totalInstrs);
    rows[0].idealTpc = art.idealTpc;
    rows[0].idealTpcPrefix = art.idealTpcPrefix;
    if (!derive)
        return "";

    // Under --trace-dir the container is the control trace the walks
    // below read. The pass already reported a missing or malformed
    // file through pass_err; any open or mid-stream failure here also
    // comes back as an error string, never a fatal().
    std::unique_ptr<TraceFileStreamer> streamer;
    if (from_traces) {
        std::string err;
        streamer = TraceFileStreamer::open(
            traceFilePath(grid.traceDir, name, kControlTraceExt),
            StreamConfig{}, &err);
        if (!streamer)
            return err;
    }

    // Every further CLS size replays the same recorded control stream.
    // The sources advance round-robin in fixed-size chunks
    // (interleaveReplay), so each chunk of trace bytes is pulled through
    // the cache once and consumed by every derived detector while still
    // resident; per-source artifacts are bit-identical to sequential
    // replay. The second walk is Figure 8's half-trace prefix.
    struct DerivedState
    {
        size_t c;
        LoopDetector det;
        LoopEventRecorder rec;
        IdealTpcComputer ideal;
        DerivedState(size_t cls_idx, size_t cls_entries)
            : c(cls_idx), det({cls_entries})
        {
        }
    };
    for (bool prefix : {false, true}) {
        if (prefix && !grid.ideal)
            break;
        const uint64_t window =
            prefix ? art.totalInstrs / 2 : grid.maxInstrs;
        std::vector<std::unique_ptr<DerivedState>> states;
        std::vector<std::unique_ptr<ReplaySource>> sources;
        std::vector<ReplaySource *> source_ptrs;
        for (size_t c = 1; c < num_c; ++c) {
            const bool record = !prefix && missing[c];
            if (!record && !grid.ideal)
                continue;
            auto st = std::make_unique<DerivedState>(c, grid.clsSizes[c]);
            if (record)
                st->det.addListener(&st->rec);
            if (grid.ideal)
                st->det.addListener(&st->ideal);
            if (from_traces)
                sources.push_back(std::make_unique<StreamedControlSource>(
                    *streamer, st->det, window));
            else
                sources.push_back(std::make_unique<ControlTraceSource>(
                    art.controlTrace, st->det, window));
            source_ptrs.push_back(sources.back().get());
            states.push_back(std::move(st));
        }
        std::string err = interleaveReplay(source_ptrs);
        if (!err.empty())
            return err;

        for (const auto &st : states) {
            SweepRow &row = rows[st->c];
            if (grid.ideal)
                (prefix ? row.idealTpcPrefix : row.idealTpc) =
                    st->ideal.tpc();
            if (prefix || !missing[st->c])
                continue;
            LoopEventRecording r = st->rec.take();
            if (grid.checkReplay) {
                // A control-trace-derived recording must be
                // indistinguishable from one recorded on a direct pass.
                RunOptions direct = opts;
                direct.clsEntries = grid.clsSizes[st->c];
                direct.checkReplay = false;
                CollectFlags rec_only;
                rec_only.recording = true;
                err = compareRecordings(
                    runWorkload(name, direct, rec_only).recording, r);
                if (!err.empty())
                    return strprintf(
                        "%s: recording derived at CLS %zu diverges from "
                        "a direct functional pass: %s",
                        name.c_str(), grid.clsSizes[st->c], err.c_str());
            }
            freeze(st->c, std::move(r));
        }
    }
    return "";
}

} // namespace

std::string
materializeSweep(const SweepGrid &grid, RecordingCache &cache,
                 ThreadPool *pool, unsigned jobs, SweepResult *out,
                 std::vector<std::shared_ptr<const CachedRecording>>
                     *recordings)
{
    const size_t num_w = grid.workloads.size();
    const size_t num_c = grid.clsSizes.size();
    const bool cells = grid.hasCells();
    out->grid = grid;
    out->rows.assign(num_w * num_c, SweepRow{});
    recordings->assign(cells ? num_w * num_c : 0, nullptr);

    // One item per workload; its pass and control trace are freed
    // before the worker moves on. Items report through their own slots.
    std::vector<std::string> errors(num_w);
    const auto item = [&](uint64_t w) {
        errors[w] = materializeOneWorkload(
            grid, grid.workloads[w], cache, &out->rows[w * num_c],
            cells ? &(*recordings)[w * num_c] : nullptr);
    };
    if (pool)
        pool->parallelFor(num_w, item);
    else
        parallelFor(jobs, num_w, item);
    for (const std::string &e : errors) {
        if (!e.empty())
            return e;
    }

    // Dedup counters describe the grid's work shape — what a cold run
    // performs — so warm and cold results stay byte-identical.
    out->functionalPasses = num_w;
    out->recordingsProduced = cells ? num_w * num_c : 0;
    return "";
}

SweepResult
runSpecSweep(const SweepGrid &grid, unsigned jobs)
{
    using clk = std::chrono::steady_clock;
    const auto t0 = clk::now();

    std::string err = validateSweepGrid(grid);
    if (!err.empty())
        fatal("%s", err.c_str());

    // A zero-budget cache caches nothing: every artifact is handed to
    // this sweep and dropped from the cache at once.
    RecordingCache none(0);
    SweepResult out;
    std::vector<std::shared_ptr<const CachedRecording>> recordings;
    err = materializeSweep(grid, none, nullptr, jobs, &out, &recordings);
    if (!err.empty())
        fatal("%s", err.c_str());
    if (grid.hasCells())
        runSweepCells(grid, recordings, &out.cells, nullptr, jobs);
    out.cellsRun = out.cells.size();
    out.sweepSeconds =
        std::chrono::duration<double>(clk::now() - t0).count();
    return out;
}

void
runSweepCells(const SweepGrid &grid,
              const std::vector<const LoopEventRecording *> &recordings,
              const std::vector<const RecordingIndex *> &indexes,
              std::vector<SweepCell> *cells, ThreadPool *pool,
              unsigned jobs)
{
    const size_t num_c = grid.clsSizes.size();
    const size_t num_p = grid.policies.size();
    const size_t num_t = grid.tuCounts.size();
    const size_t num_l = grid.letEntries.size();
    LOOPSPEC_ASSERT(recordings.size() ==
                            grid.workloads.size() * num_c &&
                        indexes.size() == recordings.size(),
                    "one recording+index per (workload, CLS) point");

    // Decoding the flat index keeps cell order — and so aggregation
    // order — independent of scheduling.
    cells->resize(grid.numCells());
    const auto run_cell = [&](uint64_t i) {
        size_t rem = i;
        const size_t l = rem % num_l;
        rem /= num_l;
        const size_t t = rem % num_t;
        rem /= num_t;
        const size_t p = rem % num_p;
        rem /= num_p;
        const size_t c = rem % num_c;
        const size_t w = rem / num_c;

        SweepCell &cell = (*cells)[i];
        cell.workloadIdx = static_cast<uint32_t>(w);
        cell.clsIdx = static_cast<uint32_t>(c);
        cell.policyIdx = static_cast<uint32_t>(p);
        cell.tuIdx = static_cast<uint32_t>(t);
        cell.letIdx = static_cast<uint32_t>(l);

        const GridPolicy &gp = grid.policies[p];
        SpecConfig cfg;
        cfg.numTUs = grid.tuCounts[t];
        cfg.policy = gp.policy;
        cfg.nestLimit = gp.nestLimit;
        cfg.dataMode = gp.dataMode;
        cfg.letEntries = grid.letEntries[l];
        cfg.predictor = gp.predictor;
        cfg.spawnConfidenceBits = grid.spawnConfidenceBits;
        cfg.spawnConfidenceThreshold = grid.spawnConfidenceThreshold;
        cfg.dataSquashCycles = grid.dataSquashCycles;

        const size_t rec_idx = w * num_c + c;
        ThreadSpecSimulator sim(*recordings[rec_idx], *indexes[rec_idx],
                                cfg);
        cell.stats = sim.run();
    };
    if (pool)
        pool->parallelFor(cells->size(), run_cell);
    else
        parallelFor(jobs, cells->size(), run_cell);
}

void
runSweepCells(
    const SweepGrid &grid,
    const std::vector<std::shared_ptr<const CachedRecording>> &recordings,
    std::vector<SweepCell> *cells, ThreadPool *pool, unsigned jobs)
{
    std::vector<const LoopEventRecording *> rec_ptrs(recordings.size());
    std::vector<const RecordingIndex *> idx_ptrs(recordings.size());
    for (size_t i = 0; i < recordings.size(); ++i) {
        rec_ptrs[i] = &recordings[i]->recording;
        idx_ptrs[i] = &recordings[i]->index;
    }
    runSweepCells(grid, rec_ptrs, idx_ptrs, cells, pool, jobs);
}

namespace
{

void
writeStringList(std::ostream &os, const std::vector<std::string> &items)
{
    os << "[";
    for (size_t i = 0; i < items.size(); ++i)
        os << (i ? ", " : "") << "\"" << items[i] << "\"";
    os << "]";
}

template <typename T>
void
writeNumberList(std::ostream &os, const std::vector<T> &items)
{
    os << "[";
    for (size_t i = 0; i < items.size(); ++i)
        os << (i ? ", " : "") << static_cast<uint64_t>(items[i]);
    os << "]";
}

} // namespace

void
writeSweepJson(std::ostream &os, const SweepResult &result, unsigned jobs,
               double serial_seconds)
{
    const SweepGrid &grid = result.grid;
    const auto old_precision = os.precision(12);

    os << "{\n  \"grid\": {\n    \"workloads\": ";
    writeStringList(os, grid.workloads);
    os << ",\n    \"cls\": ";
    writeNumberList(os, grid.clsSizes);
    std::vector<std::string> policy_names;
    for (const GridPolicy &p : grid.policies)
        policy_names.push_back(p.name());
    os << ",\n    \"policies\": ";
    writeStringList(os, policy_names);
    os << ",\n    \"tus\": ";
    writeNumberList(os, grid.tuCounts);
    os << ",\n    \"let\": ";
    writeNumberList(os, grid.letEntries);
    os << ",\n    \"spawn_conf_bits\": " << grid.spawnConfidenceBits
       << ",\n    \"spawn_conf_threshold\": "
       << grid.spawnConfidenceThreshold;
    // Emitted only when set: grids without data speculation must stay
    // byte-identical to the pre-dataspec artifact format.
    if (grid.dataSquashCycles != 0)
        os << ",\n    \"data_squash_cycles\": " << grid.dataSquashCycles;
    os << ",\n    \"ideal\": " << (grid.ideal ? "true" : "false")
       << ",\n    \"dataspec\": " << (grid.dataSpec ? "true" : "false")
       << ",\n    \"scale\": " << grid.scale.factor
       << ",\n    \"max_instrs\": " << grid.maxInstrs << "\n  },\n";

    os << "  \"jobs\": " << jobs
       << ",\n  \"functional_passes\": " << result.functionalPasses
       << ",\n  \"recordings_produced\": " << result.recordingsProduced
       << ",\n  \"cells_run\": " << result.cellsRun << ",\n";

    os << "  \"rows\": [\n";
    for (size_t i = 0; i < result.rows.size(); ++i) {
        const SweepRow &row = result.rows[i];
        os << "    {\"workload\": \"" << row.workload
           << "\", \"cls\": " << row.clsEntries
           << ", \"total_instrs\": " << row.totalInstrs;
        if (grid.ideal) {
            os << ", \"ideal_tpc\": " << row.idealTpc
               << ", \"ideal_tpc_prefix\": " << row.idealTpcPrefix;
        }
        if (grid.dataSpec) {
            os << ", \"same_path_pct\": " << row.dataSpec.samePathPct()
               << ", \"all_data_pct\": " << row.dataSpec.allDataPct();
        }
        os << "}" << (i + 1 < result.rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    os << "  \"cells\": [\n";
    for (size_t i = 0; i < result.cells.size(); ++i) {
        const SweepCell &cell = result.cells[i];
        const SpecStats &s = cell.stats;
        os << "    {\"workload\": \""
           << grid.workloads[cell.workloadIdx]
           << "\", \"cls\": " << grid.clsSizes[cell.clsIdx]
           << ", \"policy\": \"" << grid.policies[cell.policyIdx].name()
           << "\", \"data_mode\": \""
           << dataModeNames(grid.policies[cell.policyIdx].dataMode).json
           << "\", \"tus\": " << grid.tuCounts[cell.tuIdx]
           << ", \"let\": " << grid.letEntries[cell.letIdx]
           << ", \"tpc\": " << s.tpc()
           << ", \"hit_pct\": " << 100.0 * s.hitRatio()
           << ", \"spec_events\": " << s.specEvents
           << ", \"threads_per_spec\": " << s.threadsPerSpec()
           << ", \"instr_to_verif\": " << s.avgInstrToVerif()
           << ", \"threads_verified\": " << s.threadsVerified
           << ", \"threads_squashed\": " << s.threadsSquashed
           << ", \"nest_rule_squashes\": " << s.squashedByNestRule
           << ", \"spawns_throttled\": " << s.spawnsThrottled
           << ", \"data_misses\": " << s.dataMisses;
        // Conditional for the same byte-identity reason as above.
        if (grid.needsConflictProfile())
            os << ", \"conflict_squashes\": " << s.conflictSquashes;
        os << ", \"cycles\": " << s.cycles
           << ", \"total_instrs\": " << s.totalInstrs << "}"
           << (i + 1 < result.cells.size() ? "," : "") << "\n";
    }
    os << "  ],\n";

    os << "  \"wall\": {\"swept_seconds\": " << result.sweepSeconds;
    if (serial_seconds > 0.0) {
        os << ", \"serial_seconds\": " << serial_seconds
           << ", \"speedup_vs_serial\": "
           << (result.sweepSeconds > 0.0
                   ? serial_seconds / result.sweepSeconds
                   : 0.0);
    }
    os << "}\n}\n";
    os.precision(old_precision);
}

} // namespace loopspec
