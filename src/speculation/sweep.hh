/**
 * @file
 * Unified speculation sweep engine behind the paper's payoff experiments
 * (Figures 5-8, Table 2) and arbitrary beyond-paper grids.
 *
 * A sweep is declared as a grid — workloads × CLS sizes × policies ×
 * TU counts × LET capacities, plus per-workload artifact switches (ideal
 * ∞-TU TPC, §4 data-speculation profile) — and executed by one pipeline
 * shared by the command line and the sweep service (docs/DESIGN.md §9):
 *
 *  materialize (materializeSweep) — per workload, look every artifact up
 *      in a RecordingCache; whatever is missing comes from ONE functional
 *      pass (or a --trace-dir streaming replay), which yields CLS[0]'s
 *      recording and ideal TPC directly. A control trace is recorded
 *      only when a further CLS size or the ideal prefix needs it, and
 *      every further size is derived from it in one interleaved replay
 *      walk. Recordings are conflict-annotated and indexed once;
 *  run cells (runSweepCells) — the cross-product of ThreadSpecSimulator
 *      runs fans out over the thread pool, each cell writing only its
 *      own pre-allocated slot.
 *
 * runSpecSweep drives this pipeline with a zero-budget cache, which
 * caches nothing; sweepd (service/sweep_service.hh) drives the same
 * code with a persistent one, so served results equal direct ones by
 * construction.
 *
 * Results are bit-identical for any --jobs value, including fully
 * serial, because every cell is a pure function of its recording and
 * configuration. The per-figure bench binaries (bench_fig5..8,
 * bench_table2, bench_dataspec_tpc) are thin declarative grids over
 * this engine; tools/sweep_loopspec exposes it on the command line.
 */

#ifndef LOOPSPEC_SPECULATION_SWEEP_HH
#define LOOPSPEC_SPECULATION_SWEEP_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "dataspec/data_profiler.hh"
#include "speculation/policy.hh"
#include "workloads/workload.hh"

namespace loopspec
{

/** One entry of a grid's policy axis. */
struct GridPolicy
{
    GridPolicy() = default;
    GridPolicy(SpecPolicy p, unsigned nest, DataMode dm,
               std::string lbl)
        : policy(p), nestLimit(nest), dataMode(dm),
          label(std::move(lbl))
    {
    }

    SpecPolicy policy = SpecPolicy::Str;
    /** The i in STR(i); ignored by IDLE/STR. */
    unsigned nestLimit = 3;
    /** Data-dependence treatment (docs/DATASPEC.md). LiveIns/Full need
     *  the §4 profiler's live-in flags from the functional pass
     *  (single-CLS grids only); Conflicts/Full need the conflict-
     *  profile annotation, which is replay-derivable at any CLS. */
    DataMode dataMode = DataMode::None;
    /** Display label (mode suffix appended by name()); empty =
     *  specPolicyName(policy, nestLimit), or predictorName(predictor)
     *  for PRED entries. */
    std::string label;
    /** Scheme behind a SpecPolicy::Pred entry (the `predictors=` axis,
     *  docs/PREDICTORS.md); ignored by the paper policies. */
    PredictorConfig predictor;

    std::string name() const;
};

/** A `predictors=` axis entry: the conventional-baseline policy running
 *  @p spec (e.g. "gshare:12"), labelled with its canonical name. */
GridPolicy predictorGridPolicy(const std::string &spec);

/**
 * Declarative sweep grid. Cells are produced when both the policy and
 * the TU axes are non-empty; per-workload rows are always produced and
 * carry the ideal/dataSpec artifacts when requested.
 */
struct SweepGrid
{
    /** Workload axis (registry names); empty = empty sweep. */
    std::vector<std::string> workloads;
    /** CLS capacity axis; the first entry is traced live, the rest are
     *  derived by control-trace replay. */
    std::vector<size_t> clsSizes = {16};
    std::vector<GridPolicy> policies;
    std::vector<unsigned> tuCounts;
    /** Predictor axis: LET capacities backing the STR trip predictor
     *  (0 = unbounded, the §3 evaluation's assumption). */
    std::vector<size_t> letEntries = {0};
    /** Grid-wide spawn throttle (SpecConfig::spawnConfidenceBits):
     *  0 = off, the paper behaviour. */
    unsigned spawnConfidenceBits = 0;
    unsigned spawnConfidenceThreshold = 2;
    /** Grid-wide data-violation recovery penalty
     *  (SpecConfig::dataSquashCycles, the `datacost=` axis). */
    unsigned dataSquashCycles = 0;

    /** Collect the ideal ∞-TU TPC and its half-prefix rerun per row. */
    bool ideal = false;
    /** Collect the §4 data-speculation report per row (single-CLS). */
    bool dataSpec = false;

    WorkloadScale scale;
    uint64_t maxInstrs = 0; //!< trace truncation (0 = run to Halt)
    /** Cross-check replay-derived recordings against direct passes
     *  (forwarded to runWorkload; fatal() on divergence). */
    bool checkReplay = false;
    /**
     * Non-empty = replay recorded control-trace containers from this
     * directory instead of executing the workloads (RunOptions::traceDir):
     * each workload name resolves to <traceDir>/<name>.lstrace, the
     * functional pass becomes an out-of-core streaming replay, and the
     * derived-CLS / prefix reruns re-stream the same file instead of
     * buffering a materialized ControlTrace. Grids needing operand values
     * (dataSpec, any data mode) are illegal in this mode
     * (validateSweepGrid).
     */
    std::string traceDir;

    /** Cells per workload-CLS point (policies × TUs × LET sizes). */
    size_t configsPerRecording() const;
    /** Total simulator cells the grid requires. */
    size_t numCells() const;
    /** True when the grid produces simulator cells at all. */
    bool hasCells() const;
    /** True when any policy needs the §4 profiler's per-iteration
     *  live-in flags from the functional pass (checksLiveIns). */
    bool needsDataCorrectness() const;
    /** True when any policy needs the memory-dependence conflict
     *  annotation (checksConflicts) — and therefore the functional
     *  pass's MemAccessTrace sidecar. */
    bool needsConflictProfile() const;
};

/** Per-(workload × CLS) artifacts of a sweep. */
struct SweepRow
{
    std::string workload;
    size_t clsEntries = 0;
    uint64_t totalInstrs = 0;
    double idealTpc = 0.0;       //!< when SweepGrid::ideal
    double idealTpcPrefix = 0.0; //!< first half of the trace
    DataSpecReport dataSpec;     //!< when SweepGrid::dataSpec
};

/** One simulator cell: full grid coordinates plus the statistics. */
struct SweepCell
{
    uint32_t workloadIdx = 0;
    uint32_t clsIdx = 0;
    uint32_t policyIdx = 0;
    uint32_t tuIdx = 0;
    uint32_t letIdx = 0;
    SpecStats stats;
};

/**
 * Everything a sweep produces. Rows are workload-major then CLS; cells
 * are nested workload → CLS → policy → TU → LET, so iteration order —
 * and therefore floating-point aggregation order — matches the serial
 * per-figure loops the engine replaced.
 */
struct SweepResult
{
    SweepGrid grid; //!< the grid that produced this result
    std::vector<SweepRow> rows;
    std::vector<SweepCell> cells;

    // Dedup accounting: cellsRun >> recordingsProduced whenever the
    // configuration axes are non-trivial.
    uint64_t functionalPasses = 0;   //!< one per workload
    uint64_t recordingsProduced = 0; //!< one per (workload, CLS)
    uint64_t cellsRun = 0;

    double sweepSeconds = 0.0; //!< wall-clock of the whole sweep

    size_t rowIndex(size_t w, size_t c = 0) const;
    size_t cellIndex(size_t w, size_t c, size_t p, size_t t,
                     size_t l) const;
    const SweepRow &row(size_t w, size_t c = 0) const;
    const SpecStats &cell(size_t w, size_t c, size_t p, size_t t,
                          size_t l = 0) const;

    /**
     * Shared aggregation for the per-figure suite averages (the loops
     * previously copy-pasted across bench_fig5-8/bench_table2): mean of
     * @p fn over the workload axis at fixed other coordinates, in
     * workload order (so the floating-point sum is reproducible).
     */
    double meanCellOverWorkloads(size_t c, size_t p, size_t t, size_t l,
                                 double (*fn)(const SpecStats &)) const;
    double meanRowOverWorkloads(size_t c,
                                double (*fn)(const SweepRow &)) const;
    /** Geometric mean of positive fn(row) values (Figure 5's log-scale
     *  average); rows with fn(row) <= 0 are excluded. */
    double geomeanRowOverWorkloads(size_t c,
                                   double (*fn)(const SweepRow &)) const;

    /** Suite-average TPC at (policy p, TU t) — Figures 6/7. */
    double meanTpc(size_t p, size_t t, size_t c = 0, size_t l = 0) const;
    /** Suite-average hit percentage at (policy p, TU t) — Table 2. */
    double meanHitPct(size_t p, size_t t, size_t c = 0,
                      size_t l = 0) const;
};

/**
 * Set the paper's payoff configuration axes on @p grid: the five §3.1.2
 * policies (IDLE, STR, STR(1..3)) × {2,4,8,16} TUs with an unbounded
 * LET — the union of the Figure 6/7 and Table 2 grids. The single
 * definition behind bench_fig7 and sweep_loopspec's "paper" preset.
 */
void applyPaperAxes(SweepGrid *grid);

/**
 * Apply a `--grid` axis spec to @p grid: semicolon-separated key=value
 * pairs with comma-separated lists (policies | predictors | tus | cls |
 * let | spawnconf | ideal | dataspec | datacost), or the single preset
 * "paper" = applyPaperAxes(). `spawnconf=<bits>/<threshold>` (or
 * `spawnconf=off`) sets the grid-wide spawn throttle. `dataspec=` takes
 * either a single 0/1 (the legacy per-row §4 report switch) or a list
 * of data modes (none|live|mem|all) that crosses into the policy axis
 * once the whole spec is parsed — key order does not matter;
 * `datacost=<cycles>` sets the violation recovery penalty. Returns ""
 * on success, else a diagnostic — never fatal(), so the sweep service
 * can reject bad remote grids without dying (tools wrap it with
 * fatal() themselves).
 */
std::string applyGridSpec(const std::string &spec, SweepGrid *grid);

/**
 * Execute @p grid. @p jobs sizes the thread pool (0 = one per hardware
 * thread, 1 = fully inline serial). The result — rows, cells, and every
 * statistic in them — is identical for every jobs value.
 */
SweepResult runSpecSweep(const SweepGrid &grid, unsigned jobs = 0);

/**
 * The grid-legality rules every executor shares: at least one CLS size,
 * CLS sizes in [1, clsMaxCapacity], TU counts >= 1, live-in data modes
 * and the §4 report only on single-CLS grids (they read register values
 * that only the functional pass sees), and no data mode or report on a
 * --trace-dir grid. Returns "" when @p grid is legal, else the
 * diagnostic (runSpecSweep fatal()s on it; the service answers it).
 */
std::string validateSweepGrid(const SweepGrid &grid);

class RecordingCache;
class RecordingIndex;
class ThreadPool;
struct CachedRecording;
struct LoopEventRecording;

/**
 * Materialize every row and recording of a validated @p grid through
 * @p cache (docs/DESIGN.md §9): cached artifacts are reused, missing
 * ones are produced by one functional pass per workload plus one
 * interleaved replay walk, then inserted. Workloads fan out over
 * @p pool (nullptr = a transient pool of @p jobs threads). Fills
 * out->grid, out->rows and the dedup counters, and @p recordings with
 * one handle per (workload-major, CLS-minor) point when the grid has
 * cells. Returns "" on success, else the first workload's error.
 */
std::string
materializeSweep(const SweepGrid &grid, RecordingCache &cache,
                 ThreadPool *pool, unsigned jobs, SweepResult *out,
                 std::vector<std::shared_ptr<const CachedRecording>>
                     *recordings);

/**
 * The run-cells stage on pre-materialized recordings: fan the
 * configuration cross-product of @p grid out over @p pool (nullptr = a
 * transient pool of @p jobs threads, runSpecSweep's behaviour), one
 * pre-allocated slot per cell. @p recordings / @p indexes hold one
 * entry per (workload-major, CLS-minor) point.
 */
void runSweepCells(const SweepGrid &grid,
                   const std::vector<const LoopEventRecording *> &recordings,
                   const std::vector<const RecordingIndex *> &indexes,
                   std::vector<SweepCell> *cells, ThreadPool *pool,
                   unsigned jobs);

/** runSweepCells over materializeSweep's recording handles. */
void runSweepCells(
    const SweepGrid &grid,
    const std::vector<std::shared_ptr<const CachedRecording>> &recordings,
    std::vector<SweepCell> *cells, ThreadPool *pool, unsigned jobs);

/**
 * Consolidated machine-readable artifact (BENCH_specsim.json): the grid,
 * dedup accounting, every row and cell, and — when @p serial_seconds is
 * non-zero — the wall-clock speedup of the swept run over a serial one.
 */
void writeSweepJson(std::ostream &os, const SweepResult &result,
                    unsigned jobs, double serial_seconds = 0.0);

} // namespace loopspec

#endif // LOOPSPEC_SPECULATION_SWEEP_HH
