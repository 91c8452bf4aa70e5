/**
 * @file
 * Tests for the unified speculation sweep engine: swept results must be
 * bit-identical to the serial per-figure loops the engine replaced (for
 * every paper grid), recordings must be deduplicated and counted,
 * results must not depend on the job count, and degenerate grids must
 * behave. Runs at reduced scale on a workload subset so the suite stays
 * under the `quick` CTest label (docs/TESTING.md).
 */

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/runner.hh"
#include "speculation/spec_sim.hh"
#include "trace_io/trace_codec.hh"

namespace loopspec
{
namespace
{

RunOptions
smallOpts(std::vector<std::string> benchmarks)
{
    RunOptions opts;
    opts.scale.factor = 0.25;
    opts.benchmarks = std::move(benchmarks);
    return opts;
}

void
expectStatsEq(const SpecStats &a, const SpecStats &b)
{
    // operator== is the authoritative (exhaustive) comparison; the
    // field-wise EXPECTs below only localise a failure.
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.totalInstrs, b.totalInstrs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.specEvents, b.specEvents);
    EXPECT_EQ(a.threadsSpeculated, b.threadsSpeculated);
    EXPECT_EQ(a.threadsVerified, b.threadsVerified);
    EXPECT_EQ(a.threadsSquashed, b.threadsSquashed);
    EXPECT_EQ(a.squashedByNestRule, b.squashedByNestRule);
    EXPECT_EQ(a.dataMisses, b.dataMisses);
    EXPECT_EQ(a.instrToVerifSum, b.instrToVerifSum);
    EXPECT_EQ(a.spawnsThrottled, b.spawnsThrottled);
}

/** The serial shape every bench_fig* binary had before the engine: one
 *  runWorkload per workload, one simulator per configuration. */
SpecStats
serialCell(const WorkloadArtifacts &art, SpecConfig cfg)
{
    return ThreadSpecSimulator(art.recording, cfg).run();
}

TEST(SpecSweep, Fig6GridMatchesSerialPerFigureLoop)
{
    RunOptions opts = smallOpts({"compress", "swim"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.policies = {{SpecPolicy::Str, 3, DataMode::None, "STR"}};
    grid.tuCounts = {2, 4, 8, 16};
    SweepResult r = runSpecSweep(grid, 4);

    CollectFlags flags;
    flags.recording = true;
    for (size_t w = 0; w < grid.workloads.size(); ++w) {
        WorkloadArtifacts art =
            runWorkload(grid.workloads[w], opts, flags);
        for (size_t i = 0; i < grid.tuCounts.size(); ++i) {
            SCOPED_TRACE(grid.workloads[w] + " @ " +
                         std::to_string(grid.tuCounts[i]) + " TUs");
            SpecConfig cfg;
            cfg.numTUs = grid.tuCounts[i];
            cfg.policy = SpecPolicy::Str;
            expectStatsEq(r.cell(w, 0, 0, i), serialCell(art, cfg));
        }
    }
}

TEST(SpecSweep, Fig7GridMatchesSerialPerFigureLoop)
{
    RunOptions opts = smallOpts({"li"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.policies = {{SpecPolicy::Idle, 3, DataMode::None, "IDLE"},
                     {SpecPolicy::Str, 3, DataMode::None, "STR"},
                     {SpecPolicy::StrI, 1, DataMode::None, "STR(1)"},
                     {SpecPolicy::StrI, 2, DataMode::None, "STR(2)"},
                     {SpecPolicy::StrI, 3, DataMode::None, "STR(3)"}};
    grid.tuCounts = {2, 4};
    SweepResult r = runSpecSweep(grid, 3);

    CollectFlags flags;
    flags.recording = true;
    WorkloadArtifacts art = runWorkload("li", opts, flags);
    for (size_t p = 0; p < grid.policies.size(); ++p) {
        for (size_t i = 0; i < grid.tuCounts.size(); ++i) {
            SCOPED_TRACE(grid.policies[p].name() + " @ " +
                         std::to_string(grid.tuCounts[i]) + " TUs");
            SpecConfig cfg;
            cfg.numTUs = grid.tuCounts[i];
            cfg.policy = grid.policies[p].policy;
            cfg.nestLimit = grid.policies[p].nestLimit;
            expectStatsEq(r.cell(0, 0, p, i), serialCell(art, cfg));
        }
    }
}

TEST(SpecSweep, Table2GridMatchesSerialPerFigureLoop)
{
    RunOptions opts = smallOpts({"compress", "gcc"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.policies = {{SpecPolicy::StrI, 3, DataMode::None, "STR(3)"}};
    grid.tuCounts = {4};
    SweepResult r = runSpecSweep(grid, 2);

    CollectFlags flags;
    flags.recording = true;
    for (size_t w = 0; w < grid.workloads.size(); ++w) {
        SCOPED_TRACE(grid.workloads[w]);
        WorkloadArtifacts art =
            runWorkload(grid.workloads[w], opts, flags);
        SpecConfig cfg;
        cfg.numTUs = 4;
        cfg.policy = SpecPolicy::StrI;
        cfg.nestLimit = 3;
        expectStatsEq(r.cell(w, 0, 0, 0), serialCell(art, cfg));
    }
}

TEST(SpecSweep, DataspecGridMatchesSerialPerFigureLoop)
{
    RunOptions opts = smallOpts({"compress"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.policies = {
        {SpecPolicy::Str, 3, DataMode::None, "control"},
        {SpecPolicy::Str, 3, DataMode::LiveIns, "ctrl+live"},
        {SpecPolicy::StrI, 3, DataMode::LiveIns, "ctrl+live STR(3)"}};
    grid.tuCounts = {4};
    ASSERT_TRUE(grid.needsDataCorrectness());
    SweepResult r = runSpecSweep(grid, 2);

    CollectFlags flags;
    flags.dataCorrectness = true;
    WorkloadArtifacts art = runWorkload("compress", opts, flags);
    const SpecConfig configs[3] = {
        {4, SpecPolicy::Str, 3, DataMode::None, 0},
        {4, SpecPolicy::Str, 3, DataMode::LiveIns, 0},
        {4, SpecPolicy::StrI, 3, DataMode::LiveIns, 0}};
    for (size_t p = 0; p < 3; ++p) {
        SCOPED_TRACE(grid.policies[p].name());
        expectStatsEq(r.cell(0, 0, p, 0), serialCell(art, configs[p]));
    }
    // LiveIns mode must actually bite, or the equality above proves
    // nothing about the annotated-recording path.
    EXPECT_GT(r.cell(0, 0, 1, 0).dataMisses, 0u);
}

TEST(SpecSweep, IdealAndDataSpecRowsMatchRunWorkload)
{
    RunOptions opts = smallOpts({"swim", "li"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.ideal = true;
    grid.dataSpec = true;
    SweepResult r = runSpecSweep(grid, 2);
    ASSERT_EQ(r.rows.size(), 2u);
    EXPECT_TRUE(r.cells.empty());

    CollectFlags flags;
    flags.ideal = true;
    flags.dataSpec = true;
    for (size_t w = 0; w < grid.workloads.size(); ++w) {
        SCOPED_TRACE(grid.workloads[w]);
        WorkloadArtifacts art =
            runWorkload(grid.workloads[w], opts, flags);
        const SweepRow &row = r.row(w);
        EXPECT_EQ(row.workload, grid.workloads[w]);
        EXPECT_EQ(row.totalInstrs, art.totalInstrs);
        EXPECT_EQ(row.idealTpc, art.idealTpc);
        EXPECT_EQ(row.idealTpcPrefix, art.idealTpcPrefix);
        EXPECT_EQ(row.dataSpec.itersEvaluated,
                  art.dataSpec.itersEvaluated);
        EXPECT_EQ(row.dataSpec.modalIters, art.dataSpec.modalIters);
        EXPECT_EQ(row.dataSpec.lrCorrect, art.dataSpec.lrCorrect);
        EXPECT_EQ(row.dataSpec.lmCorrect, art.dataSpec.lmCorrect);
        EXPECT_EQ(row.dataSpec.allDataIters, art.dataSpec.allDataIters);
    }
}

TEST(SpecSweep, DeterministicAcrossJobCounts)
{
    RunOptions opts = smallOpts({"compress", "li"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.policies = {{SpecPolicy::Str, 3, DataMode::None, "STR"},
                     {SpecPolicy::StrI, 2, DataMode::None, "STR(2)"}};
    grid.tuCounts = {2, 8};
    grid.ideal = true;

    SweepResult serial = runSpecSweep(grid, 1);
    for (unsigned jobs : {2u, 4u, 8u}) {
        SCOPED_TRACE(jobs);
        SweepResult r = runSpecSweep(grid, jobs);
        ASSERT_EQ(r.cells.size(), serial.cells.size());
        for (size_t i = 0; i < r.cells.size(); ++i) {
            expectStatsEq(r.cells[i].stats, serial.cells[i].stats);
            EXPECT_EQ(r.cells[i].workloadIdx,
                      serial.cells[i].workloadIdx);
            EXPECT_EQ(r.cells[i].tuIdx, serial.cells[i].tuIdx);
        }
        ASSERT_EQ(r.rows.size(), serial.rows.size());
        for (size_t i = 0; i < r.rows.size(); ++i) {
            EXPECT_EQ(r.rows[i].totalInstrs, serial.rows[i].totalInstrs);
            EXPECT_EQ(r.rows[i].idealTpc, serial.rows[i].idealTpc);
        }
    }
}

TEST(SpecSweep, PredictorAxisBitIdenticalAcrossJobCounts)
{
    // The `predictors=` axis rides the policy axis: every PRED cell owns
    // its predictor, so the bit-identity guarantee must be untouched
    // (docs/PREDICTORS.md). Pins the ISSUE acceptance grid shape.
    RunOptions opts = smallOpts({"compress", "swim", "synth.irregular"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.policies = {{SpecPolicy::Str, 3, DataMode::None, "STR"},
                     predictorGridPolicy("bimodal"),
                     predictorGridPolicy("gshare:12"),
                     predictorGridPolicy("local:10/10")};
    grid.tuCounts = {2, 4};

    SweepResult serial = runSpecSweep(grid, 1);
    ASSERT_EQ(serial.cells.size(), 3u * 4u * 2u);
    for (unsigned jobs : {2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
        SCOPED_TRACE(jobs);
        SweepResult r = runSpecSweep(grid, jobs);
        ASSERT_EQ(r.cells.size(), serial.cells.size());
        for (size_t i = 0; i < r.cells.size(); ++i)
            expectStatsEq(r.cells[i].stats, serial.cells[i].stats);
    }
}

TEST(SpecSweep, PredictorCellsMatchDirectSimulation)
{
    // A swept PRED cell (shared RecordingIndex) must equal a standalone
    // ThreadSpecSimulator over the same recording and configuration.
    RunOptions opts = smallOpts({"li"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.policies = {predictorGridPolicy("gshare:10"),
                     predictorGridPolicy("bimodal:8")};
    grid.tuCounts = {4};
    SweepResult r = runSpecSweep(grid, 4);

    CollectFlags flags;
    flags.recording = true;
    WorkloadArtifacts art = runWorkload("li", opts, flags);
    for (size_t p = 0; p < grid.policies.size(); ++p) {
        SCOPED_TRACE(grid.policies[p].name());
        SpecConfig cfg;
        cfg.numTUs = 4;
        cfg.policy = SpecPolicy::Pred;
        cfg.predictor = grid.policies[p].predictor;
        expectStatsEq(r.cell(0, 0, p, 0), serialCell(art, cfg));
    }
    // The two schemes must actually disagree somewhere, or the axis
    // would be decorative.
    EXPECT_NE(r.cell(0, 0, 0, 0).threadsSpeculated,
              r.cell(0, 0, 1, 0).threadsSpeculated);
}

TEST(SpecSweep, RecordingDedupIsCounted)
{
    RunOptions opts = smallOpts({"compress", "li"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.clsSizes = {16, 4};
    grid.policies = {{SpecPolicy::Idle, 3, DataMode::None, "IDLE"},
                     {SpecPolicy::Str, 3, DataMode::None, "STR"}};
    grid.tuCounts = {2, 4};
    grid.letEntries = {0, 8};
    SweepResult r = runSpecSweep(grid, 2);

    // 32 configuration cells ran off 4 recordings from 2 functional
    // passes: the dedup is what makes large grids affordable.
    EXPECT_EQ(r.functionalPasses, 2u);
    EXPECT_EQ(r.recordingsProduced, 4u);
    EXPECT_EQ(r.cellsRun, 32u);
    EXPECT_EQ(r.cells.size(), 32u);
    EXPECT_EQ(r.rows.size(), 4u);
}

TEST(SpecSweep, DerivedClsRecordingMatchesDirectPass)
{
    // The second CLS size is produced by control-trace replay; its cells
    // must equal a fresh functional pass run directly at that size. go's
    // deep recursion overflows a 4-entry CLS, so the axis is visible.
    RunOptions opts = smallOpts({"go"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.clsSizes = {16, 4};
    grid.policies = {{SpecPolicy::Str, 3, DataMode::None, "STR"}};
    grid.tuCounts = {4};
    // checkReplay makes the engine itself cross-check every derived
    // recording against a direct pass (fatal on divergence), so this
    // test also exercises that path.
    grid.checkReplay = true;
    SweepResult r = runSpecSweep(grid, 2);

    RunOptions direct = opts;
    direct.clsEntries = 4;
    CollectFlags flags;
    flags.recording = true;
    WorkloadArtifacts art = runWorkload("go", direct, flags);
    SpecConfig cfg;
    cfg.numTUs = 4;
    cfg.policy = SpecPolicy::Str;
    expectStatsEq(r.cell(0, 1, 0, 0), serialCell(art, cfg));

    // And the two CLS sizes genuinely differ on this workload, so the
    // axis is not vacuous.
    EXPECT_NE(r.cell(0, 0, 0, 0).cycles, r.cell(0, 1, 0, 0).cycles);
}

TEST(SpecSweep, LetAxisReachesThePredictor)
{
    // letEntries is the predictor axis: bounding the LET to one entry
    // must change what STR speculates on a multi-loop workload (either
    // direction — a tiny table can over- or under-speculate).
    RunOptions opts = smallOpts({"li"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.policies = {{SpecPolicy::Str, 3, DataMode::None, "STR"}};
    grid.tuCounts = {4};
    grid.letEntries = {0, 1};
    SweepResult r = runSpecSweep(grid, 2);
    EXPECT_NE(r.cell(0, 0, 0, 0, 0).cycles,
              r.cell(0, 0, 0, 0, 1).cycles);
}

TEST(SpecSweep, EmptyAndSingletonGrids)
{
    SweepGrid empty;
    SweepResult r0 = runSpecSweep(empty, 2);
    EXPECT_TRUE(r0.rows.empty());
    EXPECT_TRUE(r0.cells.empty());
    EXPECT_EQ(r0.functionalPasses, 0u);
    EXPECT_EQ(r0.cellsRun, 0u);

    // No configuration axes: rows only, no recordings kept.
    RunOptions opts = smallOpts({"li"});
    SweepGrid rows_only = sweepGridFromOptions(opts);
    SweepResult r1 = runSpecSweep(rows_only, 2);
    EXPECT_EQ(r1.rows.size(), 1u);
    EXPECT_TRUE(r1.cells.empty());
    EXPECT_EQ(r1.recordingsProduced, 0u);
    EXPECT_GT(r1.row(0).totalInstrs, 0u);

    // Fully singleton grid: exactly one cell, equal to a direct run.
    SweepGrid one = sweepGridFromOptions(opts);
    one.policies = {{SpecPolicy::Str, 3, DataMode::None, "STR"}};
    one.tuCounts = {4};
    SweepResult r2 = runSpecSweep(one, 1);
    ASSERT_EQ(r2.cells.size(), 1u);
    CollectFlags flags;
    flags.recording = true;
    WorkloadArtifacts art = runWorkload("li", opts, flags);
    SpecConfig cfg;
    cfg.numTUs = 4;
    cfg.policy = SpecPolicy::Str;
    expectStatsEq(r2.cell(0, 0, 0, 0), serialCell(art, cfg));
}

TEST(SpecSweep, SharedIndexMatchesOwnedIndex)
{
    // The sweep hands every simulator a shared RecordingIndex; the
    // convenience constructor builds a private one. Both must agree.
    RunOptions opts = smallOpts({"gcc"});
    CollectFlags flags;
    flags.recording = true;
    WorkloadArtifacts art = runWorkload("gcc", opts, flags);
    RecordingIndex index(art.recording);
    for (SpecPolicy pol :
         {SpecPolicy::Idle, SpecPolicy::Str, SpecPolicy::StrI}) {
        SCOPED_TRACE(static_cast<int>(pol));
        SpecConfig cfg;
        cfg.numTUs = 4;
        cfg.policy = pol;
        SpecStats owned =
            ThreadSpecSimulator(art.recording, cfg).run();
        SpecStats shared =
            ThreadSpecSimulator(art.recording, index, cfg).run();
        expectStatsEq(owned, shared);
    }
}

// ------------------------------------------------------------- --trace-dir

/** Export control traces for @p benchmarks into a fresh directory
 *  under the gtest temp dir; returns the directory. */
std::string
exportTraces(const std::vector<std::string> &benchmarks,
             const RunOptions &opts, const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "sweep_" + tag + "_" +
                      std::to_string(::getpid());
    ::mkdir(dir.c_str(), 0755);
    for (const std::string &name : benchmarks)
        exportWorkloadTrace(name, opts, dir, TraceEncoding::Varint);
    return dir;
}

TEST(SpecSweep, TraceDirGridMatchesInProcessExecution)
{
    // A grid replayed from exported containers must be bit-identical to
    // the same grid executed in-process — including the derived-CLS
    // axis, whose recordings come from the streaming reader in
    // --trace-dir mode, and the Figure-5 half-trace ideal rerun.
    RunOptions opts = smallOpts({"compress", "li"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.clsSizes = {16, 4};
    grid.policies = {{SpecPolicy::Str, 3, DataMode::None, "STR"},
                     {SpecPolicy::StrI, 2, DataMode::None, "STR(2)"}};
    grid.tuCounts = {2, 8};
    grid.ideal = true;
    SweepResult direct = runSpecSweep(grid, 2);

    SweepGrid from_traces = grid;
    from_traces.traceDir =
        exportTraces(grid.workloads, opts, "bitident");
    from_traces.checkReplay = true; // engine cross-checks derived CLS
    SweepResult replayed = runSpecSweep(from_traces, 2);

    ASSERT_EQ(replayed.cells.size(), direct.cells.size());
    for (size_t i = 0; i < direct.cells.size(); ++i) {
        SCOPED_TRACE(i);
        expectStatsEq(replayed.cells[i].stats, direct.cells[i].stats);
    }
    ASSERT_EQ(replayed.rows.size(), direct.rows.size());
    for (size_t i = 0; i < direct.rows.size(); ++i) {
        EXPECT_EQ(replayed.rows[i].totalInstrs,
                  direct.rows[i].totalInstrs);
        EXPECT_EQ(replayed.rows[i].idealTpc, direct.rows[i].idealTpc);
        EXPECT_EQ(replayed.rows[i].idealTpcPrefix,
                  direct.rows[i].idealTpcPrefix);
    }
}

TEST(SpecSweep, TraceDirDeterministicAcrossJobCounts)
{
    RunOptions opts = smallOpts({"compress", "li"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.policies = {{SpecPolicy::Str, 3, DataMode::None, "STR"}};
    grid.tuCounts = {2, 4, 8};
    grid.traceDir = exportTraces(grid.workloads, opts, "jobs");

    SweepResult serial = runSpecSweep(grid, 1);
    ASSERT_EQ(serial.cells.size(), 2u * 3u);
    for (unsigned jobs : {2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
        SCOPED_TRACE(jobs);
        SweepResult r = runSpecSweep(grid, jobs);
        ASSERT_EQ(r.cells.size(), serial.cells.size());
        for (size_t i = 0; i < r.cells.size(); ++i)
            expectStatsEq(r.cells[i].stats, serial.cells[i].stats);
    }
}

TEST(SpecSweepDeathTest, TraceDirMissingContainerIsFatal)
{
    RunOptions opts = smallOpts({"compress"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.policies = {{SpecPolicy::Str, 3, DataMode::None, "STR"}};
    grid.tuCounts = {2};
    grid.traceDir = "/nonexistent_trace_dir_for_sweep_test";
    EXPECT_EXIT(runSpecSweep(grid, 1), testing::ExitedWithCode(1),
                "cannot open trace file");
}

TEST(SpecSweepDeathTest, TraceDirRejectsDataSpeculationGrids)
{
    // Data-speculation artifacts read operand values, which a control
    // trace cannot provide; the engine must say so up front.
    RunOptions opts = smallOpts({"li"});
    SweepGrid grid = sweepGridFromOptions(opts);
    grid.policies = {{SpecPolicy::Str, 3, DataMode::LiveIns, "live"}};
    grid.tuCounts = {4};
    grid.traceDir = "/irrelevant";
    EXPECT_EXIT(runSpecSweep(grid, 1), testing::ExitedWithCode(1),
                "operand values");
}

TEST(SpecSweepDeathTest, ProfiledDataModeRejectsMultiClsGrids)
{
    RunOptions opts = smallOpts({"li"});
    SweepGrid grid = sweepGridFromOptions(opts);
    // The live-in flags come from the functional pass at the traced
    // CLS only.
    grid.clsSizes = {16, 8};
    grid.policies = {{SpecPolicy::Str, 3, DataMode::LiveIns, "live"}};
    grid.tuCounts = {4};
    EXPECT_EXIT(runSpecSweep(grid, 1), testing::ExitedWithCode(1),
                "single-CLS");
}

} // namespace
} // namespace loopspec
