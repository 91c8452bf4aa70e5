/** @file Unit tests for src/harness: RunOptions and flag parsing, plus
 *  the --trace-dir streaming-replay run mode (docs/TRACE_FORMAT.md). */

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "trace_io/container.hh"
#include "trace_io/trace_codec.hh"
#include "workloads/workload.hh"

namespace loopspec
{

TEST(RunOptions, SelectedDefaultsToFullRegistry)
{
    RunOptions opts;
    EXPECT_EQ(opts.selected(), workloadNames());
}

TEST(RunOptions, SelectedHonoursExplicitList)
{
    RunOptions opts;
    opts.benchmarks = {"swim", "gcc"};
    std::vector<std::string> expect = {"swim", "gcc"};
    EXPECT_EQ(opts.selected(), expect);
}

TEST(RunOptions, SelectedPreservesOrderAndDuplicates)
{
    // selected() is a pass-through: experiments that deliberately rerun
    // a workload (e.g. for variance) must not have it deduplicated.
    RunOptions opts;
    opts.benchmarks = {"li", "li", "applu"};
    std::vector<std::string> expect = {"li", "li", "applu"};
    EXPECT_EQ(opts.selected(), expect);
}

TEST(ParseRunOptions, DefaultsMatchDocumentation)
{
    const char *argv[] = {"prog"};
    RunOptions opts = parseRunOptions(1, const_cast<char **>(argv), {});
    EXPECT_DOUBLE_EQ(opts.scale.factor, 1.0);
    EXPECT_TRUE(opts.benchmarks.empty());
    EXPECT_EQ(opts.clsEntries, 16u);
    EXPECT_EQ(opts.maxInstrs, 0u);
    EXPECT_FALSE(opts.csv);
}

TEST(ParseRunOptions, ParsesAllStandardFlags)
{
    const char *argv[] = {"prog",       "--scale=0.5", "--benchmarks",
                          "swim,li",    "--cls",       "8",
                          "--max-instrs=1000", "--csv"};
    RunOptions opts = parseRunOptions(8, const_cast<char **>(argv), {});
    EXPECT_DOUBLE_EQ(opts.scale.factor, 0.5);
    std::vector<std::string> expect = {"swim", "li"};
    EXPECT_EQ(opts.benchmarks, expect);
    EXPECT_EQ(opts.selected(), expect);
    EXPECT_EQ(opts.clsEntries, 8u);
    EXPECT_EQ(opts.maxInstrs, 1000u);
    EXPECT_TRUE(opts.csv);
}

TEST(ParseRunOptions, EqualsAndSpaceFormsRoundTrip)
{
    const char *argv_eq[] = {"prog", "--scale=2.5", "--cls=4"};
    const char *argv_sp[] = {"prog", "--scale", "2.5", "--cls", "4"};
    RunOptions a = parseRunOptions(3, const_cast<char **>(argv_eq), {});
    RunOptions b = parseRunOptions(5, const_cast<char **>(argv_sp), {});
    EXPECT_DOUBLE_EQ(a.scale.factor, b.scale.factor);
    EXPECT_EQ(a.clsEntries, b.clsEntries);
}

TEST(ParseRunOptions, ExtraFlagsReadableThroughArgsOut)
{
    const char *argv[] = {"prog", "--tus", "8", "--policy", "str3",
                          "--cls", "4"};
    std::unique_ptr<CliArgs> args;
    RunOptions opts = parseRunOptions(7, const_cast<char **>(argv),
                                      {"tus", "policy"}, &args);
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(opts.clsEntries, 4u);
    EXPECT_EQ(args->getUint("tus", 0), 8u);
    EXPECT_EQ(args->getString("policy", ""), "str3");
}

TEST(ParseRunOptions, RepeatedParsesAreIndependent)
{
    // parseRunOptions used to stash the CliArgs in a function-local
    // static, so a second parse invalidated the first caller's pointer;
    // ownership now transfers to each caller independently.
    const char *argv_a[] = {"prog", "--tus=8"};
    const char *argv_b[] = {"prog", "--tus=2"};
    std::unique_ptr<CliArgs> a, b;
    parseRunOptions(2, const_cast<char **>(argv_a), {"tus"}, &a);
    parseRunOptions(2, const_cast<char **>(argv_b), {"tus"}, &b);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->getUint("tus", 0), 8u);
    EXPECT_EQ(b->getUint("tus", 0), 2u);
}

TEST(ParseRunOptions, CheckReplayFlag)
{
    const char *argv[] = {"prog", "--check-replay"};
    RunOptions opts = parseRunOptions(2, const_cast<char **>(argv), {});
    EXPECT_TRUE(opts.checkReplay);
    const char *argv_off[] = {"prog"};
    EXPECT_FALSE(
        parseRunOptions(1, const_cast<char **>(argv_off), {}).checkReplay);
}

TEST(ParseRunOptions, JobsFlagDefaultsToHardware)
{
    const char *argv[] = {"prog"};
    EXPECT_EQ(parseRunOptions(1, const_cast<char **>(argv), {}).jobs, 0u);
    const char *argv_jobs[] = {"prog", "--jobs=3"};
    EXPECT_EQ(parseRunOptions(2, const_cast<char **>(argv_jobs), {}).jobs,
              3u);
}

TEST(SweepGridFromOptions, SeedsAxesFromStandardFlags)
{
    RunOptions opts;
    opts.scale.factor = 0.5;
    opts.benchmarks = {"swim", "gcc"};
    opts.clsEntries = 8;
    opts.maxInstrs = 1234;
    opts.checkReplay = true;
    SweepGrid grid = sweepGridFromOptions(opts);
    std::vector<std::string> expect = {"swim", "gcc"};
    EXPECT_EQ(grid.workloads, expect);
    std::vector<size_t> cls = {8};
    EXPECT_EQ(grid.clsSizes, cls);
    EXPECT_DOUBLE_EQ(grid.scale.factor, 0.5);
    EXPECT_EQ(grid.maxInstrs, 1234u);
    EXPECT_TRUE(grid.checkReplay);
    // No configuration axes yet: benches declare those per figure.
    EXPECT_FALSE(grid.hasCells());
    EXPECT_FALSE(grid.needsDataCorrectness());
}

TEST(SweepGridFromOptions, DefaultSelectionIsWholeRegistry)
{
    RunOptions opts;
    EXPECT_EQ(sweepGridFromOptions(opts).workloads, workloadNames());
}

// ------------------------------------------------------------- --trace-dir

/** Fresh subdirectory under the gtest temp dir (the temp dir itself is
 *  shared across suites, and selected() scans whole directories). */
std::string
freshTraceDir(const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "runner_" + tag + "_" +
                      std::to_string(::getpid());
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

TEST(ParseRunOptions, TraceDirFlagReachesOptionsAndGrid)
{
    const char *argv[] = {"prog", "--trace-dir=/some/dir"};
    RunOptions opts = parseRunOptions(2, const_cast<char **>(argv), {});
    EXPECT_EQ(opts.traceDir, "/some/dir");
    EXPECT_TRUE(
        parseRunOptions(1, const_cast<char **>(argv), {}).traceDir.empty());

    // The sweep engine inherits the replay mode through the grid.
    opts.benchmarks = {"compress"};
    EXPECT_EQ(sweepGridFromOptions(opts).traceDir, "/some/dir");
}

TEST(RunOptions, SelectedScansTraceDirForContainers)
{
    std::string dir = freshTraceDir("scan");
    // Stems of *.lstrace files, sorted; other files are ignored.
    writeFileBytes(traceFilePath(dir, "zeta", kControlTraceExt), {1});
    writeFileBytes(traceFilePath(dir, "alpha", kControlTraceExt), {1});
    writeFileBytes(traceFilePath(dir, "alpha", ".lsrec"), {1});

    RunOptions opts;
    opts.traceDir = dir;
    std::vector<std::string> expect = {"alpha", "zeta"};
    EXPECT_EQ(opts.selected(), expect);

    // An explicit --benchmarks list still wins over the scan.
    opts.benchmarks = {"zeta"};
    std::vector<std::string> just_zeta = {"zeta"};
    EXPECT_EQ(opts.selected(), just_zeta);
}

TEST(RunWorkloadTraceDir, StreamedReplayMatchesDirectExecution)
{
    std::string dir = freshTraceDir("replay");
    RunOptions opts;
    opts.scale.factor = 0.05;
    exportWorkloadTrace("compress", opts, dir, TraceEncoding::Varint);

    CollectFlags flags;
    flags.loopStats = true;
    flags.hitRatios = true;
    flags.ideal = true;
    // Predictor meters ride the streamed pass beside the detector, so
    // the trace-dir fan-out carries two hot-plane targets.
    for (const char *spec : {"gshare:12", "tage:4/2-8"})
        flags.predictors.push_back(parsePredictorSpec(spec));
    flags.recording = true;
    // checkReplay makes the runner itself cross-check every derived
    // artifact against its reference (fatal on divergence): direct
    // execution and the live meters in process, an in-memory replay of
    // the same file under --trace-dir. Both sources go through the same
    // checks: detector events, predictor state, LET/LIT and the prefix.
    opts.checkReplay = true;
    WorkloadArtifacts direct = runWorkload("compress", opts, flags);

    RunOptions replay = opts;
    replay.traceDir = dir;
    WorkloadArtifacts streamed = runWorkload("compress", replay, flags);

    EXPECT_GT(direct.recording.events.size(), 0u);
    EXPECT_EQ(compareRecordings(direct.recording, streamed.recording), "");

    EXPECT_EQ(streamed.totalInstrs, direct.totalInstrs);
    EXPECT_EQ(streamed.loopStats.staticLoops,
              direct.loopStats.staticLoops);
    EXPECT_EQ(streamed.loopStats.totalExecs, direct.loopStats.totalExecs);
    EXPECT_EQ(streamed.loopStats.totalIters, direct.loopStats.totalIters);
    EXPECT_EQ(streamed.idealTpc, direct.idealTpc);
    EXPECT_EQ(streamed.idealTpcPrefix, direct.idealTpcPrefix);
    ASSERT_EQ(streamed.letResults.size(), direct.letResults.size());
    for (size_t i = 0; i < direct.letResults.size(); ++i) {
        EXPECT_EQ(streamed.letResults[i].first,
                  direct.letResults[i].first);
        EXPECT_EQ(streamed.letResults[i].second.hits,
                  direct.letResults[i].second.hits);
        EXPECT_EQ(streamed.letResults[i].second.accesses,
                  direct.letResults[i].second.accesses);
        EXPECT_EQ(streamed.litResults[i].second.hits,
                  direct.litResults[i].second.hits);
        EXPECT_EQ(streamed.litResults[i].second.accesses,
                  direct.litResults[i].second.accesses);
    }
    ASSERT_EQ(streamed.predictorStats.size(), 2u);
    ASSERT_EQ(direct.predictorStats.size(), 2u);
    for (size_t i = 0; i < direct.predictorStats.size(); ++i) {
        const PredictorMeterResult &a = direct.predictorStats[i];
        const PredictorMeterResult &b = streamed.predictorStats[i];
        EXPECT_GT(a.lookups, 0u) << i;
        EXPECT_EQ(b.lookups, a.lookups) << i;
        EXPECT_EQ(b.hits, a.hits) << i;
        EXPECT_EQ(b.stateHash, a.stateHash) << i;
    }
}

TEST(RunWorkloadTraceDirDeathTest, MissingDirectoryIsFatal)
{
    RunOptions opts;
    opts.traceDir = "/nonexistent_trace_dir_for_test";
    EXPECT_EXIT(opts.selected(), testing::ExitedWithCode(1),
                "cannot read trace directory");
}

TEST(RunWorkloadTraceDirDeathTest, MissingTraceFileIsFatal)
{
    RunOptions opts;
    opts.traceDir = freshTraceDir("missing");
    opts.benchmarks = {"compress"};
    EXPECT_EXIT(runWorkload("compress", opts, {}),
                testing::ExitedWithCode(1), "cannot open trace file");
}

TEST(RunWorkloadTraceDirDeathTest, MalformedContainerIsFatal)
{
    std::string dir = freshTraceDir("garbage");
    std::vector<uint8_t> junk(64, 0xde); // header-sized, wrong magic
    writeFileBytes(traceFilePath(dir, "junk", kControlTraceExt), junk);
    RunOptions opts;
    opts.traceDir = dir;
    EXPECT_EXIT(runWorkload("junk", opts, {}),
                testing::ExitedWithCode(1), "bad magic");
}

TEST(RunWorkloadTraceDirDeathTest, DataSpecNeedsOperandValues)
{
    RunOptions opts;
    opts.traceDir = freshTraceDir("dataspec");
    CollectFlags flags;
    flags.dataSpec = true;
    EXPECT_EXIT(runWorkload("compress", opts, flags),
                testing::ExitedWithCode(1), "operand values");
}

TEST(ParseRunOptionsDeathTest, UnknownFlagIsFatal)
{
    const char *argv[] = {"prog", "--no-such-flag=1"};
    EXPECT_EXIT(parseRunOptions(2, const_cast<char **>(argv), {}),
                testing::ExitedWithCode(1), "unknown flag");
}

TEST(ParseRunOptionsDeathTest, NonPositiveScaleIsFatal)
{
    const char *argv[] = {"prog", "--scale=0"};
    EXPECT_EXIT(parseRunOptions(2, const_cast<char **>(argv), {}),
                testing::ExitedWithCode(1), "--scale must be positive");
}

TEST(ParseRunOptionsDeathTest, NegativeScaleIsFatal)
{
    const char *argv[] = {"prog", "--scale=-1.5"};
    EXPECT_EXIT(parseRunOptions(2, const_cast<char **>(argv), {}),
                testing::ExitedWithCode(1), "--scale must be positive");
}

TEST(ParseRunOptionsDeathTest, MalformedScaleIsFatal)
{
    // strtod would parse "abc" as 0.0 and "0.5x" as 0.5; both must be
    // rejected as malformed, not silently coerced.
    const char *argv_junk[] = {"prog", "--scale=abc"};
    EXPECT_EXIT(parseRunOptions(2, const_cast<char **>(argv_junk), {}),
                testing::ExitedWithCode(1), "malformed value 'abc'");
    const char *argv_trail[] = {"prog", "--scale=0.5x"};
    EXPECT_EXIT(parseRunOptions(2, const_cast<char **>(argv_trail), {}),
                testing::ExitedWithCode(1), "malformed value '0.5x'");
}

TEST(ParseRunOptionsDeathTest, MalformedClsIsFatal)
{
    const char *argv[] = {"prog", "--cls=16q"};
    EXPECT_EXIT(parseRunOptions(2, const_cast<char **>(argv), {}),
                testing::ExitedWithCode(1), "malformed value '16q'");
}

TEST(ParseRunOptionsDeathTest, ZeroClsIsFatal)
{
    const char *argv[] = {"prog", "--cls=0"};
    EXPECT_EXIT(parseRunOptions(2, const_cast<char **>(argv), {}),
                testing::ExitedWithCode(1),
                "--cls: CLS size 0 outside \\[1, 64\\]");
}

TEST(ParseRunOptionsDeathTest, ClsAboveCapacityIsFatal)
{
    const char *argv[] = {"prog", "--cls=65"};
    EXPECT_EXIT(parseRunOptions(2, const_cast<char **>(argv), {}),
                testing::ExitedWithCode(1),
                "--cls: CLS size 65 outside \\[1, 64\\]");
}

TEST(ParseRunOptionsDeathTest, EmptyScaleValueIsFatal)
{
    const char *argv[] = {"prog", "--scale="};
    EXPECT_EXIT(parseRunOptions(2, const_cast<char **>(argv), {}),
                testing::ExitedWithCode(1), "malformed value ''");
}

TEST(ParseRunOptionsDeathTest, NegativeUnsignedIsFatal)
{
    // --max-instrs goes through getUint; strtoull would accept "-5" and
    // wrap it to 2^64-5, turning a typo into a near-infinite run.
    const char *argv[] = {"prog", "--max-instrs=-5"};
    EXPECT_EXIT(parseRunOptions(2, const_cast<char **>(argv), {}),
                testing::ExitedWithCode(1),
                "negative value '-5' for --max-instrs");
}

TEST(ParseRunOptionsDeathTest, OutOfRangeUnsignedIsFatal)
{
    // 2^64 does not fit; strtoull used to clamp it silently to
    // ULLONG_MAX and carry on.
    const char *argv[] = {"prog", "--max-instrs=18446744073709551616"};
    EXPECT_EXIT(parseRunOptions(2, const_cast<char **>(argv), {}),
                testing::ExitedWithCode(1),
                "out-of-range value '18446744073709551616' "
                "for --max-instrs");
}

TEST(ParseRunOptionsDeathTest, OutOfRangeClsEntryIsFatal)
{
    // --cls takes the same getUint path.
    const char *argv[] = {"prog", "--cls=99999999999999999999999"};
    EXPECT_EXIT(parseRunOptions(2, const_cast<char **>(argv), {}),
                testing::ExitedWithCode(1), "out-of-range value");
}

TEST(ParseRunOptionsDeathTest, DuplicateFlagIsFatal)
{
    // Both --x=a --x=b and the mixed --x=a --x b forms must be caught;
    // last-one-wins used to hide script editing mistakes.
    const char *argv[] = {"prog", "--scale=0.5", "--scale=2"};
    EXPECT_EXIT(parseRunOptions(3, const_cast<char **>(argv), {}),
                testing::ExitedWithCode(1), "duplicate flag --scale");
    const char *argv_mixed[] = {"prog", "--cls=4", "--cls", "8"};
    EXPECT_EXIT(parseRunOptions(4, const_cast<char **>(argv_mixed), {}),
                testing::ExitedWithCode(1), "duplicate flag --cls");
}

TEST(ParseRunOptionsDeathTest, DuplicateExtraFlagIsFatal)
{
    const char *argv[] = {"prog", "--tus=2", "--tus=4"};
    EXPECT_EXIT(
        parseRunOptions(3, const_cast<char **>(argv), {"tus"}),
        testing::ExitedWithCode(1), "duplicate flag --tus");
}

} // namespace loopspec
