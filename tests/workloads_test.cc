/** @file Tests for the synthetic SPEC95-shaped workload suite: every
 *  program builds, validates, runs to completion deterministically, and
 *  keeps its calibrated loop-shape statistics within coarse bands. */

#include <gtest/gtest.h>

#include "loop/loop_stats.hh"
#include "tests/test_util.hh"
#include "workloads/workload.hh"

namespace loopspec
{
namespace
{

/** Small scale keeps this suite fast; shape stats are scale-invariant. */
constexpr double testScale = 0.25;

LoopStatsReport
statsFor(const std::string &name, double scale)
{
    Program p = buildWorkload(name, {scale});
    TraceEngine engine(p);
    LoopDetector det({16});
    LoopStats stats;
    det.addListener(&stats);
    engine.addObserver(&det);
    engine.run();
    return stats.report();
}

TEST(Workloads, RegistryHasAllEighteen)
{
    EXPECT_EQ(workloadRegistry().size(), 18u);
    auto names = workloadNames();
    EXPECT_EQ(names.front(), "applu"); // Table 1 order
    EXPECT_EQ(names.back(), "wave5");
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)buildWorkload("specfp3000", {1.0}),
                 "unknown workload");
}

class WorkloadEach : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadEach, BuildsValidatesAndRuns)
{
    Program p = buildWorkload(GetParam(), {testScale});
    p.validate();
    EXPECT_GT(p.size(), 100u);
    TraceEngine engine(p);
    uint64_t n = engine.run();
    EXPECT_TRUE(engine.finished());
    EXPECT_GT(n, 10000u);       // substantial work
    EXPECT_LT(n, 100000000u);   // but bounded (no runaway)
    EXPECT_EQ(engine.callDepth(), 0u); // calls balanced
}

TEST_P(WorkloadEach, DeterministicAcrossBuilds)
{
    // Same scale -> identical instruction stream (hash the PCs).
    auto hash_run = [&]() {
        Program p = buildWorkload(GetParam(), {testScale});
        TraceEngine engine(p);
        uint64_t h = 0xcbf29ce484222325ull;
        DynInstr d;
        while (engine.step(d)) {
            h ^= d.pc;
            h *= 0x100000001b3ull;
        }
        return h;
    };
    EXPECT_EQ(hash_run(), hash_run());
}

TEST_P(WorkloadEach, ClsOf16NeverOverflows)
{
    LoopStatsReport r = statsFor(GetParam(), testScale);
    // The paper: 16 CLS entries suffice for the whole SPEC95 suite.
    EXPECT_EQ(r.overflowDrops, 0u) << GetParam();
    EXPECT_LE(r.maxNesting, 16u);
}

TEST_P(WorkloadEach, ScaleControlsLengthNotShape)
{
    // Scales below ~0.5 can collapse outer drivers to a single
    // (undetectable) iteration, which legitimately shifts the nesting
    // profile; compare two scales above that threshold.
    LoopStatsReport small = statsFor(GetParam(), 0.5);
    LoopStatsReport big = statsFor(GetParam(), 1.5);
    EXPECT_GT(big.totalInstrs, small.totalInstrs);
    // Static loop population is scale-invariant.
    EXPECT_EQ(small.staticLoops, big.staticLoops);
    // Nesting depth is structural.
    EXPECT_EQ(small.maxNesting, big.maxNesting);
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadEach, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<std::string> &param_info) {
        return param_info.param;
    });

// --- coarse Table-1 calibration bands (full default scale) -------------

struct Band
{
    const char *name;
    uint64_t loopsLo, loopsHi;
    double iterLo, iterHi;
    uint32_t maxNestLo, maxNestHi;
};

/** Prints a band as its workload name. gtest's default prints the raw
 *  bytes, whose `name` pointer made the test names change per run. */
void
PrintTo(const Band &band, std::ostream *os)
{
    *os << band.name;
}

class WorkloadBands : public ::testing::TestWithParam<Band>
{
};

TEST_P(WorkloadBands, Table1ShapeHolds)
{
    const Band &band = GetParam();
    LoopStatsReport r = statsFor(band.name, 1.0);
    EXPECT_GE(r.staticLoops, band.loopsLo) << band.name;
    EXPECT_LE(r.staticLoops, band.loopsHi) << band.name;
    EXPECT_GE(r.itersPerExec, band.iterLo) << band.name;
    EXPECT_LE(r.itersPerExec, band.iterHi) << band.name;
    EXPECT_GE(r.maxNesting, band.maxNestLo) << band.name;
    EXPECT_LE(r.maxNesting, band.maxNestHi) << band.name;
}

INSTANTIATE_TEST_SUITE_P(
    Calibration, WorkloadBands,
    ::testing::Values(
        // name, static loops in [lo,hi], iter/exec in [lo,hi],
        // max nesting in [lo,hi]. Bands are deliberately loose: they
        // pin the *shape*, not the decimals.
        Band{"applu", 150, 220, 2.5, 7.0, 6, 8},
        Band{"compress", 35, 55, 4.0, 12.0, 3, 5},
        Band{"gcc", 1100, 1300, 3.0, 8.0, 5, 8},
        Band{"go", 600, 800, 2.0, 6.0, 7, 14},
        Band{"hydro2d", 250, 330, 20.0, 40.0, 3, 5},
        Band{"li", 70, 110, 2.0, 5.0, 6, 12},
        Band{"m88ksim", 100, 150, 6.0, 14.0, 3, 6},
        Band{"mgrid", 120, 165, 8.0, 35.0, 5, 7},
        Band{"perl", 120, 165, 2.0, 5.0, 4, 7},
        Band{"swim", 60, 95, 40.0, 200.0, 2, 4},
        Band{"tomcatv", 75, 105, 35.0, 75.0, 3, 5},
        Band{"turb3d", 130, 180, 3.5, 7.0, 5, 7},
        Band{"vortex", 180, 240, 6.0, 16.0, 3, 6},
        Band{"wave5", 170, 215, 40.0, 80.0, 3, 6}),
    [](const ::testing::TestParamInfo<Band> &param_info) {
        return std::string(param_info.param.name);
    });

TEST(WorkloadSuite, SwimHasTheLargestIterPerExec)
{
    // The suite-internal ordering the paper's Table 1 shows.
    double swim = statsFor("swim", 1.0).itersPerExec;
    for (const char *other : {"perl", "go", "li", "gcc", "applu"})
        EXPECT_GT(swim, 10 * statsFor(other, 1.0).itersPerExec) << other;
}

TEST(WorkloadSuite, FppppHasTheLargestIterations)
{
    double fpppp = statsFor("fpppp", 1.0).instrsPerIter;
    for (const char *other : {"compress", "m88ksim", "perl", "gcc"})
        EXPECT_GT(fpppp, 5 * statsFor(other, 1.0).instrsPerIter) << other;
}

TEST(WorkloadSuite, PerlIsTheFlattest)
{
    double perl = statsFor("perl", 1.0).avgNesting;
    for (const char *other : {"applu", "mgrid", "go", "fpppp"})
        EXPECT_LT(perl, statsFor(other, 1.0).avgNesting) << other;
}

} // namespace
} // namespace loopspec
