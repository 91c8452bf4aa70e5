/** @file Tests for the §4 data-speculation profiler: path profiling,
 *  live-in detection, stride prediction, the flat per-iteration tables'
 *  cap boundaries, and live-in predictor wraparound. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <tuple>

#include "dataspec/data_profiler.hh"
#include "speculation/event_record.hh"
#include "tests/test_util.hh"

namespace loopspec
{
namespace
{

using namespace regs;

DataSpecReport
profileFor(const Program &prog, DataSpecConfig cfg = {})
{
    TraceEngine engine(prog);
    LoopDetector det({16});
    DataSpecProfiler prof(cfg);
    det.addListener(&prof);
    engine.addObserver(&det);
    engine.run();
    return prof.report();
}

auto
reportFields(const DataSpecReport &r)
{
    return std::make_tuple(r.itersEvaluated, r.modalIters, r.lrTotal,
                           r.lrCorrect, r.lmTotal, r.lmCorrect, r.lmIters,
                           r.allLrIters, r.allLmIters, r.allDataIters);
}

/** profileFor through both delivery forms: the scalar step() records and
 *  run()'s SoA cold planes must yield the identical report. */
DataSpecReport
profileBoth(const Program &prog, DataSpecConfig cfg = {})
{
    DataSpecProfiler scalar_prof(cfg);
    {
        TraceEngine engine(prog);
        LoopDetector det({16});
        det.addListener(&scalar_prof);
        engine.addObserver(&det);
        DynInstr d;
        while (engine.step(d)) {
        }
    }
    DataSpecReport r = profileFor(prog, cfg);
    EXPECT_EQ(reportFields(r), reportFields(scalar_prof.report()));
    return r;
}

TEST(DataSpec, UniformPathLoop)
{
    // Branch-free body: every iteration takes the same path.
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 50);
    b.countedLoop(r1, r2, [&](const LoopCtx &) { b.nop(); });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    // Detected iterations: 49 (index 2..50). All but the last share a
    // path; the last (not-taken close) differs.
    EXPECT_EQ(r.itersEvaluated, 49u);
    EXPECT_EQ(r.modalIters, 48u);
    EXPECT_GT(r.samePathPct(), 95.0);
}

TEST(DataSpec, AlternatingPathsSplitTheCount)
{
    // Body branches on parity: two paths, modal share ~50%.
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 41);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.andi(r3, r1, 1);
        b.ifElse([&](Label e) { b.bne(r3, r0, e); },
                 [&]() { b.nop(); }, [&]() { b.addi(r4, r4, 1); });
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    EXPECT_LT(r.samePathPct(), 60.0);
    EXPECT_GT(r.samePathPct(), 40.0);
}

TEST(DataSpec, InductionRegisterIsPredictable)
{
    // The loop index is read (compare) before written within each
    // iteration? In do-while form idx is read by addi: live-in with
    // stride 1 -> predictable from the 3rd evaluated iteration on.
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 100);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.add(r3, r1, r2); // reads idx and bound
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    EXPECT_GT(r.lrPredPct(), 90.0);
    EXPECT_GT(r.allLrPct(), 90.0);
}

TEST(DataSpec, ChaoticRegisterIsNot)
{
    // x = x * x + c is not stride-predictable.
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r4, 3);
    b.li(r1, 0);
    b.li(r2, 60);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.mul(r4, r4, r4);
        b.addi(r4, r4, 1);
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    // r4 (chaotic) and r1/r2 (predictable) mix; all-lr must fail almost
    // always because of r4.
    EXPECT_LT(r.allLrPct(), 10.0);
}

TEST(DataSpec, StridedLoadIsPredictableLiveIn)
{
    // a[i] streamed with linear contents: address stride 1, value
    // stride 5.
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    // init: a[i] = 5*i
    b.li(r1, 0);
    b.li(r2, 200);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.muli(r3, r1, 5);
        b.st(r3, r1, 64);
    });
    // consume
    b.li(r1, 0);
    b.li(r2, 200);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.ld(r4, r1, 64);
        b.add(r5, r5, r4);
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    EXPECT_GT(r.lmPredPct(), 85.0);
    EXPECT_GT(r.allLmPct(), 85.0);
}

TEST(DataSpec, StoreBeforeLoadIsNotLiveIn)
{
    // The iteration writes a[i] then reads it back: not live-in, so no
    // memory instances are evaluated at all.
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 50);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.st(r1, r1, 64);
        b.ld(r4, r1, 64);
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    EXPECT_EQ(r.lmTotal, 0u);
}

TEST(DataSpec, LoopInvariantLoadIsStrideZero)
{
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r3, 77);
    b.st(r3, r0, 10); // parameter cell
    b.li(r1, 0);
    b.li(r2, 80);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.ld(r4, r0, 10);
        b.add(r5, r5, r4);
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    EXPECT_GT(r.lmPredPct(), 90.0);
}

TEST(DataSpec, FootprintOverflowSkipsMemoryStats)
{
    // An iteration storing to more distinct addresses than the cap is
    // excluded from memory live-in accounting but keeps path stats.
    DataSpecConfig cfg;
    cfg.writtenSetCap = 8;
    ProgramBuilder b("t", 4096);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 10);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        for (int k = 0; k < 12; ++k) { // 12 > cap stores
            b.li(r3, 100 + k);
            b.st(r1, r3, 0);
        }
        b.ld(r4, r0, 200); // would be live-in, but iteration overflows
    });
    b.halt();
    DataSpecReport r = profileFor(b.build(), cfg);
    EXPECT_EQ(r.lmIters, 0u);
    EXPECT_GT(r.itersEvaluated, 0u);
}

TEST(DataSpec, NestedLoopsTrackIndependently)
{
    // Outer live-ins and inner live-ins are evaluated per loop.
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 10);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.li(r3, 0);
        b.li(r4, 10);
        b.countedLoop(r3, r4, [&](const LoopCtx &) {
            b.add(r5, r1, r3);
        });
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    // Inner iterations dominate; most register live-ins predictable.
    EXPECT_GT(r.itersEvaluated, 80u);
    EXPECT_GT(r.lrPredPct(), 80.0);
}

TEST(DataSpec, PerIterationFlagsRecorded)
{
    // Predictable loop: after warm-up, iterations flag as all-correct.
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 40);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.add(r3, r1, r2);
    });
    b.halt();
    DataSpecConfig cfg;
    cfg.recordPerIteration = true;
    TraceEngine engine(b.build());
    LoopDetector det({16});
    DataSpecProfiler prof(cfg);
    det.addListener(&prof);
    engine.addObserver(&det);
    engine.run();

    const auto &flags = prof.perIterationLiveInOk();
    ASSERT_EQ(flags.size(), 1u);
    const auto &v = flags.begin()->second;
    ASSERT_GE(v.size(), 30u);
    // Warm-up misses, then steady correctness.
    EXPECT_FALSE(v[0]);
    size_t correct = 0;
    for (bool f : v)
        correct += f;
    EXPECT_GT(correct, v.size() - 5);
}

TEST(DataSpec, PerIterationFlagsOffByDefault)
{
    ProgramBuilder b("t", 64);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 10);
    b.countedLoop(r1, r2, [&](const LoopCtx &) { b.nop(); });
    b.halt();
    TraceEngine engine(b.build());
    LoopDetector det({16});
    DataSpecProfiler prof;
    det.addListener(&prof);
    engine.addObserver(&det);
    engine.run();
    EXPECT_TRUE(prof.perIterationLiveInOk().empty());
}

TEST(DataSpec, MergeAnnotatesRecording)
{
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 25);
    b.countedLoop(r1, r2, [&](const LoopCtx &) { b.add(r3, r1, r2); });
    b.halt();
    Program p = b.build();

    TraceEngine engine(p);
    LoopDetector det({16});
    DataSpecConfig cfg;
    cfg.recordPerIteration = true;
    DataSpecProfiler prof(cfg);
    LoopEventRecorder rec;
    det.addListener(&prof);
    det.addListener(&rec);
    engine.addObserver(&det);
    engine.run();

    LoopEventRecording recording = rec.take();
    for (const auto &x : recording.execs)
        EXPECT_TRUE(x.iterLiveInOk.empty());
    mergeDataCorrectness(recording, prof);
    ASSERT_EQ(recording.execs.size(), 1u);
    EXPECT_FALSE(recording.execs[0].iterLiveInOk.empty());
}

TEST(DataSpec, ReportPercentagesAreConsistent)
{
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 30);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.ld(r4, r1, 64);
        b.add(r5, r5, r4);
    });
    b.halt();
    DataSpecReport r = profileFor(b.build());
    EXPECT_LE(r.modalIters, r.itersEvaluated);
    EXPECT_LE(r.lrCorrect, r.lrTotal);
    EXPECT_LE(r.lmCorrect, r.lmTotal);
    EXPECT_LE(r.allDataIters, r.lmIters);
    EXPECT_LE(r.allLmIters, r.lmIters);
    EXPECT_LE(r.allLrIters, r.modalIters);
}

// --- Flat per-iteration tables: cap boundaries and reuse ---------------

/** Ten iterations, each storing @p stores distinct addresses and then
 *  loading one address it never stores. */
Program
storesThenLoad(int stores)
{
    ProgramBuilder b("t", 4096);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 10);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        for (int k = 0; k < stores; ++k) {
            b.li(r3, 100 + k);
            b.st(r1, r3, 0);
        }
        b.ld(r4, r0, 200);
    });
    b.halt();
    return b.build();
}

TEST(DataSpecTables, IterationAtWrittenSetCapKeepsMemoryStats)
{
    DataSpecConfig cfg;
    cfg.writtenSetCap = 8;
    DataSpecReport at_cap = profileBoth(storesThenLoad(8), cfg);
    EXPECT_GT(at_cap.modalIters, 0u);
    EXPECT_EQ(at_cap.lmIters, at_cap.modalIters);
    EXPECT_EQ(at_cap.lmTotal, at_cap.lmIters);

    DataSpecReport over_cap = profileBoth(storesThenLoad(9), cfg);
    EXPECT_GT(over_cap.modalIters, 0u);
    EXPECT_EQ(over_cap.lmIters, 0u);
    EXPECT_EQ(over_cap.lmTotal, 0u);
}

TEST(DataSpecTables, RepeatedStoresToOneAddressCountOnce)
{
    // Five stores to one address plus one to another: two distinct
    // addresses, so a cap of 2 is not exceeded.
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 10);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        for (int k = 0; k < 5; ++k)
            b.st(r1, r0, 300);
        b.st(r1, r0, 301);
        b.ld(r4, r0, 200);
    });
    b.halt();
    DataSpecConfig cfg;
    cfg.writtenSetCap = 2;
    DataSpecReport r = profileBoth(b.build(), cfg);
    EXPECT_GT(r.modalIters, 0u);
    EXPECT_EQ(r.lmIters, r.modalIters);
    EXPECT_EQ(r.lmTotal, r.lmIters);
}

TEST(DataSpecTables, MaxLoadPcsCapsTheLiveInLoads)
{
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 10);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        for (int k = 0; k < 4; ++k)
            b.ld(r4, r0, 200 + k); // four static load PCs
    });
    b.halt();
    Program prog = b.build();

    DataSpecReport all = profileBoth(prog);
    EXPECT_GT(all.lmIters, 0u);
    EXPECT_EQ(all.lmTotal, 4 * all.lmIters);

    DataSpecConfig cfg;
    cfg.maxLoadPcs = 2;
    DataSpecReport capped = profileBoth(prog, cfg);
    EXPECT_EQ(capped.lmIters, all.lmIters);
    EXPECT_EQ(capped.lmTotal, 2 * capped.lmIters);
}

TEST(DataSpecTables, SecondLoadOfAPcKeepsTheFirstAddressAndValue)
{
    // One static load (in `get`) runs twice per iteration: first at
    // a[i] (address strided), then at a scrambled address. Only the
    // first instance is the live-in, so prediction succeeds.
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 60);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.addi(r6, r1, 64);
        b.call("get");
        b.mul(r7, r1, r1);
        b.andi(r7, r7, 127);
        b.addi(r6, r7, 300);
        b.call("get");
    });
    b.halt();
    b.beginFunction("get");
    b.ld(r4, r6, 0);
    b.ret();
    DataSpecReport r = profileBoth(b.build());
    EXPECT_GT(r.lmIters, 0u);
    EXPECT_EQ(r.lmTotal, r.lmIters); // one live-in load PC
    EXPECT_GT(r.lmPredPct(), 85.0);
}

TEST(DataSpecTables, SmallIterationAfterLargeSeesNoStaleEntries)
{
    // Every third iteration is large: it stores 100 distinct addresses
    // (X among them) and loads from 20 PCs. The others only load X,
    // which they never store, so X must be a live-in of every one of
    // them — a stale written-set entry would hide it.
    ProgramBuilder b("t", 2048);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 60);
    b.li(r9, 3);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.rem(r3, r1, r9);
        b.ifElse([&](Label e) { b.bne(r3, r0, e); },
                 [&]() {
                     for (int k = 0; k < 100; ++k)
                         b.st(r1, r0, 200 + k); // X = 200
                     for (int k = 0; k < 20; ++k)
                         b.ld(r4, r0, 1000 + k);
                 },
                 [&]() { b.ld(r5, r0, 200); });
    });
    b.halt();
    Program prog = b.build();

    for (size_t cap : {size_t{4096}, size_t{50}}) {
        SCOPED_TRACE(cap); // 50: the large iterations overflow
        DataSpecConfig cfg;
        cfg.writtenSetCap = cap;
        DataSpecReport r = profileBoth(prog, cfg);
        EXPECT_GE(r.modalIters, 35u); // the small iterations' path
        EXPECT_EQ(r.lmIters, r.modalIters);
        EXPECT_EQ(r.lmTotal, r.lmIters);
    }
}

/** Outer loop whose inner loop stores a[200 + j] for j = 0..4,
 *  followed (in the outer body) by a load of @p outer_addr. */
Program
innerStoresOuterLoad(int64_t outer_addr)
{
    ProgramBuilder b("t", 512);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 10);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.li(r3, 0);
        b.li(r4, 5);
        b.countedLoop(r3, r4, [&](const LoopCtx &) {
            b.st(r3, r3, 200);
        });
        b.ld(r5, r0, outer_addr);
    });
    b.halt();
    return b.build();
}

TEST(DataSpecTables, InnerLoopStoreHidesLaterOuterLoad)
{
    // The outer frame sees the inner loop's stores: a[203] is written
    // by the inner loop's fourth iteration — while the inner execution
    // is live in the CLS — so the outer load of it is no live-in. The
    // load is the program's only one.
    DataSpecReport hidden = profileBoth(innerStoresOuterLoad(203));
    EXPECT_GT(hidden.lmIters, 0u);
    EXPECT_EQ(hidden.lmTotal, 0u);

    DataSpecReport visible = profileBoth(innerStoresOuterLoad(210));
    EXPECT_GT(visible.lmTotal, 0u);
}

// --- Live-in predictors wrap modulo 2^64 ---------------------------------

uint64_t
fnvMix(uint64_t h, uint64_t v)
{
    return (h ^ v) * 0x100000001b3ull;
}

TEST(LiveInWrap, RegisterPredictorStridesAcrossInt64Extremes)
{
    constexpr int64_t lo = std::numeric_limits<int64_t>::min();
    constexpr int64_t hi = std::numeric_limits<int64_t>::max();

    LiveInPredictor p;
    p.observe(hi);
    p.observe(lo); // lo - hi wraps to +1
    EXPECT_EQ(p.strideValue(), 1);
    EXPECT_EQ(p.predicted(), lo + 1);
    EXPECT_TRUE(p.predictCorrect(lo + 1));

    p.observe(hi); // hi - lo wraps to -1
    EXPECT_EQ(p.strideValue(), -1);
    EXPECT_EQ(p.predicted(), hi - 1);
    EXPECT_FALSE(p.predictCorrect(lo));
    uint64_t h = 0xcbf29ce484222325ull;
    h = fnvMix(h, static_cast<uint64_t>(hi));
    h = fnvMix(h, static_cast<uint64_t>(-1));
    h = fnvMix(h, 2);
    EXPECT_EQ(p.stateHash(), h);

    // Stride +1 through the wrap point stays predicted at every step.
    LiveInPredictor q;
    q.observe(hi - 2);
    q.observe(hi - 1);
    EXPECT_TRUE(q.predictCorrect(hi));
    q.observe(hi);
    EXPECT_EQ(q.predicted(), lo);
    EXPECT_TRUE(q.predictCorrect(lo));
    q.observe(lo);
    EXPECT_TRUE(q.predictCorrect(lo + 1));
    h = 0xcbf29ce484222325ull;
    h = fnvMix(h, static_cast<uint64_t>(lo));
    h = fnvMix(h, 1);
    h = fnvMix(h, 2);
    EXPECT_EQ(q.stateHash(), h);
}

TEST(LiveInWrap, MemoryPredictorValueStridesAcrossInt64Extremes)
{
    constexpr int64_t lo = std::numeric_limits<int64_t>::min();
    constexpr int64_t hi = std::numeric_limits<int64_t>::max();

    LiveInMemPredictor p;
    p.observe(100, hi);
    p.observe(108, lo); // value stride wraps to +1
    EXPECT_TRUE(p.predictCorrect(116, lo + 1));
    EXPECT_FALSE(p.predictCorrect(116, lo));
    p.observe(116, hi); // value stride wraps to hi - lo = -1
    EXPECT_TRUE(p.predictCorrect(124, hi - 1));

    uint64_t h = 0xcbf29ce484222325ull;
    h = fnvMix(h, 116);
    h = fnvMix(h, 8);
    h = fnvMix(h, static_cast<uint64_t>(hi));
    h = fnvMix(h, static_cast<uint64_t>(-1));
    h = fnvMix(h, 2);
    EXPECT_EQ(p.stateHash(), h);
}

} // namespace
} // namespace loopspec
