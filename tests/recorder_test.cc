/** @file Unit tests for the LoopEventRecorder. */

#include <gtest/gtest.h>


#include "speculation/event_record.hh"
#include "speculation/spec_sim.hh"
#include "tests/test_util.hh"

namespace loopspec
{
namespace
{

using namespace regs;

LoopEventRecording
record(const Program &prog)
{
    TraceEngine engine(prog);
    LoopDetector det({16});
    LoopEventRecorder rec;
    det.addListener(&rec);
    engine.addObserver(&det);
    engine.run();
    return rec.take();
}

/** Shared flat-loop builder (tests/test_util.hh). */
constexpr auto simpleLoop = test::flatLoop;

TEST(Recorder, SimpleLoopSegments)
{
    LoopEventRecording rec = record(simpleLoop(5, 2));
    ASSERT_EQ(rec.execs.size(), 1u);
    const ExecRecord &x = rec.execs[0];
    EXPECT_EQ(x.iterCount, 5u);
    EXPECT_EQ(x.endReason, ExecEndReason::Close);
    ASSERT_EQ(x.iterBoundaries.size(), 4u); // iterations 2..5
    // Iteration length: 2 nops + addi + blt = 4 instructions.
    const RecordingIndex index(rec);
    for (uint32_t j = 2; j <= 5; ++j) {
        auto [s, e] = index.segment(0, j);
        EXPECT_EQ(e - s, 4u) << "iteration " << j;
    }
    // Segments tile the execution contiguously.
    for (uint32_t j = 2; j < 5; ++j)
        EXPECT_EQ(index.segment(0, j).second, index.segment(0, j + 1).first);
    EXPECT_EQ(index.segment(0, 5).second, x.endBoundary);
}

TEST(Recorder, EventsAreOrderedByBoundary)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 4);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.li(r3, 0);
        b.li(r4, 3);
        b.countedLoop(r3, r4, [&](const LoopCtx &) { b.nop(); });
    });
    b.halt();
    LoopEventRecording rec = record(b.build());
    for (size_t i = 1; i < rec.events.size(); ++i)
        EXPECT_LE(rec.events[i - 1].boundary, rec.events[i].boundary);
    EXPECT_EQ(rec.execs.size(), 5u); // outer + 4 inner
}

TEST(Recorder, ParentLinksFollowNesting)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 3);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.li(r3, 0);
        b.li(r4, 3);
        b.countedLoop(r3, r4, [&](const LoopCtx &) { b.nop(); });
    });
    b.halt();
    LoopEventRecording rec = record(b.build());
    // Find the outer exec (depth 1, later detection) and check that
    // inner execs detected after it carry it as parent.
    uint64_t outer_id = 0;
    uint32_t outer_loop = 0;
    for (const auto &x : rec.execs) {
        if (x.iterCount == 3 && x.depth == 1 && x.parentExecId == 0 &&
            x.endReason == ExecEndReason::Close && outer_id == 0 &&
            x.execId != 1) {
            outer_id = x.execId;
            outer_loop = x.loop;
        }
    }
    ASSERT_NE(outer_id, 0u);
    bool found_child = false;
    for (const auto &x : rec.execs) {
        if (x.loop != outer_loop && x.parentExecId == outer_id) {
            found_child = true;
            EXPECT_EQ(x.depth, 2u);
        }
    }
    EXPECT_TRUE(found_child);
}

TEST(Recorder, TruncatedTraceClampsBoundaries)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    Label head = b.here();
    b.addi(r1, r1, 1);
    b.jmp(head);
    Program p = b.build();
    EngineConfig cfg;
    cfg.maxInstrs = 50;
    TraceEngine engine(p, cfg);
    LoopDetector det({16});
    LoopEventRecorder rec;
    det.addListener(&rec);
    engine.addObserver(&det);
    engine.run();
    LoopEventRecording r = rec.take();
    EXPECT_EQ(r.totalInstrs, 50u);
    for (const auto &e : r.events)
        EXPECT_LE(e.boundary, 50u);
    ASSERT_EQ(r.execs.size(), 1u);
    EXPECT_EQ(r.execs[0].endReason, ExecEndReason::TraceEnd);
}

} // namespace
} // namespace loopspec
