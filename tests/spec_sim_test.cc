/** @file Tests for the multithreaded TU simulator: closed-form scenarios,
 *  policy behaviours, conservation invariants. */

#include <gtest/gtest.h>

#include <map>

#include "dataspec/conflict_profiler.hh"
#include "harness/runner.hh"
#include "speculation/spec_sim.hh"
#include "speculation/sweep.hh"
#include "tests/test_util.hh"
#include "workloads/workload.hh"

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

SpecStats
simulate(const LoopEventRecording &rec, unsigned tus, SpecPolicy policy,
         unsigned nest = 3)
{
    SpecConfig cfg;
    cfg.numTUs = tus;
    cfg.policy = policy;
    cfg.nestLimit = nest;
    return ThreadSpecSimulator(rec, cfg).run();
}

using test::flatLoop;
using test::nestedLoops;

TEST(SpecSim, OneTuIsSequential)
{
    LoopEventRecording rec = record(flatLoop(50, 4));
    SpecStats s = simulate(rec, 1, SpecPolicy::Idle);
    EXPECT_EQ(s.cycles, s.totalInstrs);
    EXPECT_EQ(s.specEvents, 0u);
    EXPECT_DOUBLE_EQ(s.tpc(), 1.0);
}

TEST(SpecSim, FlatLoopTpcByTuCount)
{
    LoopEventRecording rec = record(flatLoop(400, 4));
    double t2 = simulate(rec, 2, SpecPolicy::Idle).tpc();
    double t4 = simulate(rec, 4, SpecPolicy::Idle).tpc();
    double t8 = simulate(rec, 8, SpecPolicy::Idle).tpc();
    // Burst-refill steady state: ~2 on 2 TUs, ~3 on 4, ~7 on 8.
    EXPECT_NEAR(t2, 2.0, 0.15);
    EXPECT_NEAR(t4, 3.0, 0.2);
    EXPECT_NEAR(t8, 7.0, 0.5);
    EXPECT_LT(t2, t4);
    EXPECT_LT(t4, t8);
}

TEST(SpecSim, PhantomAccountingExact)
{
    // Trip-5 loop, one execution, 8 TUs, IDLE: the detection-time burst
    // speculates iterations 3..9; 3,4,5 are real, 6..9 are phantoms
    // squashed at the execution's end.
    LoopEventRecording rec = record(flatLoop(5, 4));
    SpecStats s = simulate(rec, 8, SpecPolicy::Idle);
    EXPECT_EQ(s.threadsSpeculated, 7u);
    EXPECT_EQ(s.threadsVerified, 3u);
    EXPECT_EQ(s.threadsSquashed, 4u);
    EXPECT_NEAR(s.hitRatio(), 3.0 / 7.0, 1e-9);
}

TEST(SpecSim, StrLearnsConstantTrips)
{
    // After the inner loop's first execution, STR knows its trip count
    // and stops creating phantoms; IDLE keeps wasting TUs.
    LoopEventRecording rec = record(nestedLoops(40, 6, 3));
    SpecStats idle = simulate(rec, 8, SpecPolicy::Idle);
    SpecStats str = simulate(rec, 8, SpecPolicy::Str);
    EXPECT_GT(str.hitRatio(), idle.hitRatio());
    EXPECT_GT(str.hitRatio(), 0.8);
}

TEST(SpecSim, StrMatchesIdleWhenNothingKnown)
{
    // A single execution gives STR no history: it must behave exactly
    // like IDLE.
    LoopEventRecording rec = record(flatLoop(100, 5));
    SpecStats idle = simulate(rec, 4, SpecPolicy::Idle);
    SpecStats str = simulate(rec, 4, SpecPolicy::Str);
    EXPECT_EQ(idle.cycles, str.cycles);
    EXPECT_EQ(idle.threadsSpeculated, str.threadsSpeculated);
}

TEST(SpecSim, VerificationDistanceIsIterationLength)
{
    // On 2 TUs every verified thread was speculated exactly one
    // iteration ahead.
    constexpr uint64_t iter_len = 6; // 4 nops + addi + blt
    LoopEventRecording rec = record(flatLoop(100, 4));
    SpecStats s = simulate(rec, 2, SpecPolicy::Idle);
    EXPECT_NEAR(s.avgInstrToVerif(), static_cast<double>(iter_len), 0.5);
}

TEST(SpecSim, NestRuleSquashesOnlyUnderStrI)
{
    LoopEventRecording rec = record(nestedLoops(30, 8, 2));
    EXPECT_EQ(simulate(rec, 4, SpecPolicy::Idle).squashedByNestRule, 0u);
    EXPECT_EQ(simulate(rec, 4, SpecPolicy::Str).squashedByNestRule, 0u);
}

TEST(SpecSim, TighterNestLimitSquashesMore)
{
    // 4-level nest: STR(1) tolerates fewer live non-speculated inner
    // loops than STR(3).
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    std::function<void(int)> nest = [&](int level) {
        Reg idx{static_cast<uint8_t>(1 + 2 * level)};
        Reg bnd{static_cast<uint8_t>(2 + 2 * level)};
        b.li(idx, 0);
        b.li(bnd, 4);
        b.countedLoop(idx, bnd, [&](const LoopCtx &) {
            if (level < 3)
                nest(level + 1);
            else
                b.nop();
        });
    };
    nest(0);
    b.halt();
    LoopEventRecording rec = record(b.build());
    SpecStats s1 = simulate(rec, 4, SpecPolicy::StrI, 1);
    SpecStats s3 = simulate(rec, 4, SpecPolicy::StrI, 3);
    EXPECT_GE(s1.squashedByNestRule, s3.squashedByNestRule);
}

TEST(SpecSim, ConservationInvariants)
{
    LoopEventRecording rec = record(nestedLoops(25, 7, 3));
    for (unsigned tus : {2u, 4u, 8u, 16u}) {
        for (SpecPolicy pol :
             {SpecPolicy::Idle, SpecPolicy::Str, SpecPolicy::StrI}) {
            SpecStats s = simulate(rec, tus, pol);
            EXPECT_EQ(s.threadsSpeculated,
                      s.threadsVerified + s.threadsSquashed);
            EXPECT_LE(s.cycles, s.totalInstrs);
            EXPECT_GE(s.tpc(), 1.0);
            EXPECT_LE(s.tpc(), static_cast<double>(tus) + 1e-9);
            EXPECT_EQ(s.totalInstrs, rec.totalInstrs);
        }
    }
}

TEST(SpecSim, MoreTusNeverSlower)
{
    LoopEventRecording rec = record(nestedLoops(20, 10, 4));
    uint64_t prev = UINT64_MAX;
    for (unsigned tus : {1u, 2u, 4u, 8u}) {
        uint64_t cycles = simulate(rec, tus, SpecPolicy::Str).cycles;
        EXPECT_LE(cycles, prev) << tus << " TUs";
        prev = cycles;
    }
}

TEST(SpecSim, EmptyRecordingIsSequential)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    for (int i = 0; i < 50; ++i)
        b.nop();
    b.halt();
    LoopEventRecording rec = record(b.build());
    SpecStats s = simulate(rec, 8, SpecPolicy::Idle);
    EXPECT_EQ(s.cycles, s.totalInstrs);
    EXPECT_EQ(s.specEvents, 0u);
}

TEST(SpecSimData, NoneModeIgnoresAnnotations)
{
    LoopEventRecording rec = record(flatLoop(100, 4));
    for (auto &x : rec.execs)
        x.iterLiveInOk.assign(x.iterCount, false); // everything "wrong"
    SpecConfig none{4, SpecPolicy::Idle, 3, DataMode::None};
    SpecConfig live{4, SpecPolicy::Idle, 3, DataMode::LiveIns};
    SpecStats sn = ThreadSpecSimulator(rec, none).run();
    SpecStats sp = ThreadSpecSimulator(rec, live).run();
    EXPECT_EQ(sn.dataMisses, 0u);
    EXPECT_GT(sp.dataMisses, 0u);
    EXPECT_LT(sn.cycles, sp.cycles);
}

TEST(SpecSimData, AllCorrectMatchesControlOnly)
{
    LoopEventRecording rec = record(flatLoop(100, 4));
    for (auto &x : rec.execs)
        x.iterLiveInOk.assign(x.iterCount, true);
    SpecConfig none{4, SpecPolicy::Idle, 3, DataMode::None};
    SpecConfig live{4, SpecPolicy::Idle, 3, DataMode::LiveIns};
    SpecStats sn = ThreadSpecSimulator(rec, none).run();
    SpecStats sp = ThreadSpecSimulator(rec, live).run();
    EXPECT_EQ(sp.dataMisses, 0u);
    EXPECT_EQ(sn.cycles, sp.cycles);
    EXPECT_EQ(sn.threadsVerified, sp.threadsVerified);
}

TEST(SpecSimData, AllWrongDegradesToSequential)
{
    // Every thread is squashed at verification: the front executes
    // everything itself.
    LoopEventRecording rec = record(flatLoop(200, 4));
    for (auto &x : rec.execs)
        x.iterLiveInOk.assign(x.iterCount, false);
    SpecConfig live{8, SpecPolicy::Idle, 3, DataMode::LiveIns};
    SpecStats s = ThreadSpecSimulator(rec, live).run();
    EXPECT_EQ(s.threadsVerified, 0u);
    EXPECT_NEAR(s.tpc(), 1.0, 0.01);
    EXPECT_EQ(s.threadsSpeculated,
              s.threadsVerified + s.threadsSquashed);
}

TEST(SpecSimData, UnannotatedIsConservativelyWrong)
{
    LoopEventRecording rec = record(flatLoop(100, 4));
    // Leave iterLiveInOk empty.
    SpecConfig live{4, SpecPolicy::Idle, 3, DataMode::LiveIns};
    SpecStats s = ThreadSpecSimulator(rec, live).run();
    EXPECT_EQ(s.threadsVerified, 0u);
    EXPECT_GT(s.dataMisses, 0u);
}

TEST(SpecSimData, PartialCorrectnessIsProportional)
{
    // Alternate correct/wrong iterations: roughly half the threads
    // commit; TPC sits strictly between sequential and control-only.
    LoopEventRecording rec = record(flatLoop(300, 4));
    for (auto &x : rec.execs) {
        x.iterLiveInOk.resize(x.iterCount);
        for (uint32_t j = 0; j < x.iterCount; ++j)
            x.iterLiveInOk[j] = (j % 2) == 0;
    }
    SpecConfig none{4, SpecPolicy::Idle, 3, DataMode::None};
    SpecConfig live{4, SpecPolicy::Idle, 3, DataMode::LiveIns};
    double control = ThreadSpecSimulator(rec, none).run().tpc();
    SpecStats s = ThreadSpecSimulator(rec, live).run();
    EXPECT_GT(s.tpc(), 1.1);
    EXPECT_LT(s.tpc(), control);
    EXPECT_GT(s.dataMisses, 0u);
    EXPECT_GT(s.threadsVerified, 0u);
}

// --- Profiled memory-conflict squashes (docs/DATASPEC.md) -----------------

/** Functional pass with the memory sidecar attached, optionally running
 *  the conflict profiler and writing its annotation back. */
LoopEventRecording
recordWithConflicts(const Program &prog, bool annotate)
{
    TraceEngine engine(prog);
    LoopDetector det({16});
    LoopEventRecorder rec;
    MemTraceRecorder mem;
    det.addListener(&rec);
    engine.addObserver(&det);
    engine.addObserver(&mem);
    engine.run();
    LoopEventRecording recording = rec.take();
    MemAccessTrace mtrace = mem.take();
    if (annotate)
        annotateConflicts(&recording, profileConflicts(recording, mtrace));
    return recording;
}

SpecStats
simulateData(const LoopEventRecording &rec, unsigned tus, DataMode dm,
             unsigned cost = 0)
{
    SpecConfig cfg{tus, SpecPolicy::Str, 3, dm};
    cfg.dataSquashCycles = cost;
    return ThreadSpecSimulator(rec, cfg).run();
}

TEST(SpecSimConflicts, NoneModeIgnoresConflictAnnotations)
{
    // The data-off bit-identity contract: annotations may ride the
    // recording, but DataMode::None must not read them — every counter
    // identical to the unannotated run, across the policy/TU grid.
    Program prog = buildWorkload("synth.memdep", {0.05});
    LoopEventRecording plain = recordWithConflicts(prog, false);
    LoopEventRecording annotated = recordWithConflicts(prog, true);
    for (auto &x : annotated.execs) // live-in flags must be inert too
        x.iterLiveInOk.assign(x.iterCount, false);
    for (unsigned tus : {2u, 4u, 8u}) {
        for (SpecPolicy pol :
             {SpecPolicy::Idle, SpecPolicy::Str, SpecPolicy::StrI}) {
            SCOPED_TRACE(static_cast<int>(pol) * 100 + tus);
            SpecConfig cfg{tus, pol, 3, DataMode::None};
            SpecStats a = ThreadSpecSimulator(plain, cfg).run();
            SpecStats b = ThreadSpecSimulator(annotated, cfg).run();
            EXPECT_TRUE(a == b);
            EXPECT_EQ(b.conflictSquashes, 0u);
            EXPECT_EQ(b.dataMisses, 0u);
        }
    }
}

TEST(SpecSimConflicts, ConservationHoldsUnderConflictSquashes)
{
    // Squash accounting stays conserved when the violation cascade and
    // its recovery penalty are active. No cycles <= totalInstrs or
    // tpc >= 1 claims here: dataSquashCycles legitimately stalls the
    // front past the sequential-execution bound.
    LoopEventRecording rec =
        recordWithConflicts(buildWorkload("synth.memdep", {0.05}), true);
    bool any_conflict = false;
    for (unsigned tus : {2u, 4u, 8u}) {
        for (DataMode dm : {DataMode::Conflicts, DataMode::Full}) {
            for (unsigned cost : {0u, 30u}) {
                SCOPED_TRACE(static_cast<int>(dm) * 1000 + tus * 100 +
                             cost);
                SpecStats s = simulateData(rec, tus, dm, cost);
                EXPECT_EQ(s.threadsSpeculated,
                          s.threadsVerified + s.threadsSquashed);
                EXPECT_LE(s.conflictSquashes + s.dataMisses,
                          s.threadsSquashed);
                EXPECT_LE(s.tpc(), static_cast<double>(tus) + 1e-9);
                EXPECT_EQ(s.totalInstrs, rec.totalInstrs);
                // Conflicts mode assumes perfect live-in prediction:
                // only the memory source may fire.
                if (dm == DataMode::Conflicts) {
                    EXPECT_EQ(s.dataMisses, 0u);
                }
                any_conflict |= s.conflictSquashes > 0;
            }
        }
    }
    EXPECT_TRUE(any_conflict) << "adversarial workload never conflicted";
}

TEST(SpecSimConflicts, ProfiledConflictsCutPhantomTpcOnMemdep)
{
    // The adversarial substrate: synth.memdep's loop-carried recurrences
    // make most cross-iteration spawns violate, so the §3 control-only
    // TPC is largely phantom parallelism and the Conflicts mode must
    // take a measurable bite out of it.
    LoopEventRecording rec =
        recordWithConflicts(buildWorkload("synth.memdep", {0.05}), true);
    double control = simulateData(rec, 4, DataMode::None).tpc();
    SpecStats s = simulateData(rec, 4, DataMode::Conflicts, 20);
    EXPECT_GT(control, 1.3) << "substrate lost its control-mode headroom";
    EXPECT_GT(s.conflictSquashes, 0u);
    EXPECT_LT(s.tpc(), control - 0.2);
}

TEST(SpecSimConflicts, FullModeLayersLiveInMissesOverConflicts)
{
    LoopEventRecording rec =
        recordWithConflicts(buildWorkload("synth.memdep", {0.05}), true);

    // Perfect live-in prediction: Full degenerates to Conflicts,
    // counter for counter.
    for (auto &x : rec.execs)
        x.iterLiveInOk.assign(x.iterCount, true);
    SpecStats conflicts = simulateData(rec, 4, DataMode::Conflicts, 10);
    SpecStats full_ok = simulateData(rec, 4, DataMode::Full, 10);
    EXPECT_TRUE(conflicts == full_ok);
    EXPECT_EQ(full_ok.dataMisses, 0u);

    // Unpredictable live-ins add the second squash source on top.
    for (auto &x : rec.execs)
        x.iterLiveInOk.assign(x.iterCount, false);
    SpecStats full_bad = simulateData(rec, 4, DataMode::Full, 10);
    EXPECT_GT(full_bad.dataMisses, 0u);
    EXPECT_GE(full_bad.cycles, full_ok.cycles);
    EXPECT_EQ(full_bad.threadsSpeculated,
              full_bad.threadsVerified + full_bad.threadsSquashed);
}

TEST(SpecSimConflicts, LiveInsModeIsFullWithoutConflicts)
{
    // The data modes are orthogonal: with the conflict annotation
    // removed, Full's only squash source is its live-in check, so it
    // must equal LiveIns counter for counter — cascade and recovery
    // penalty included — whatever the live-in flags say.
    LoopEventRecording rec =
        recordWithConflicts(buildWorkload("synth.memdep", {0.05}), true);
    for (auto &x : rec.execs)
        x.iterDepSrc.clear();
    for (bool predicted : {true, false}) {
        for (auto &x : rec.execs)
            x.iterLiveInOk.assign(x.iterCount, predicted);
        for (unsigned tus : {2u, 4u, 8u}) {
            for (unsigned cost : {0u, 20u}) {
                SCOPED_TRACE(predicted * 1000 + tus * 100 + cost);
                SpecStats live =
                    simulateData(rec, tus, DataMode::LiveIns, cost);
                SpecStats full = simulateData(rec, tus, DataMode::Full, cost);
                EXPECT_TRUE(live == full);
                EXPECT_EQ(live.conflictSquashes, 0u);
                if (predicted) {
                    EXPECT_EQ(live.dataMisses, 0u);
                } else {
                    EXPECT_GT(live.dataMisses, 0u);
                }
            }
        }
    }
}

TEST(SpecSimConflicts, DataCostChargesRecoveryCycles)
{
    LoopEventRecording rec =
        recordWithConflicts(buildWorkload("synth.memdep", {0.05}), true);
    SpecStats free_recovery = simulateData(rec, 4, DataMode::Conflicts, 0);
    SpecStats paid = simulateData(rec, 4, DataMode::Conflicts, 50);
    ASSERT_GT(free_recovery.conflictSquashes, 0u);
    ASSERT_GT(paid.conflictSquashes, 0u);
    EXPECT_GT(paid.cycles, free_recovery.cycles);
    EXPECT_LT(paid.tpc(), free_recovery.tpc());
}

TEST(SpecSimConflicts, MalformedDataspecGridSpecsAreRejected)
{
    // applyGridSpec is the shared wire/CLI parser: malformed dataspec
    // and datacost axes must come back as diagnostics, never as a grid.
    for (const char *spec :
         {"policies=str;tus=2;dataspec=bogus",
          "policies=str;tus=2;dataspec=",
          "policies=str;tus=2;dataspec=mem,turbo",
          "policies=str;tus=2;datacost=abc",
          "policies=str;tus=2;datacost=5,6",
          "policies=str;tus=2;datacost=2000000"}) {
        SCOPED_TRACE(spec);
        SweepGrid grid;
        EXPECT_NE(applyGridSpec(spec, &grid), "");
    }
    SweepGrid ok;
    EXPECT_EQ(applyGridSpec("policies=str;tus=2;dataspec=none,mem;"
                            "datacost=8",
                            &ok),
              "");
    ASSERT_EQ(ok.policies.size(), 2u);
    EXPECT_EQ(ok.dataSquashCycles, 8u);
}

TEST(SpecSimConflictsDeathTest, LiveDataModesRejectMultiClsGrids)
{
    // live/all need the functional pass's live-in flags, which exist at
    // the traced CLS only — a multi-CLS grid crossed with dataspec=all
    // must die before running anything.
    RunOptions opts;
    opts.scale.factor = 0.05;
    opts.benchmarks = {"li"};
    SweepGrid grid = sweepGridFromOptions(opts);
    ASSERT_EQ(applyGridSpec("policies=str;tus=2;cls=16,8;dataspec=all",
                            &grid),
              "");
    EXPECT_EXIT(runSpecSweep(grid, 1), testing::ExitedWithCode(1),
                "single-CLS");
}

TEST(SpecSimReplay, ReplayedRecordingGivesIdenticalStats)
{
    // A recording rebuilt by replaying the loop-event stream into a
    // second recorder must drive the TU simulator to bit-identical
    // statistics — including the phantom-thread accounting inside
    // threadsSquashed — for every policy and TU count. Mixed program:
    // nests, a data-dependent break and callee loops, so phantoms,
    // nest-rule squashes and re-detections all occur.
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, 20);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.li(r3, 0);
        b.li(r4, 6);
        b.countedLoop(r3, r4, [&](const LoopCtx &ctx) {
            b.andi(r5, r1, 7);
            b.beq(r5, r3, ctx.exit);
            b.call("leaf");
        });
    });
    b.halt();
    b.beginFunction("leaf");
    b.li(r6, 0);
    b.li(r7, 4);
    b.countedLoop(r6, r7, [&](const LoopCtx &) { b.nop(); });
    b.ret();
    LoopEventRecording direct = record(b.build());

    LoopEventRecorder second;
    replayLoopEvents(direct, {&second});
    LoopEventRecording replayed = second.take();

    for (unsigned tus : {2u, 4u, 8u}) {
        for (SpecPolicy pol :
             {SpecPolicy::Idle, SpecPolicy::Str, SpecPolicy::StrI}) {
            SCOPED_TRACE(static_cast<int>(pol) * 100 + tus);
            SpecStats a = simulate(direct, tus, pol);
            SpecStats r = simulate(replayed, tus, pol);
            EXPECT_EQ(a.totalInstrs, r.totalInstrs);
            EXPECT_EQ(a.cycles, r.cycles);
            EXPECT_EQ(a.specEvents, r.specEvents);
            EXPECT_EQ(a.threadsSpeculated, r.threadsSpeculated);
            EXPECT_EQ(a.threadsVerified, r.threadsVerified);
            EXPECT_EQ(a.threadsSquashed, r.threadsSquashed);
            EXPECT_EQ(a.squashedByNestRule, r.squashedByNestRule);
            EXPECT_EQ(a.dataMisses, r.dataMisses);
            EXPECT_EQ(a.instrToVerifSum, r.instrToVerifSum);
        }
    }

    // The phantom burst of PhantomAccountingExact must survive a replay
    // round-trip exactly, too.
    LoopEventRecording flat = record(flatLoop(5, 4));
    LoopEventRecorder second_flat;
    replayLoopEvents(flat, {&second_flat});
    SpecStats s = simulate(second_flat.take(), 8, SpecPolicy::Idle);
    EXPECT_EQ(s.threadsSpeculated, 7u);
    EXPECT_EQ(s.threadsVerified, 3u);
    EXPECT_EQ(s.threadsSquashed, 4u);
}

// --- Per-loop spawn-confidence throttling (docs/PREDICTORS.md) ------------

/** Inner loop whose trip count alternates 2, 9, 2, 9 with the outer
 *  parity: the LET stride flips sign every execution, so STR's
 *  last-count predictions are wrong on every single execution — the
 *  adversarial case the throttle exists for. */
Program
alternatingTripProgram(int64_t outer_trips = 80)
{
    ProgramBuilder b("t", 0);
    b.beginFunction("main");
    b.li(r1, 0);
    b.li(r2, outer_trips);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.andi(r3, r1, 1);
        b.muli(r4, r3, 7);
        b.addi(r4, r4, 2); // inner bound: 2 or 9
        b.li(r5, 0);
        b.countedLoop(r5, r4, [&](const LoopCtx &) { b.nop(); });
    });
    b.halt();
    return b.build();
}

SpecStats
simulateThrottled(const LoopEventRecording &rec, unsigned tus,
                  unsigned bits, unsigned threshold)
{
    SpecConfig cfg;
    cfg.numTUs = tus;
    cfg.policy = SpecPolicy::Str;
    cfg.spawnConfidenceBits = bits;
    cfg.spawnConfidenceThreshold = threshold;
    return ThreadSpecSimulator(rec, cfg).run();
}

TEST(SpecSimThrottle, AdversarialLoopStopsSpawning)
{
    LoopEventRecording rec = record(alternatingTripProgram());
    SpecStats baseline = simulateThrottled(rec, 8, 0, 2);
    SpecStats throttled = simulateThrottled(rec, 8, 2, 2);

    // Untrottled STR mispredicts every inner execution: big squash
    // bill, and no vetoes because the throttle is off.
    EXPECT_EQ(baseline.spawnsThrottled, 0u);
    EXPECT_GT(baseline.threadsSquashed, 50u);

    // With a 2-bit counter the loop's confidence decays after the first
    // few squash bursts and stays down (its predictions never come
    // true, so the recovery path cannot retrain it): spawning stops.
    EXPECT_GT(throttled.spawnsThrottled, 0u);
    EXPECT_LT(throttled.threadsSquashed, baseline.threadsSquashed / 2);
    EXPECT_LT(throttled.threadsSpeculated, baseline.threadsSpeculated);
    EXPECT_GE(throttled.hitRatio(), baseline.hitRatio());
    EXPECT_EQ(throttled.threadsSpeculated,
              throttled.threadsVerified + throttled.threadsSquashed);
}

TEST(SpecSimThrottle, DisabledThrottleIsBitIdenticalToStr)
{
    // spawnConfidenceBits == 0 must leave every counter — not just the
    // averages — exactly as plain STR produces it, on the program built
    // to stress the throttle.
    LoopEventRecording rec = record(alternatingTripProgram());
    for (unsigned tus : {2u, 4u, 8u}) {
        SCOPED_TRACE(tus);
        SpecStats str = simulate(rec, tus, SpecPolicy::Str);
        SpecStats off = simulateThrottled(rec, tus, 0, 7);
        EXPECT_TRUE(str == off);
    }
}

TEST(SpecSimThrottle, WellPredictedLoopIsUntouched)
{
    // A constant-trip flat loop keeps its confidence at the rail (the
    // one phantom burst at the end can't push it below threshold), so
    // throttling on vs off is bit-identical — including zero vetoes.
    LoopEventRecording rec = record(flatLoop(400, 4));
    SpecStats str = simulate(rec, 8, SpecPolicy::Str);
    SpecStats throttled = simulateThrottled(rec, 8, 2, 2);
    EXPECT_EQ(throttled.spawnsThrottled, 0u);
    EXPECT_TRUE(str == throttled);
}

TEST(SpecSimThrottle, ThrottledSweepBitIdenticalAcrossJobs)
{
    RunOptions opts;
    opts.scale.factor = 0.25;
    opts.benchmarks = {"compress"};
    SweepGrid grid = sweepGridFromOptions(opts);
    ASSERT_EQ(applyGridSpec("policies=idle,str;tus=2,8;cls=8;"
                            "spawnconf=3/7",
                            &grid),
              "");
    ASSERT_EQ(grid.spawnConfidenceBits, 3u);
    ASSERT_EQ(grid.spawnConfidenceThreshold, 7u);

    SweepResult serial = runSpecSweep(grid, 1);
    uint64_t vetoes = 0;
    for (const SweepCell &cell : serial.cells)
        vetoes += cell.stats.spawnsThrottled;
    EXPECT_GT(vetoes, 0u); // the axis reached the simulator

    for (unsigned jobs : {2u, 5u, 8u}) {
        SCOPED_TRACE(jobs);
        SweepResult r = runSpecSweep(grid, jobs);
        ASSERT_EQ(r.cells.size(), serial.cells.size());
        for (size_t i = 0; i < r.cells.size(); ++i)
            EXPECT_TRUE(r.cells[i].stats == serial.cells[i].stats);
    }
}

TEST(SpecSimThrottleDeathTest, RejectsBadThresholds)
{
    LoopEventRecording rec = record(flatLoop(5, 4));
    SpecConfig cfg;
    cfg.policy = SpecPolicy::Str;
    cfg.spawnConfidenceBits = 2;
    cfg.spawnConfidenceThreshold = 4; // == 2^bits: unreachable
    EXPECT_DEATH(ThreadSpecSimulator(rec, cfg), "");
    cfg.spawnConfidenceThreshold = 0; // never throttles: surely a typo
    EXPECT_DEATH(ThreadSpecSimulator(rec, cfg), "");
    cfg.spawnConfidenceBits = 9; // wider than the uint8_t counters
    cfg.spawnConfidenceThreshold = 2;
    EXPECT_DEATH(ThreadSpecSimulator(rec, cfg), "");
}

/** One grid of the golden pin: its axis spec, the cell-stat digest
 *  the simulator produced when the pin was taken, and the SpecStats
 *  counter the grid must drive non-zero (so the digest covers the code
 *  path the grid is there for). */
struct GoldenGrid
{
    const char *spec;
    uint64_t digest;
    uint64_t SpecStats::*exercised;
};

/** FNV-1a over every SpecStats counter of every cell, in cell order. */
uint64_t
digestCells(const SweepResult &r)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(r.cells.size());
    for (const SweepCell &c : r.cells) {
        const SpecStats &s = c.stats;
        for (uint64_t v :
             {s.totalInstrs, s.cycles, s.specEvents, s.threadsSpeculated,
              s.threadsVerified, s.threadsSquashed, s.squashedByNestRule,
              s.dataMisses, s.conflictSquashes, s.instrToVerifSum,
              s.spawnsThrottled})
            mix(v);
    }
    return h;
}

TEST(SpecSimGolden, CellStatsMatchPinnedDigests)
{
    // Pins every counter of every cell. A change to the simulator's
    // internals (its tables, queues, lookups) must leave these digests
    // unchanged; a deliberate model change re-captures them from the
    // printed values. cls=16,4 drives CLS overflows (live executions
    // with equal recorded depths); let=4 is the address-keyed bounded
    // trip predictor.
    const GoldenGrid grids[] = {
        {"policies=idle,str,str1,str2,str3;tus=2,4,8,16;cls=16,4",
         0x98ffd87571b843eb, &SpecStats::squashedByNestRule},
        {"predictors=bimodal,gshare:12;tus=2,4", 0x135acc37262e38a2,
         &SpecStats::threadsVerified},
        {"policies=str,str1,idle;tus=2,4,8;let=4", 0x3509477bfa6fcd91,
         &SpecStats::threadsSquashed},
        {"policies=str,str3;tus=2,4,8,16;spawnconf=3/2",
         0xf3e51a781170022f, &SpecStats::spawnsThrottled},
        {"policies=str;tus=2,4;dataspec=live,mem,all;datacost=20",
         0x2069c7c1c030ed9e, &SpecStats::conflictSquashes},
    };
    for (const GoldenGrid &g : grids) {
        SCOPED_TRACE(g.spec);
        RunOptions opts;
        opts.scale.factor = 0.1;
        opts.benchmarks = {"compress", "li", "m88ksim", "synth.nest",
                           "synth.irregular", "synth.memdep"};
        SweepGrid grid = sweepGridFromOptions(opts);
        ASSERT_EQ(applyGridSpec(g.spec, &grid), "");
        SweepResult r = runSpecSweep(grid, 2);
        ASSERT_TRUE(grid.hasCells());
        uint64_t exercised = 0;
        for (const SweepCell &c : r.cells)
            exercised += c.stats.*g.exercised;
        EXPECT_GT(exercised, 0u);
        uint64_t digest = digestCells(r);
        EXPECT_EQ(digest, g.digest) << strprintf(
            "digest 0x%016llx", static_cast<unsigned long long>(digest));
    }
}

TEST(SpecSimIndex, DenseLoopIdsFollowFirstAppearance)
{
    LoopEventRecording rec = record(nestedLoops(6, 4));
    RecordingIndex index(rec);
    std::map<uint32_t, uint32_t> ids; // loop address -> expected id
    for (uint32_t i = 0; i < rec.execs.size(); ++i) {
        auto it = ids.emplace(rec.execs[i].loop,
                              static_cast<uint32_t>(ids.size()))
                      .first;
        EXPECT_EQ(index.loopId(i), it->second) << "exec " << i;
    }
    EXPECT_EQ(index.numLoops(), 2u);
    EXPECT_EQ(index.numLoops(), ids.size());
}

TEST(SpecSimIndex, ParentsResolveToExecIndices)
{
    // The detector's exec ids are consecutive; spreading them out
    // (id -> 3 * id) leaves gaps, which the index must resolve too.
    for (uint64_t spread : {1u, 3u}) {
        SCOPED_TRACE(spread);
        LoopEventRecording rec = record(nestedLoops(6, 4));
        for (ExecRecord &x : rec.execs) {
            x.execId *= spread;
            x.parentExecId *= spread;
        }
        RecordingIndex index(rec);
        unsigned nested = 0;
        for (uint32_t i = 0; i < rec.execs.size(); ++i) {
            uint32_t p = index.parent(i);
            if (rec.execs[i].parentExecId == 0) {
                EXPECT_EQ(p, RecordingIndex::noParent);
                continue;
            }
            ASSERT_NE(p, RecordingIndex::noParent);
            EXPECT_EQ(rec.execs[p].execId, rec.execs[i].parentExecId);
            ++nested;
        }
        // Every inner execution but the first, which ran before the
        // outer loop was detected at the end of its first iteration.
        EXPECT_EQ(nested, 5u);
    }
}

TEST(SpecSimIndexDeathTest, RejectsUnorderedExecIds)
{
    // Parents resolve by position in the exec-id column (a probe, then
    // a binary search), which the detector fills in increasing order.
    LoopEventRecording rec = record(nestedLoops(6, 4));
    ASSERT_GE(rec.execs.size(), 2u);
    std::swap(rec.execs[0].execId, rec.execs[1].execId);
    EXPECT_DEATH(RecordingIndex{rec}, "exec ids not increasing");
}

TEST(SpecSim, RunTwiceGivesIdenticalStats)
{
    // run() starts from a cold machine every time: trip predictor,
    // squash penalties, spawn confidence and live executions.
    LoopEventRecording rec = record(nestedLoops(40, 6, 3));
    for (size_t let : {0u, 4u}) {
        SCOPED_TRACE(let);
        SpecConfig cfg{8, SpecPolicy::StrI, 1};
        cfg.letEntries = let;
        cfg.spawnConfidenceBits = 2;
        cfg.spawnConfidenceThreshold = 2;
        ThreadSpecSimulator sim(rec, cfg);
        SpecStats first = sim.run();
        SpecStats second = sim.run();
        EXPECT_GT(first.threadsVerified, 0u);
        EXPECT_TRUE(first == second);
    }
}

/** Property sweep across policies and TU counts on a mixed program. */
struct SweepParam
{
    unsigned tus;
    int policy; // 0 idle, 1 str, 2 str1, 3 str3
};

class SpecSimSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(SpecSimSweep, InvariantsHoldOnMixedProgram)
{
    // Mixed program: nests, calls, data-dependent exits.
    ProgramBuilder b("t", 4096);
    b.beginFunction("main");
    b.li(r29, 64); // spill sp (unused; leaf has no spills)
    b.li(r1, 0);
    b.li(r2, 25);
    b.countedLoop(r1, r2, [&](const LoopCtx &) {
        b.li(r3, 0);
        b.li(r4, 5);
        b.countedLoop(r3, r4, [&](const LoopCtx &ctx) {
            b.andi(r5, r1, 3);
            b.beq(r5, r3, ctx.exit); // data-dependent break
            b.call("leaf");
        });
    });
    b.halt();
    b.beginFunction("leaf");
    b.li(r6, 0);
    b.li(r7, 3);
    b.countedLoop(r6, r7, [&](const LoopCtx &) { b.nop(); });
    b.ret();
    LoopEventRecording rec = record(b.build());

    const SweepParam &p = GetParam();
    SpecPolicy pol = p.policy == 0   ? SpecPolicy::Idle
                     : p.policy == 1 ? SpecPolicy::Str
                                     : SpecPolicy::StrI;
    unsigned nest = p.policy == 2 ? 1 : 3;
    SpecStats s = simulate(rec, p.tus, pol, nest);
    EXPECT_EQ(s.threadsSpeculated, s.threadsVerified + s.threadsSquashed);
    EXPECT_GE(s.tpc(), 1.0 - 1e-9);
    EXPECT_LE(s.tpc(), static_cast<double>(p.tus) + 1e-9);
    EXPECT_LE(s.cycles, s.totalInstrs);
};

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SpecSimSweep,
    ::testing::Values(SweepParam{2, 0}, SweepParam{2, 1}, SweepParam{2, 3},
                      SweepParam{4, 0}, SweepParam{4, 1}, SweepParam{4, 2},
                      SweepParam{4, 3}, SweepParam{8, 1}, SweepParam{8, 3},
                      SweepParam{16, 1}, SweepParam{16, 0},
                      SweepParam{16, 3}));

} // namespace
} // namespace loopspec
