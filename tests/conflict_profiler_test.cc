/**
 * @file
 * Reference-model property tests for the data-dependence speculation
 * substrate (docs/DATASPEC.md):
 *
 *  - the memory-dependence conflict profiler against an independent
 *    std::map/std::set oracle over randomized loop-event + load/store
 *    streams (the recording built through LoopEventRecorder's
 *    callbacks, the model walking its own copy of the events): per-loop
 *    conflict sets, edge counts, violation sequences and iterDepSrc
 *    must match the model exactly, on every prefix of the access
 *    stream, and equal inputs must produce equal stateHash()es;
 *  - the edge-cap and violation-cap accounting (overflow instances keep
 *    counting, materialisation stops);
 *  - annotateConflicts sizing and copying semantics;
 *  - the injectIterOffByOne fault-injection seam (the fuzz harness's
 *    self-check must have something to catch);
 *  - the live-in value predictors (predict/live_in.hh): convergence on
 *    strided sequences, degrade/recover on stride changes, and a
 *    randomized step-by-step comparison against an inline reference
 *    state machine, stateHash checked after every update.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "dataspec/conflict_profiler.hh"
#include "dataspec/mem_trace.hh"
#include "predict/live_in.hh"
#include "speculation/event_record.hh"
#include "tests/test_util.hh"
#include "util/rng.hh"

namespace loopspec
{
namespace
{

// --- randomized scenario ------------------------------------------------

/** One loop event of a scenario, as the reference model sees it. */
struct ModelOp
{
    enum Kind
    {
        Start, //!< execution detected; iteration 2 begins
        Iter,  //!< iteration @p iter begins
        End,   //!< execution ends
    };
    Kind kind;
    uint64_t pos; //!< retire seq of the triggering instruction
    uint64_t execId;
    uint32_t loop;
    uint32_t iter;
};

/** One randomized profiler input: a structurally valid loop-event
 *  stream (balanced starts and ends, monotone positions) fed through a
 *  LoopEventRecorder's callbacks, plus an interleaved load/store stream
 *  over a small aliasing-prone address pool. The model walks @p ops,
 *  its own copy of the events. */
struct Scenario
{
    LoopEventRecording rec;
    MemAccessTrace mem;
    std::vector<ModelOp> ops;
};

Scenario
randomScenario(uint64_t seed, size_t steps = 300)
{
    Rng rng(seed);
    Scenario s;
    LoopEventRecorder recorder;

    struct Open
    {
        uint64_t execId;
        uint32_t loop;
        uint32_t iter = 2; //!< last started iteration
    };
    std::vector<Open> stack;
    uint64_t time = 1;
    uint64_t next_exec = 1;

    auto depth_of = [&](uint64_t exec_id) {
        for (size_t d = 0; d < stack.size(); ++d)
            if (stack[d].execId == exec_id)
                return static_cast<uint32_t>(d + 1);
        return 0u;
    };
    auto end_innermost = [&] {
        Open o = stack.back();
        recorder.onExecEnd(
            {time, o.execId, o.loop, o.iter, ExecEndReason::Close});
        s.ops.push_back({ModelOp::End, time, o.execId, o.loop, o.iter});
        stack.pop_back();
    };

    for (size_t i = 0; i < steps; ++i) {
        time += 1 + rng.below(3);
        double p = rng.uniform();
        if (p < 0.12 && stack.size() < 3) {
            // Detection: the detector emits ExecStart and IterStart(2)
            // at the same position.
            Open o{next_exec++, static_cast<uint32_t>(10 + rng.below(4))};
            uint64_t parent = stack.empty() ? 0 : stack.back().execId;
            stack.push_back(o);
            uint32_t depth = static_cast<uint32_t>(stack.size());
            recorder.onExecStart(
                {time, o.execId, o.loop, o.loop + 20, depth, parent});
            recorder.onIterStart({time, o.execId, o.loop, 2, depth});
            s.ops.push_back({ModelOp::Start, time, o.execId, o.loop, 2});
        } else if (p < 0.30 && !stack.empty()) {
            // Start the next iteration of a random open execution.
            Open &o = stack[rng.below(stack.size())];
            ++o.iter;
            recorder.onIterStart(
                {time, o.execId, o.loop, o.iter, depth_of(o.execId)});
            s.ops.push_back({ModelOp::Iter, time, o.execId, o.loop,
                             o.iter});
        } else if (p < 0.38 && !stack.empty()) {
            end_innermost();
        } else {
            // A load or store, also emitted while no loop is live (the
            // profiler must skip those).
            MemAccess a;
            a.seq = time;
            a.addr = 0x100 + 8 * rng.below(6); // small pool: aliases
            a.pc = static_cast<uint32_t>(40 + rng.below(8));
            a.isStore = rng.chance(0.45);
            s.mem.accesses.push_back(a);
        }
    }
    while (!stack.empty()) {
        time += 1;
        end_innermost();
    }
    recorder.onTraceDone(time + 1);
    s.rec = recorder.take();
    s.mem.totalInstrs = s.rec.totalInstrs;
    return s;
}

// --- the reference model ------------------------------------------------

/** Everything the oracle predicts about a profile, built with plain
 *  ordered containers and an independent walk of the two streams. */
struct ModelProfile
{
    // loop -> (storePc, loadPc) -> count, capped like the profiler.
    std::map<uint32_t, std::map<std::pair<uint32_t, uint32_t>, uint64_t>>
        edges;
    std::map<uint32_t, uint64_t> overflow;
    std::vector<ConflictViolation> violations;
    uint64_t totalViolations = 0;
    std::map<uint64_t, std::map<size_t, uint32_t>> depSrc;
};

ModelProfile
referenceProfile(const Scenario &s, const ConflictConfig &cfg = {})
{
    ModelProfile m;

    struct Frame
    {
        uint64_t execId;
        uint32_t loop;
        uint32_t curIter = 2;
        std::map<uint64_t, std::pair<uint32_t, uint32_t>> writers;
    };
    std::vector<Frame> frames;
    size_t ei = 0;
    const std::vector<ModelOp> &ops = s.ops;

    auto apply = [&](const ModelOp &e) {
        if (e.kind == ModelOp::Start) {
            frames.push_back({e.execId, e.loop, 2, {}});
        } else if (e.kind == ModelOp::Iter) {
            for (Frame &f : frames)
                if (f.execId == e.execId)
                    f.curIter = e.iter;
        } else {
            for (size_t i = frames.size(); i-- > 0;) {
                if (frames[i].execId == e.execId) {
                    frames.erase(frames.begin() +
                                 static_cast<long>(i));
                    break;
                }
            }
        }
    };

    for (const MemAccess &a : s.mem.accesses) {
        // An event's instruction retires before any later access.
        while (ei < ops.size() && ops[ei].pos < a.seq)
            apply(ops[ei++]);
        for (Frame &f : frames) {
            if (a.isStore) {
                f.writers[a.addr] = {f.curIter, a.pc};
                continue;
            }
            auto it = f.writers.find(a.addr);
            if (it == f.writers.end() ||
                it->second.first >= f.curIter)
                continue;
            auto key = std::make_pair(it->second.second, a.pc);
            auto &le = m.edges[f.loop];
            if (le.count(key)) {
                ++le[key];
            } else if (le.size() < cfg.maxEdgesPerLoop) {
                le[key] = 1;
            } else {
                ++m.overflow[f.loop];
            }
            ++m.totalViolations;
            if (m.violations.size() < cfg.maxViolations) {
                ConflictViolation v;
                v.seq = a.seq;
                v.execId = f.execId;
                v.iterIndex = f.curIter;
                v.srcIter = it->second.first;
                v.loadPc = a.pc;
                v.storePc = it->second.second;
                m.violations.push_back(v);
            }
            size_t slot = static_cast<size_t>(f.curIter) - 2;
            uint32_t &src = m.depSrc[f.execId][slot];
            src = std::max(src, it->second.first);
        }
    }
    return m;
}

/** Field-by-field assertion that the profiler agrees with the model. */
void
expectMatchesModel(const ConflictProfile &p, const ModelProfile &m)
{
    ASSERT_EQ(p.loops.size(), m.edges.size());
    for (const auto &[loop, set] : p.loops) {
        auto mit = m.edges.find(loop);
        ASSERT_NE(mit, m.edges.end()) << "loop " << loop;
        ASSERT_EQ(set.edges.size(), mit->second.size()) << "loop "
                                                        << loop;
        size_t i = 0;
        for (const auto &[key, count] : mit->second) {
            EXPECT_EQ(set.edges[i].storePc, key.first);
            EXPECT_EQ(set.edges[i].loadPc, key.second);
            EXPECT_EQ(set.edges[i].count, count);
            ++i;
        }
        auto oit = m.overflow.find(loop);
        EXPECT_EQ(set.edgeOverflowCount,
                  oit == m.overflow.end() ? 0u : oit->second);
    }

    EXPECT_EQ(p.totalViolations, m.totalViolations);
    ASSERT_EQ(p.violations.size(), m.violations.size());
    for (size_t i = 0; i < p.violations.size(); ++i) {
        const ConflictViolation &a = p.violations[i];
        const ConflictViolation &b = m.violations[i];
        EXPECT_EQ(a.seq, b.seq) << i;
        EXPECT_EQ(a.execId, b.execId) << i;
        EXPECT_EQ(a.iterIndex, b.iterIndex) << i;
        EXPECT_EQ(a.srcIter, b.srcIter) << i;
        EXPECT_EQ(a.loadPc, b.loadPc) << i;
        EXPECT_EQ(a.storePc, b.storePc) << i;
    }

    ASSERT_EQ(p.iterDepSrc.size(), m.depSrc.size());
    for (const auto &[exec_id, slots] : m.depSrc) {
        auto pit = p.iterDepSrc.find(exec_id);
        ASSERT_NE(pit, p.iterDepSrc.end()) << "exec " << exec_id;
        const std::vector<uint32_t> &dep = pit->second;
        // The profiler sizes the vector to the highest conflicting
        // slot; every modelled slot must be present and exact, every
        // other slot zero.
        for (size_t i = 0; i < dep.size(); ++i) {
            auto sit = slots.find(i);
            EXPECT_EQ(dep[i],
                      sit == slots.end() ? 0u : sit->second)
                << "exec " << exec_id << " slot " << i;
        }
        for (const auto &[slot, src] : slots) {
            ASSERT_LT(slot, dep.size()) << "exec " << exec_id;
            EXPECT_EQ(dep[slot], src);
        }
    }
}

// --- profiler vs model --------------------------------------------------

TEST(ConflictProfilerProperty, MatchesReferenceModelOnRandomStreams)
{
    for (uint64_t i = 0; i < 20; ++i) {
        SCOPED_TRACE(i);
        Scenario s = randomScenario(test::testSeed(i));
        ConflictProfile p = profileConflicts(s.rec, s.mem);
        ModelProfile m = referenceProfile(s);
        expectMatchesModel(p, m);

        // Pure function: equal inputs, equal profile, equal hash.
        ConflictProfile again = profileConflicts(s.rec, s.mem);
        EXPECT_EQ(compareConflictProfiles(p, again), "");
        EXPECT_EQ(p.stateHash(), again.stateHash());
    }
}

TEST(ConflictProfilerProperty, EveryAccessPrefixMatchesTheModel)
{
    // The profile of a truncated access stream must equal the model of
    // the same truncation — the "after every update" form of the
    // invariant (stepped to keep the quadratic walk cheap).
    Scenario s = randomScenario(test::testSeed(99), 160);
    for (size_t n = 0; n <= s.mem.accesses.size(); n += 7) {
        SCOPED_TRACE(n);
        Scenario cut;
        cut.rec = s.rec;
        cut.ops = s.ops;
        cut.mem.totalInstrs = s.mem.totalInstrs;
        cut.mem.accesses.assign(s.mem.accesses.begin(),
                                s.mem.accesses.begin() +
                                    static_cast<long>(n));
        ConflictProfile p = profileConflicts(cut.rec, cut.mem);
        expectMatchesModel(p, referenceProfile(cut));
    }
}

TEST(ConflictProfilerProperty, EdgeCapOverflowsButKeepsCounting)
{
    for (uint64_t i = 0; i < 10; ++i) {
        SCOPED_TRACE(i);
        Scenario s = randomScenario(test::testSeed(500 + i));
        ConflictConfig cfg;
        cfg.maxEdgesPerLoop = 2;
        ConflictProfile p = profileConflicts(s.rec, s.mem, cfg);
        ModelProfile m = referenceProfile(s, cfg);
        expectMatchesModel(p, m);
        for (const auto &[loop, set] : p.loops)
            EXPECT_LE(set.edges.size(), cfg.maxEdgesPerLoop)
                << "loop " << loop;

        // The capped profile must lose no dynamic instances: kept-edge
        // counts plus overflow equals the uncapped total.
        ConflictProfile full = profileConflicts(s.rec, s.mem);
        EXPECT_EQ(p.totalViolations, full.totalViolations);
        for (const auto &[loop, set] : full.loops) {
            uint64_t total = 0;
            for (const ConflictEdge &e : set.edges)
                total += e.count;
            uint64_t capped = p.loops.at(loop).edgeOverflowCount;
            for (const ConflictEdge &e : p.loops.at(loop).edges)
                capped += e.count;
            EXPECT_EQ(capped, total) << "loop " << loop;
        }
    }
}

TEST(ConflictProfilerProperty, ViolationCapStopsMaterialisingOnly)
{
    Scenario s = randomScenario(test::testSeed(777));
    ConflictProfile full = profileConflicts(s.rec, s.mem);
    if (full.totalViolations < 4)
        GTEST_SKIP() << "seed produced too few conflicts";
    ConflictConfig cfg;
    cfg.maxViolations = 3;
    ConflictProfile p = profileConflicts(s.rec, s.mem, cfg);
    EXPECT_EQ(p.violations.size(), 3u);
    EXPECT_EQ(p.totalViolations, full.totalViolations);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(p.violations[i].seq, full.violations[i].seq) << i;
    // Everything but the materialised tail is unaffected by the cap.
    for (const auto &[loop, set] : full.loops) {
        ASSERT_TRUE(p.loops.count(loop));
        EXPECT_EQ(p.loops.at(loop).edges.size(), set.edges.size());
    }
}

TEST(ConflictProfilerProperty, InjectedOffByOneShiftsTheAnnotation)
{
    // The fault-injection seam the fuzz self-check rides: with the
    // shift, a conflicting profile must differ from the honest one.
    for (uint64_t i = 0; i < 20; ++i) {
        Scenario s = randomScenario(test::testSeed(900 + i));
        ConflictProfile honest = profileConflicts(s.rec, s.mem);
        if (honest.totalViolations == 0)
            continue;
        ConflictConfig cfg;
        cfg.injectIterOffByOne = true;
        ConflictProfile shifted = profileConflicts(s.rec, s.mem, cfg);
        EXPECT_NE(compareConflictProfiles(honest, shifted), "")
            << "seed index " << i;
        EXPECT_NE(honest.stateHash(), shifted.stateHash())
            << "seed index " << i;
        return; // one conflicting seed is enough
    }
    FAIL() << "no seed produced a conflict";
}

TEST(ConflictProfilerProperty, AnnotateSizesAndCopiesPerExecution)
{
    Scenario s = randomScenario(test::testSeed(321));
    ConflictProfile p = profileConflicts(s.rec, s.mem);
    annotateConflicts(&s.rec, p);
    for (const ExecRecord &e : s.rec.execs) {
        size_t slots =
            e.iterCount >= 2 ? static_cast<size_t>(e.iterCount) - 1 : 0;
        ASSERT_EQ(e.iterDepSrc.size(), slots) << "exec " << e.execId;
        auto it = p.iterDepSrc.find(e.execId);
        for (size_t i = 0; i < slots; ++i) {
            uint32_t want = 0;
            if (it != p.iterDepSrc.end() && i < it->second.size())
                want = it->second[i];
            EXPECT_EQ(e.iterDepSrc[i], want)
                << "exec " << e.execId << " slot " << i;
        }
    }
}

// --- a real trace cut inside a loop -------------------------------------

TEST(ConflictProfiler, TruncatedTraceEndingInALoadReportsItsViolation)
{
    // Each iteration loads the word the previous one stored. The trace
    // is cut right after the 4th load, so that load is the last retired
    // instruction and its loop is still live when the detector flushes
    // it at trace end. The profile must still see the load read
    // iteration 3's store: the trace-end boundary (== totalInstrs) lies
    // past every access.
    ProgramBuilder b("t", 1);
    b.beginFunction("main");
    b.li(regs::r1, 0);
    b.li(regs::r2, 10);
    b.li(regs::r5, 0);
    b.countedLoop(regs::r1, regs::r2, [&](const LoopCtx &) {
        b.ld(regs::r6, regs::r5);
        b.addi(regs::r6, regs::r6, 1);
        b.st(regs::r6, regs::r5);
    });
    b.halt();
    const Program prog = b.build();

    uint64_t cut_seq = 0;
    {
        TraceEngine engine(prog);
        MemTraceRecorder mem;
        engine.addObserver(&mem);
        engine.run();
        const MemAccessTrace full = mem.take();
        int loads = 0;
        for (const MemAccess &a : full.accesses) {
            if (!a.isStore && ++loads == 4) {
                cut_seq = a.seq;
                break;
            }
        }
        ASSERT_EQ(loads, 4);
    }

    EngineConfig ecfg;
    ecfg.maxInstrs = cut_seq + 1;
    TraceEngine engine(prog, ecfg);
    LoopDetector det({16});
    LoopEventRecorder recorder;
    det.addListener(&recorder);
    MemTraceRecorder mem;
    engine.addObserver(&det);
    engine.addObserver(&mem);
    engine.run();
    const LoopEventRecording rec = recorder.take();
    const MemAccessTrace trace = mem.take();

    ASSERT_EQ(rec.totalInstrs, cut_seq + 1);
    ASSERT_EQ(rec.execs.size(), 1u);
    EXPECT_EQ(rec.execs[0].endReason, ExecEndReason::TraceEnd);
    ASSERT_FALSE(trace.accesses.empty());
    EXPECT_EQ(trace.accesses.back().seq, cut_seq);
    EXPECT_FALSE(trace.accesses.back().isStore);

    const ConflictProfile p = profileConflicts(rec, trace);
    ASSERT_FALSE(p.violations.empty());
    const ConflictViolation &last = p.violations.back();
    EXPECT_EQ(last.seq, cut_seq);
    EXPECT_EQ(last.execId, rec.execs[0].execId);
    EXPECT_EQ(last.iterIndex, 4u);
    EXPECT_EQ(last.srcIter, 3u);
}

// --- live-in predictors -------------------------------------------------

TEST(LiveInPredictorProperty, ConvergesOnStridedSequences)
{
    for (int64_t stride : {0, 1, -3, 1000}) {
        SCOPED_TRACE(stride);
        LiveInPredictor p;
        int64_t v = 17;
        EXPECT_FALSE(p.hasPrediction());
        p.observe(v);
        EXPECT_FALSE(p.hasPrediction()); // one value: no stride yet
        for (int i = 0; i < 20; ++i) {
            v += stride;
            if (p.hasPrediction() && i >= 1) {
                EXPECT_TRUE(p.predictCorrect(v)) << "step " << i;
            }
            p.observe(v);
        }
        EXPECT_TRUE(p.hasPrediction());
        EXPECT_EQ(p.predicted(), v + stride);
    }
}

TEST(LiveInPredictorProperty, DegradesOnStrideChangeThenRecovers)
{
    LiveInPredictor p;
    for (int64_t v = 0; v <= 40; v += 4)
        p.observe(v);
    EXPECT_TRUE(p.predictCorrect(44));

    // Stride changes 4 -> 9: exactly one misprediction, then the next
    // observation re-derives the stride and the predictor is correct
    // again (last-value + stride recovers in one step).
    EXPECT_FALSE(p.predictCorrect(49));
    p.observe(49);
    EXPECT_TRUE(p.predictCorrect(58));
    p.observe(58);
    EXPECT_TRUE(p.predictCorrect(67));

    // reset() drops everything, including the prediction offer.
    p.reset();
    EXPECT_FALSE(p.hasPrediction());
    EXPECT_EQ(p.state(), 0);
}

TEST(LiveInPredictorProperty, RandomizedStepsMatchReferenceModel)
{
    for (uint64_t t = 0; t < 20; ++t) {
        SCOPED_TRACE(t);
        Rng rng(test::testSeed(1300 + t));
        LiveInPredictor p;
        // The reference model: the documented three-state machine in
        // plain variables.
        int64_t last = 0, stride = 0;
        int st = 0;
        for (int step = 0; step < 400; ++step) {
            if (rng.chance(0.05)) {
                p.reset();
                last = stride = 0;
                st = 0;
            } else {
                int64_t v = static_cast<int64_t>(rng.below(64)) - 32;
                EXPECT_EQ(p.predictCorrect(v),
                          st == 2 && last + stride == v)
                    << "step " << step;
                p.observe(v);
                if (st >= 1) {
                    stride = v - last;
                    st = 2;
                } else {
                    st = 1;
                }
                last = v;
            }
            ASSERT_EQ(p.state(), st) << "step " << step;
            ASSERT_EQ(p.hasPrediction(), st == 2) << "step " << step;
            if (st >= 1) {
                ASSERT_EQ(p.lastValue(), last) << "step " << step;
            }
            // stateHash must be a function of exactly (last, stride,
            // state) — recompute it from the model every step.
            LiveInPredictor model_twin;
            if (st >= 1) {
                model_twin.observe(last - stride);
                model_twin.observe(last);
            }
            if (st == 2) {
                ASSERT_EQ(p.stateHash(), model_twin.stateHash())
                    << "step " << step;
            }
        }
    }
}

TEST(LiveInMemPredictorProperty, PredictsAddressAndValueStrides)
{
    LiveInMemPredictor p;
    EXPECT_FALSE(p.hasPrediction());
    // Walking array: addresses stride by 8, values by 3.
    uint64_t addr = 0x1000;
    int64_t val = 5;
    p.observe(addr, val);
    EXPECT_FALSE(p.hasPrediction());
    for (int i = 0; i < 10; ++i) {
        addr += 8;
        val += 3;
        if (i >= 1) {
            EXPECT_TRUE(p.predictCorrect(addr, val)) << i;
        }
        p.observe(addr, val);
    }
    // Both components must match: breaking either mispredicts.
    EXPECT_FALSE(p.predictCorrect(addr + 8, val + 4));
    EXPECT_FALSE(p.predictCorrect(addr + 16, val + 3));
    EXPECT_TRUE(p.predictCorrect(addr + 8, val + 3));

    // One irregular access degrades, one regular pair recovers.
    p.observe(addr + 100, val);
    EXPECT_FALSE(p.predictCorrect(addr + 108, val + 3));
    p.observe(addr + 108, val + 3);
    EXPECT_TRUE(p.predictCorrect(addr + 116, val + 6));

    uint64_t h = p.stateHash();
    p.reset();
    EXPECT_NE(p.stateHash(), h);
    EXPECT_EQ(p.state(), 0);
}

} // namespace
} // namespace loopspec
