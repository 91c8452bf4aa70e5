/**
 * @file
 * Conventional branch-predictor baselines (src/predict/) against
 * independent reference models under randomized retired-branch
 * sequences, aliasing and history-rollover edges, the chained
 * predictRun() spawn-point semantics, spec parsing, and the
 * PredictorMeter's scalar-vs-batch-vs-replay equivalence
 * (docs/PREDICTORS.md, docs/TESTING.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "isa/instr.hh"
#include "predict/bimodal.hh"
#include "predict/branch_predictor.hh"
#include "predict/gshare.hh"
#include "predict/local.hh"
#include "predict/predictor_meter.hh"
#include "predict/stride_run.hh"
#include "predict/tage.hh"
#include "predict/tournament.hh"
#include "tests/test_util.hh"
#include "tracegen/control_trace.hh"
#include "tracegen/trace_engine.hh"
#include "util/rng.hh"

namespace loopspec
{
namespace
{

// --- Independent reference models ---------------------------------------
// Deliberately written with plain ints and min/max clamps (no
// SatCounter), so a clamp bug in the production code cannot hide in a
// shared helper.

struct RefBimodal
{
    std::vector<int> counters;

    explicit RefBimodal(unsigned table_bits)
        : counters(size_t(1) << table_bits, 0)
    {
    }

    size_t
    index(uint32_t pc) const
    {
        return (pc >> 2) & (counters.size() - 1);
    }

    bool predict(uint32_t pc) const { return counters[index(pc)] >= 2; }

    void
    update(uint32_t pc, bool taken)
    {
        int &c = counters[index(pc)];
        c = taken ? std::min(c + 1, 3) : std::max(c - 1, 0);
    }
};

struct RefGshare
{
    std::vector<int> counters;
    uint32_t history = 0;
    uint32_t histMask;

    RefGshare(unsigned history_bits, unsigned table_bits)
        : counters(size_t(1) << table_bits, 0),
          histMask((1u << history_bits) - 1)
    {
    }

    size_t
    index(uint32_t pc) const
    {
        return ((pc >> 2) ^ history) & (counters.size() - 1);
    }

    bool predict(uint32_t pc) const { return counters[index(pc)] >= 2; }

    void
    update(uint32_t pc, bool taken)
    {
        int &c = counters[index(pc)];
        c = taken ? std::min(c + 1, 3) : std::max(c - 1, 0);
        history = ((history << 1) | (taken ? 1 : 0)) & histMask;
    }
};

struct RefLocal
{
    std::vector<uint32_t> histories;
    std::vector<int> counters;
    uint32_t histMask;

    RefLocal(unsigned history_bits, unsigned l1_bits)
        : histories(size_t(1) << l1_bits, 0),
          counters(size_t(1) << history_bits, 0),
          histMask((1u << history_bits) - 1)
    {
    }

    size_t
    l1Index(uint32_t pc) const
    {
        return (pc >> 2) & (histories.size() - 1);
    }

    bool
    predict(uint32_t pc) const
    {
        return counters[histories[l1Index(pc)]] >= 2;
    }

    void
    update(uint32_t pc, bool taken)
    {
        uint32_t &h = histories[l1Index(pc)];
        int &c = counters[h];
        c = taken ? std::min(c + 1, 3) : std::max(c - 1, 0);
        h = ((h << 1) | (taken ? 1 : 0)) & histMask;
    }
};

struct RefStrideRun
{
    struct Entry
    {
        uint32_t pc = 0;
        bool valid = false;
        uint32_t cur = 0;
        long long lastLen = 0;
        long long stride = 0;
        bool hasLen = false;
        bool hasStride = false;
        int conf = 0;
    };

    std::vector<Entry> entries;

    explicit RefStrideRun(unsigned table_bits)
        : entries(size_t(1) << table_bits)
    {
    }

    size_t
    index(uint32_t pc) const
    {
        return (pc >> 2) & (entries.size() - 1);
    }

    long long
    predictedTotal(const Entry &e) const
    {
        if (e.hasStride && e.conf >= 2)
            return std::max(e.lastLen + e.stride, 0LL);
        return e.lastLen;
    }

    unsigned
    run(uint32_t pc, unsigned max_n) const
    {
        const Entry &e = entries[index(pc)];
        if (!e.valid || e.pc != pc || !e.hasLen)
            return max_n;
        long long predicted = predictedTotal(e);
        if (e.cur > 0 && predicted <= (long long)e.cur) {
            if (predicted < 1)
                predicted = 1;
            while (predicted <= (long long)e.cur)
                predicted *= 2;
        }
        long long rem = predicted - (long long)e.cur;
        if (rem <= 0)
            return 0;
        return rem < (long long)max_n ? (unsigned)rem : max_n;
    }

    bool predict(uint32_t pc) const { return run(pc, 1) > 0; }

    void
    update(uint32_t pc, bool taken)
    {
        Entry &e = entries[index(pc)];
        if (!e.valid || e.pc != pc) {
            e = Entry();
            e.pc = pc;
            e.valid = true;
        }
        if (taken) {
            ++e.cur;
            return;
        }
        long long len = e.cur;
        if (e.hasLen) {
            long long stride = len - e.lastLen;
            if (e.hasStride) {
                e.conf = stride == e.stride ? std::min(e.conf + 1, 3)
                                            : std::max(e.conf - 1, 0);
            }
            e.stride = stride;
            e.hasStride = true;
        }
        e.lastLen = len;
        e.hasLen = true;
        e.cur = 0;
    }
};

/** A randomized retired-branch stream: few PCs (to force aliasing and
 *  shared-table interference) with per-PC biased outcomes. */
std::vector<std::pair<uint32_t, bool>>
randomStream(uint64_t seed, size_t num_pcs, size_t length)
{
    Rng rng(seed);
    std::vector<uint32_t> pcs;
    std::vector<double> bias;
    for (size_t i = 0; i < num_pcs; ++i) {
        pcs.push_back(codeBase +
                      static_cast<uint32_t>(rng.below(4096)) *
                          instrBytes);
        bias.push_back(rng.uniform());
    }
    std::vector<std::pair<uint32_t, bool>> out;
    out.reserve(length);
    for (size_t i = 0; i < length; ++i) {
        size_t k = rng.below(num_pcs);
        out.emplace_back(pcs[k], rng.chance(bias[k]));
    }
    return out;
}

template <typename Pred, typename Ref>
void
expectMatchesReference(Pred &pred, Ref &ref, uint64_t seed,
                       size_t num_pcs, size_t length)
{
    for (const auto &[pc, taken] : randomStream(seed, num_pcs, length)) {
        ASSERT_EQ(pred.predict(pc), ref.predict(pc))
            << "pc 0x" << std::hex << pc;
        pred.update(pc, taken);
        ref.update(pc, taken);
    }
}

// --- Randomized reference-model equivalence ------------------------------

TEST(BimodalPredictor, MatchesReferenceModelOnRandomStreams)
{
    for (uint64_t i = 0; i < 10; ++i) {
        SCOPED_TRACE(i);
        PredictorConfig c = parsePredictorSpec("bimodal:6");
        BimodalPredictor pred(c);
        RefBimodal ref(6);
        expectMatchesReference(pred, ref, test::testSeed(1000 + i), 40,
                               4000);
    }
}

TEST(GsharePredictor, MatchesReferenceModelOnRandomStreams)
{
    for (uint64_t i = 0; i < 10; ++i) {
        SCOPED_TRACE(i);
        PredictorConfig c = parsePredictorSpec("gshare:7/6");
        GsharePredictor pred(c);
        RefGshare ref(7, 6);
        expectMatchesReference(pred, ref, test::testSeed(2000 + i), 40,
                               4000);
    }
}

TEST(LocalHistoryPredictor, MatchesReferenceModelOnRandomStreams)
{
    for (uint64_t i = 0; i < 10; ++i) {
        SCOPED_TRACE(i);
        PredictorConfig c = parsePredictorSpec("local:6/4");
        LocalHistoryPredictor pred(c);
        RefLocal ref(6, 4);
        expectMatchesReference(pred, ref, test::testSeed(3000 + i), 40,
                               4000);
    }
}

TEST(StrideRunPredictor, MatchesReferenceModelOnRandomStreams)
{
    for (uint64_t i = 0; i < 10; ++i) {
        SCOPED_TRACE(i);
        PredictorConfig c = parsePredictorSpec("let:6");
        StrideRunPredictor pred(c);
        RefStrideRun ref(6);
        expectMatchesReference(pred, ref, test::testSeed(3500 + i), 40,
                               4000);
    }
}

TEST(StrideRunPredictor, ConflictMissesResetTheEntry)
{
    // tableBits=2: PCs 4 instructions apart collide, and the full-PC
    // tag means the loser restarts from scratch instead of inheriting
    // the winner's run state.
    StrideRunPredictor pred(parsePredictorSpec("let:2"));
    RefStrideRun ref(2);
    Rng rng(test::testSeed(3600));
    const uint32_t a = codeBase;
    const uint32_t b = codeBase + 4 * instrBytes;
    for (int i = 0; i < 3000; ++i) {
        uint32_t pc = rng.chance(0.5) ? a : b;
        bool taken = rng.chance(0.7);
        ASSERT_EQ(pred.predict(pc), ref.predict(pc)) << "step " << i;
        ASSERT_EQ(pred.predictRun(pc, 16), ref.run(pc, 16))
            << "step " << i;
        pred.update(pc, taken);
        ref.update(pc, taken);
    }
}

// --- Aliasing and rollover edges -----------------------------------------

TEST(BimodalPredictor, AliasedPcsShareACounter)
{
    // tableBits=2: PCs 4 instructions apart collide.
    BimodalPredictor pred(parsePredictorSpec("bimodal:2"));
    const uint32_t a = codeBase;
    const uint32_t b = codeBase + 4 * instrBytes;
    for (int i = 0; i < 4; ++i)
        pred.update(a, true);
    EXPECT_TRUE(pred.predict(b)); // trained through the alias
    pred.update(b, false);
    pred.update(b, false);
    pred.update(b, false);
    EXPECT_FALSE(pred.predict(a)); // and destroyed through it
}

TEST(BimodalPredictor, DistinctCountersStayIndependent)
{
    BimodalPredictor pred(parsePredictorSpec("bimodal:4"));
    const uint32_t a = codeBase;
    const uint32_t b = codeBase + instrBytes; // adjacent, no alias
    for (int i = 0; i < 4; ++i) {
        pred.update(a, true);
        pred.update(b, false);
    }
    EXPECT_TRUE(pred.predict(a));
    EXPECT_FALSE(pred.predict(b));
}

TEST(GsharePredictor, HistoryRolloverKeepsMatchingReference)
{
    // historyBits=3 rolls over every 3 updates; long single-PC runs
    // cycle the history through every state.
    GsharePredictor pred(parsePredictorSpec("gshare:3/5"));
    RefGshare ref(3, 5);
    Rng rng(test::testSeed(4000));
    const uint32_t pc = codeBase + 32 * instrBytes;
    for (int i = 0; i < 2000; ++i) {
        bool taken = rng.chance(0.8);
        ASSERT_EQ(pred.predict(pc), ref.predict(pc)) << "step " << i;
        pred.update(pc, taken);
        ref.update(pc, taken);
    }
}

TEST(LocalHistoryPredictor, HistoryTableAliasing)
{
    // l1Bits=1: every second instruction shares a history register.
    LocalHistoryPredictor pred(parsePredictorSpec("local:4/1"));
    RefLocal ref(4, 1);
    Rng rng(test::testSeed(4100));
    for (int i = 0; i < 2000; ++i) {
        uint32_t pc = codeBase +
                      static_cast<uint32_t>(rng.below(8)) * instrBytes;
        bool taken = rng.chance(0.6);
        ASSERT_EQ(pred.predict(pc), ref.predict(pc)) << "step " << i;
        pred.update(pc, taken);
        ref.update(pc, taken);
    }
}

// --- predictRun (spawn-point) semantics ----------------------------------

TEST(BimodalPredictor, PredictRunIsAllOrNothing)
{
    BimodalPredictor pred(parsePredictorSpec("bimodal:4"));
    const uint32_t pc = codeBase;
    EXPECT_EQ(pred.predictRun(pc, 8), 0u); // power-on: weakly not-taken
    for (int i = 0; i < 4; ++i)
        pred.update(pc, true);
    EXPECT_EQ(pred.predictRun(pc, 8), 8u); // no history: never stops
    EXPECT_EQ(pred.predictRun(pc, 3), 3u); // capped
}

/** Train a cyclic T..TN trip pattern into @p pred and return
 *  predictRun at the iteration right after an exit. */
template <typename Pred>
unsigned
trainedRunAfterExit(Pred &pred, uint32_t pc, unsigned trips,
                    unsigned max_n)
{
    // A loop with a constant trip count of `trips` retires trips-1
    // taken outcomes then one not-taken per execution.
    for (int exec = 0; exec < 64; ++exec) {
        for (unsigned j = 0; j + 1 < trips; ++j)
            pred.update(pc, true);
        pred.update(pc, false);
    }
    return pred.predictRun(pc, max_n);
}

TEST(GsharePredictor, PredictRunLearnsConstantTripCounts)
{
    // historyBits=6 comfortably covers a trip-4 loop's 3-taken pattern:
    // the chained prediction should commit to exactly the 3 remaining
    // iterations, stopping at the predicted exit.
    GsharePredictor pred(parsePredictorSpec("gshare:6"));
    EXPECT_EQ(trainedRunAfterExit(pred, codeBase, 4, 16), 3u);
}

TEST(LocalHistoryPredictor, PredictRunLearnsConstantTripCounts)
{
    LocalHistoryPredictor pred(parsePredictorSpec("local:6/4"));
    EXPECT_EQ(trainedRunAfterExit(pred, codeBase, 4, 16), 3u);
}

TEST(GsharePredictor, PredictRunStopsBelowCapOnShortHistory)
{
    // A trip-9 loop needs 8 history bits; with only 4 the pattern
    // aliases, but the chain must still never exceed the cap.
    GsharePredictor pred(parsePredictorSpec("gshare:4"));
    unsigned n = trainedRunAfterExit(pred, codeBase, 9, 5);
    EXPECT_LE(n, 5u);
}

TEST(StrideRunPredictor, PredictRunLearnsConstantTripCounts)
{
    // Like LET: a constant trip-4 loop settles on run length 3, and the
    // prediction right after an exit is exactly the 3 remaining taken
    // outcomes — no history-length limit involved.
    StrideRunPredictor pred(parsePredictorSpec("let:10"));
    EXPECT_EQ(trainedRunAfterExit(pred, codeBase, 4, 16), 3u);
}

TEST(StrideRunPredictor, PredictRunExtrapolatesStrides)
{
    // Runs of 3, 5, 7, ... : stride +2 with saturated confidence, so
    // right after the run of length 9 the next run predicts 11.
    StrideRunPredictor pred(parsePredictorSpec("let:10"));
    const uint32_t pc = codeBase;
    for (unsigned len = 3; len <= 9; len += 2) {
        for (unsigned j = 0; j < len; ++j)
            pred.update(pc, true);
        pred.update(pc, false);
    }
    EXPECT_EQ(pred.predictRun(pc, 16), 11u);
    EXPECT_EQ(pred.predictRun(pc, 8), 8u); // capped
}

TEST(TagePredictor, PredictRunLearnsConstantTripCounts)
{
    TageRunLengthPredictor pred(parsePredictorSpec("tage:4/2-8"));
    EXPECT_EQ(trainedRunAfterExit(pred, codeBase, 4, 16), 3u);
}

TEST(TagePredictor, LearnsAlternatingRunLengthsThroughHistory)
{
    // Run lengths alternate 2, 5, 2, 5, ... — the stride path can never
    // gain confidence (stride flips +3/-3) and last-length is always
    // wrong, but one prior run length of history separates the phases,
    // so the tagged tables converge on exact predictions.
    TageRunLengthPredictor pred(parsePredictorSpec("tage:4/2-8"));
    const uint32_t pc = codeBase;
    const unsigned lens[2] = {2, 5};
    for (int exec = 0; exec < 200; ++exec) {
        unsigned len = lens[exec & 1];
        for (unsigned j = 0; j < len; ++j)
            pred.update(pc, true);
        pred.update(pc, false);
    }
    for (int exec = 200; exec < 220; ++exec) {
        unsigned len = lens[exec & 1];
        ASSERT_EQ(pred.predictRun(pc, 16), len) << "exec " << exec;
        for (unsigned j = 0; j < len; ++j)
            pred.update(pc, true);
        pred.update(pc, false);
    }
}

TEST(TagePredictor, HistoryLengthsAreGeometricAndIncreasing)
{
    PredictorConfig c = parsePredictorSpec("tage:4/2-8");
    std::vector<unsigned> lens =
        TageRunLengthPredictor::historyLengths(c);
    EXPECT_EQ(lens, (std::vector<unsigned>{2, 3, 5, 8}));

    c = parsePredictorSpec("tage:1/3-3");
    lens = TageRunLengthPredictor::historyLengths(c);
    EXPECT_EQ(lens, (std::vector<unsigned>{3}));

    c = parsePredictorSpec("tage:8/1-4");
    lens = TageRunLengthPredictor::historyLengths(c);
    ASSERT_EQ(lens.size(), 8u);
    for (size_t i = 0; i < lens.size(); ++i) {
        EXPECT_GE(lens[i], 1u);
        EXPECT_LE(lens[i], 4u);
        if (i > 0) {
            EXPECT_GE(lens[i], lens[i - 1]);
        }
    }
}

TEST(TournamentPredictor, PredictRunIsAllOrNothing)
{
    // let learns the trip-4 pattern exactly; the chooser powers on
    // favouring component A (the stride path), so the tournament's
    // chained prediction equals the let component's — not a splice.
    TournamentPredictor pred(
        parsePredictorSpec("tournament:let:10+bimodal:10"));
    EXPECT_EQ(trainedRunAfterExit(pred, codeBase, 4, 16), 3u);
}

// --- reset / stateHash ---------------------------------------------------

TEST(BranchPredictor, ResetRestoresPowerOnState)
{
    for (const char *spec :
         {"bimodal:6", "gshare:6", "local:5/3", "let:4",
          "tournament:let:4+local:5/3", "tage:3/1-4/5"}) {
        SCOPED_TRACE(spec);
        auto pred = makePredictor(parsePredictorSpec(spec));
        uint64_t pristine = pred->stateHash();
        Rng rng(test::testSeed(5000));
        for (int i = 0; i < 500; ++i) {
            pred->update(codeBase + static_cast<uint32_t>(
                                        rng.below(64)) *
                                        instrBytes,
                         rng.chance(0.5));
        }
        EXPECT_NE(pred->stateHash(), pristine);
        pred->reset();
        EXPECT_EQ(pred->stateHash(), pristine);
    }
}

TEST(BranchPredictor, IdenticalStreamsHashIdentically)
{
    for (const char *spec :
         {"bimodal:6", "gshare:6", "local:5/3", "let:4",
          "tournament:let:4+local:5/3", "tage:3/1-4/5"}) {
        SCOPED_TRACE(spec);
        auto a = makePredictor(parsePredictorSpec(spec));
        auto b = makePredictor(parsePredictorSpec(spec));
        for (const auto &[pc, taken] :
             randomStream(test::testSeed(5100), 16, 2000)) {
            a->update(pc, taken);
            b->update(pc, taken);
        }
        EXPECT_EQ(a->stateHash(), b->stateHash());
    }
}

// --- Spec parsing --------------------------------------------------------

TEST(PredictorSpec, ParsesCanonicalForms)
{
    PredictorConfig c = parsePredictorSpec("bimodal");
    EXPECT_EQ(c.kind, PredictorKind::Bimodal);
    EXPECT_EQ(c.tableBits, 12u);
    EXPECT_EQ(predictorName(c), "bimodal:12");

    c = parsePredictorSpec("bimodal:8");
    EXPECT_EQ(c.tableBits, 8u);

    c = parsePredictorSpec("gshare:12");
    EXPECT_EQ(c.kind, PredictorKind::Gshare);
    EXPECT_EQ(c.historyBits, 12u);
    EXPECT_EQ(c.tableBits, 12u);
    EXPECT_EQ(predictorName(c), "gshare:12");

    c = parsePredictorSpec("gshare:10/14");
    EXPECT_EQ(c.historyBits, 10u);
    EXPECT_EQ(c.tableBits, 14u);
    EXPECT_EQ(predictorName(c), "gshare:10/14");

    c = parsePredictorSpec("local:10/10");
    EXPECT_EQ(c.kind, PredictorKind::Local);
    EXPECT_EQ(c.historyBits, 10u);
    EXPECT_EQ(c.l1Bits, 10u);
    EXPECT_EQ(predictorName(c), "local:10/10");

    c = parsePredictorSpec("let");
    EXPECT_EQ(c.kind, PredictorKind::StrideRun);
    EXPECT_EQ(c.tableBits, 10u);
    EXPECT_EQ(predictorName(c), "let:10");

    c = parsePredictorSpec("tage");
    EXPECT_EQ(c.kind, PredictorKind::Tage);
    EXPECT_EQ(c.tageTables, 4u);
    EXPECT_EQ(c.tageMinHist, 2u);
    EXPECT_EQ(c.tageMaxHist, 8u);
    EXPECT_EQ(c.tableBits, 10u);
    EXPECT_EQ(predictorName(c), "tage:4/2-8");

    c = parsePredictorSpec("tage:3/1-4/5");
    EXPECT_EQ(c.tageTables, 3u);
    EXPECT_EQ(c.tageMinHist, 1u);
    EXPECT_EQ(c.tageMaxHist, 4u);
    EXPECT_EQ(c.tableBits, 5u);
    EXPECT_EQ(predictorName(c), "tage:3/1-4/5");

    c = parsePredictorSpec("tournament:let+local");
    EXPECT_EQ(c.kind, PredictorKind::Tournament);
    EXPECT_EQ(c.tableBits, 12u); // chooser entries
    ASSERT_EQ(c.components.size(), 2u);
    EXPECT_EQ(c.components[0].kind, PredictorKind::StrideRun);
    EXPECT_EQ(c.components[1].kind, PredictorKind::Local);
    EXPECT_EQ(predictorName(c), "tournament:let:10+local:10/10");
}

TEST(PredictorSpec, RoundTripsThroughName)
{
    for (const char *spec :
         {"bimodal:12", "gshare:12", "gshare:10/14", "local:10/10",
          "bimodal:1", "gshare:20", "local:1/20", "let:10", "let:1",
          "tage:4/2-8", "tage:1/1-1", "tage:3/1-4/5",
          "tournament:let:10+local:10/10",
          "tournament:gshare:12+tage:4/2-8"}) {
        SCOPED_TRACE(spec);
        PredictorConfig c = parsePredictorSpec(spec);
        EXPECT_EQ(predictorName(c), spec);
        EXPECT_TRUE(parsePredictorSpec(predictorName(c)) == c);
    }
}

TEST(PredictorSpecDeathTest, RejectsMalformedSpecs)
{
    EXPECT_EXIT(parsePredictorSpec("perceptron"),
                testing::ExitedWithCode(1), "unknown predictor scheme");
    EXPECT_EXIT(parsePredictorSpec("bimodal:"),
                testing::ExitedWithCode(1), "empty parameter");
    EXPECT_EXIT(parsePredictorSpec("bimodal:8/4"),
                testing::ExitedWithCode(1), "one parameter");
    EXPECT_EXIT(parsePredictorSpec("gshare:0"),
                testing::ExitedWithCode(1), "outside");
    EXPECT_EXIT(parsePredictorSpec("gshare:21"),
                testing::ExitedWithCode(1), "outside");
    EXPECT_EXIT(parsePredictorSpec("gshare:abc"),
                testing::ExitedWithCode(1), "malformed");
    EXPECT_EXIT(parsePredictorSpec("local:10"),
                testing::ExitedWithCode(1), "historyBits/l1Bits");
}

TEST(PredictorSpecDeathTest, RejectsTrailingJunk)
{
    // These used to parse as their shorter forms because the split
    // helper dropped empty fields; every one must now be fatal.
    EXPECT_EXIT(parsePredictorSpec("bimodal:8/"),
                testing::ExitedWithCode(1), "empty parameter field");
    EXPECT_EXIT(parsePredictorSpec("gshare:12/"),
                testing::ExitedWithCode(1), "empty parameter field");
    EXPECT_EXIT(parsePredictorSpec("gshare:12//14"),
                testing::ExitedWithCode(1), "empty parameter field");
    EXPECT_EXIT(parsePredictorSpec("local:10/10/"),
                testing::ExitedWithCode(1), "empty parameter field");
    EXPECT_EXIT(parsePredictorSpec("tage:4/2-8/"),
                testing::ExitedWithCode(1), "empty parameter field");
    EXPECT_EXIT(parsePredictorSpec("let:10/"),
                testing::ExitedWithCode(1), "empty parameter field");
}

TEST(PredictorSpecDeathTest, RejectsMalformedLetAndTageSpecs)
{
    EXPECT_EXIT(parsePredictorSpec("let:0"),
                testing::ExitedWithCode(1), "outside");
    EXPECT_EXIT(parsePredictorSpec("let:10/2"),
                testing::ExitedWithCode(1), "one parameter");
    EXPECT_EXIT(parsePredictorSpec("tage:4"),
                testing::ExitedWithCode(1), "tage needs");
    EXPECT_EXIT(parsePredictorSpec("tage:9/2-8"),
                testing::ExitedWithCode(1), "outside");
    EXPECT_EXIT(parsePredictorSpec("tage:4/2"),
                testing::ExitedWithCode(1), "history range");
    EXPECT_EXIT(parsePredictorSpec("tage:4/2-"),
                testing::ExitedWithCode(1), "history range");
    EXPECT_EXIT(parsePredictorSpec("tage:4/8-2"),
                testing::ExitedWithCode(1), "min > max");
    EXPECT_EXIT(parsePredictorSpec("tage:4/2-9"),
                testing::ExitedWithCode(1), "outside");
}

TEST(PredictorSpecDeathTest, RejectsMalformedTournamentSpecs)
{
    EXPECT_EXIT(parsePredictorSpec("tournament"),
                testing::ExitedWithCode(1), "needs two");
    EXPECT_EXIT(parsePredictorSpec("tournament:let"),
                testing::ExitedWithCode(1), "needs two");
    EXPECT_EXIT(parsePredictorSpec("tournament:let+"),
                testing::ExitedWithCode(1), "needs two");
    EXPECT_EXIT(parsePredictorSpec("tournament:+local"),
                testing::ExitedWithCode(1), "needs two");
    EXPECT_EXIT(parsePredictorSpec("tournament:let+perceptron"),
                testing::ExitedWithCode(1), "unknown predictor scheme");
    EXPECT_EXIT(
        parsePredictorSpec("tournament:let+tournament:gshare+bimodal"),
        testing::ExitedWithCode(1), "must not nest");
}

// --- PredictorMeter: scalar vs batch vs replay ---------------------------

std::vector<PredictorConfig>
meterConfigs()
{
    return {parsePredictorSpec("bimodal:6"),
            parsePredictorSpec("gshare:6"),
            parsePredictorSpec("local:5/3"),
            parsePredictorSpec("let:4"),
            parsePredictorSpec("tournament:let:4+local:5/3"),
            parsePredictorSpec("tage:3/1-4/5")};
}

TEST(PredictorMeter, BatchedEngineFeedMatchesScalarFeed)
{
    Program prog = test::nestedLoops(13, 7, 2);

    PredictorMeter scalar_meter(meterConfigs());
    ControlTraceRecorder ctrace_rec;
    {
        TraceEngine engine(prog, {});
        engine.addObserver(&ctrace_rec);
        DynInstr d;
        while (engine.step(d))
            scalar_meter.onInstr(d);
    }

    PredictorMeter batched_meter(meterConfigs());
    {
        TraceEngine engine(prog, {});
        engine.addObserver(&batched_meter);
        engine.run();
    }

    PredictorMeter replay_meter(meterConfigs());
    replayControlTrace(ctrace_rec.take(), replay_meter);

    auto a = scalar_meter.results();
    auto b = batched_meter.results();
    auto c = replay_meter.results();
    ASSERT_EQ(a.size(), 6u);
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(predictorName(a[i].config));
        EXPECT_GT(a[i].lookups, 0u);
        EXPECT_EQ(a[i].lookups, b[i].lookups);
        EXPECT_EQ(a[i].hits, b[i].hits);
        EXPECT_EQ(a[i].stateHash, b[i].stateHash);
        EXPECT_EQ(a[i].lookups, c[i].lookups);
        EXPECT_EQ(a[i].hits, c[i].hits);
        EXPECT_EQ(a[i].stateHash, c[i].stateHash);
    }
}

TEST(PredictorMeter, CountsOnlyConditionalBranches)
{
    // nestedLoops retires exactly one conditional branch per iteration
    // of each loop (the closing branch) plus one per loop setup... the
    // builder's countedLoop emits a single backward conditional per
    // iteration, so lookups equals total started iterations.
    Program prog = test::flatLoop(10, 3);
    PredictorMeter meter({parsePredictorSpec("bimodal:6")});
    TraceEngine engine(prog, {});
    engine.addObserver(&meter);
    engine.run();
    EXPECT_EQ(meter.results()[0].lookups, 10u);
}

} // namespace
} // namespace loopspec
