/** @file Unit tests for src/util: RNG, counters, vectors, tables, CLI. */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>

#include "util/cli.hh"
#include "util/epoch_set.hh"
#include "util/thread_pool.hh"
#include "util/fixed_vector.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "predict/sat_counter.hh"
#include "util/table_writer.hh"
#include "tests/test_util.hh"

namespace loopspec
{
namespace
{

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    Rng a2(42), c2(43);
    bool differ = false;
    for (int i = 0; i < 10; ++i)
        differ |= (a2.next() != c2.next());
    EXPECT_TRUE(differ);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        int64_t v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit over 1000 draws
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng r(13);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, TripCountMeanApproximates)
{
    Rng r(17);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        uint64_t t = r.tripCount(6.0);
        EXPECT_GE(t, 1u);
        sum += static_cast<double>(t);
    }
    EXPECT_NEAR(sum / n, 6.0, 0.35);
}

TEST(Rng, TripCountDegenerateMean)
{
    Rng r(19);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.tripCount(1.0), 1u);
}

TEST(SatCounter, TwoBitSemantics)
{
    TwoBitCounter c;
    EXPECT_FALSE(c.confident());
    c.up();
    EXPECT_FALSE(c.confident()); // 1 of [0,3]: still weak
    c.up();
    EXPECT_TRUE(c.confident()); // 2: MSB set
    c.up();
    EXPECT_TRUE(c.saturated());
    c.up();
    EXPECT_EQ(c.value(), 3); // saturates
    c.down();
    c.down();
    EXPECT_FALSE(c.confident());
    c.down();
    c.down();
    EXPECT_EQ(c.value(), 0); // floors
}

TEST(SatCounter, ResetClearsConfidence)
{
    TwoBitCounter c(3);
    EXPECT_TRUE(c.confident());
    c.reset();
    EXPECT_FALSE(c.confident());
    EXPECT_EQ(c.value(), 0);
}

TEST(SatCounter, WidthOne)
{
    SatCounter<1> c;
    EXPECT_FALSE(c.confident());
    c.up();
    EXPECT_TRUE(c.confident());
    EXPECT_TRUE(c.saturated());
}

TEST(FixedVector, PushPopAndIndex)
{
    FixedVector<int, 4> v;
    EXPECT_TRUE(v.empty());
    v.push_back(1);
    v.push_back(2);
    v.push_back(3);
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], 1);
    EXPECT_EQ(v.back(), 3);
    v.pop_back();
    EXPECT_EQ(v.back(), 2);
    EXPECT_FALSE(v.full());
}

TEST(FixedVector, EraseAtShiftsDown)
{
    FixedVector<int, 8> v;
    for (int i = 0; i < 5; ++i)
        v.push_back(i);
    v.erase_at(1);
    EXPECT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], 0);
    EXPECT_EQ(v[1], 2);
    EXPECT_EQ(v[3], 4);
    v.erase_at(0); // bottom drop (the CLS overflow path)
    EXPECT_EQ(v[0], 2);
}

TEST(FixedVector, TruncateAndClear)
{
    FixedVector<int, 8> v;
    for (int i = 0; i < 6; ++i)
        v.push_back(i);
    v.truncate(2);
    EXPECT_EQ(v.size(), 2u);
    EXPECT_EQ(v.back(), 1);
    v.clear();
    EXPECT_TRUE(v.empty());
}

TEST(EpochSet, MatchesStdSetThroughGrowthAndClears)
{
    // Rounds of random inserts (past several doublings) against a
    // std::set reference; clear() between rounds must forget everything.
    Rng rng(test::testSeed(9000));
    EpochSet<uint64_t> set;
    for (int round = 0; round < 6; ++round) {
        std::set<uint64_t> ref;
        const int inserts = round % 2 ? 5 : 3000;
        for (int i = 0; i < inserts; ++i) {
            uint64_t k = rng.below(4000) * 8; // word-aligned, collides
            EXPECT_EQ(set.insert(k), ref.insert(k).second);
        }
        EXPECT_EQ(set.size(), ref.size());
        for (uint64_t k = 0; k < 4000 * 8; k += 8)
            ASSERT_EQ(set.contains(k), ref.count(k) == 1) << k;
        set.clear();
        EXPECT_EQ(set.size(), 0u);
        for (uint64_t k : ref)
            ASSERT_FALSE(set.contains(k)) << k;
    }
}

TEST(TableWriter, AlignsAndRenders)
{
    TableWriter t({"name", "value"});
    t.row();
    t.cell(std::string("alpha"));
    t.cell(uint64_t{42});
    t.row();
    t.cell(std::string("b"));
    t.cell(3.14159, 2);
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("3.14"), std::string::npos);
}

TEST(TableWriter, CsvHasNoPadding)
{
    TableWriter t({"a", "b"});
    t.row();
    t.cell(uint64_t{1});
    t.cell(uint64_t{2});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Cli, ParsesForms)
{
    // Note: "--flag value" look-ahead means bare boolean flags must come
    // last or use --flag=true; positionals precede flags here.
    const char *argv[] = {"prog", "pos1", "--alpha=3", "--beta", "7",
                          "--flag"};
    CliArgs args(6, const_cast<char **>(argv),
                 {"alpha", "beta", "flag"});
    EXPECT_EQ(args.getInt("alpha", 0), 3);
    EXPECT_EQ(args.getInt("beta", 0), 7);
    EXPECT_TRUE(args.getBool("flag", false));
    ASSERT_EQ(args.positionals().size(), 1u);
    EXPECT_EQ(args.positionals()[0], "pos1");
}

TEST(Cli, DefaultsWhenAbsent)
{
    const char *argv[] = {"prog"};
    CliArgs args(1, const_cast<char **>(argv), {"x"});
    EXPECT_EQ(args.getInt("x", -5), -5);
    EXPECT_EQ(args.getString("x", "d"), "d");
    EXPECT_DOUBLE_EQ(args.getDouble("x", 2.5), 2.5);
    EXPECT_FALSE(args.has("x"));
}

TEST(Cli, NumericFormsAccepted)
{
    // Hex, negative and float forms all parse to the exact value.
    const char *argv[] = {"prog", "--a=0x10", "--b=-42", "--c=0.125"};
    CliArgs args(4, const_cast<char **>(argv), {"a", "b", "c"});
    EXPECT_EQ(args.getUint("a", 0), 16u);
    EXPECT_EQ(args.getInt("b", 0), -42);
    EXPECT_DOUBLE_EQ(args.getDouble("c", 0.0), 0.125);
}

TEST(CliDeathTest, DuplicateFlagIsFatal)
{
    const char *argv[] = {"prog", "--x=1", "--x=2"};
    EXPECT_EXIT(CliArgs(3, const_cast<char **>(argv), {"x"}),
                testing::ExitedWithCode(1), "duplicate flag --x");
}

TEST(CliDeathTest, MalformedNumbersAreFatal)
{
    const char *argv[] = {"prog", "--x=12abc"};
    CliArgs args(2, const_cast<char **>(argv), {"x"});
    EXPECT_EXIT((void)args.getInt("x", 0), testing::ExitedWithCode(1),
                "malformed value '12abc' for --x");
    EXPECT_EXIT((void)args.getUint("x", 0), testing::ExitedWithCode(1),
                "malformed value '12abc' for --x");
    EXPECT_EXIT((void)args.getDouble("x", 0), testing::ExitedWithCode(1),
                "malformed value '12abc' for --x");
}

TEST(CliDeathTest, NegativeUnsignedIsFatal)
{
    // strtoull would parse "-5" and wrap to 2^64-5.
    const char *argv[] = {"prog", "--x=-5"};
    CliArgs args(2, const_cast<char **>(argv), {"x"});
    EXPECT_EXIT((void)args.getUint("x", 0), testing::ExitedWithCode(1),
                "negative value '-5' for --x");
}

TEST(CliDeathTest, OutOfRangeNumbersAreFatal)
{
    // Values past the 64-bit range used to clamp silently to
    // LLONG_MAX / ULLONG_MAX; overflow to infinity likewise for doubles.
    const char *argv[] = {"prog", "--i=99999999999999999999",
                          "--u=18446744073709551616", "--d=1e999"};
    CliArgs args(4, const_cast<char **>(argv), {"i", "u", "d"});
    EXPECT_EXIT((void)args.getInt("i", 0), testing::ExitedWithCode(1),
                "out-of-range value '99999999999999999999' for --i");
    EXPECT_EXIT((void)args.getUint("u", 0), testing::ExitedWithCode(1),
                "out-of-range value '18446744073709551616' for --u");
    EXPECT_EXIT((void)args.getDouble("d", 0), testing::ExitedWithCode(1),
                "out-of-range value '1e999' for --d");
}

TEST(Cli, TryParsersRoundTripAndReject)
{
    int64_t i = 0;
    uint64_t u = 0;
    double d = 0.0;
    EXPECT_EQ(tryParseInt("-42", &i), "");
    EXPECT_EQ(i, -42);
    EXPECT_EQ(tryParseUint("0x10", &u), "");
    EXPECT_EQ(u, 16u);
    EXPECT_EQ(tryParseDouble("0.125", &d), "");
    EXPECT_DOUBLE_EQ(d, 0.125);

    EXPECT_EQ(tryParseUint("-5", &u), "negative value '-5'");
    EXPECT_EQ(tryParseUint("  -5", &u), "negative value '  -5'");
    EXPECT_EQ(tryParseInt("abc", &i), "malformed value 'abc'");
    EXPECT_EQ(tryParseInt("9223372036854775808", &i),
              "out-of-range value '9223372036854775808'");
    EXPECT_EQ(tryParseDouble("1e999", &d), "out-of-range value '1e999'");
    // Underflow keeps the nearest representable value (zero) silently.
    EXPECT_EQ(tryParseDouble("1e-999", &d), "");
    // INT64_MIN itself is in range for the signed parser.
    EXPECT_EQ(tryParseInt("-9223372036854775808", &i), "");
    EXPECT_EQ(i, INT64_MIN);
}

TEST(Cli, SplitList)
{
    auto v = splitList("a,b,,c");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "c");
    EXPECT_TRUE(splitList("").empty());
}

TEST(Logging, Strprintf)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 3, "z"), "x=3 y=z");
    EXPECT_EQ(strprintf("%llu", 18446744073709551615ull),
              "18446744073709551615");
}

// ------------------------------------------------------------------
// ThreadPool reuse: a daemon keeps one pool alive for its whole life,
// so submit()/wait() must stay sound across thousands of cycles — any
// missed-wakeup or lost-task window shows up here as a hang or a wrong
// count.

TEST(ThreadPool, ReuseAcrossThousandsOfSubmitWaitCycles)
{
    ThreadPool pool(4);
    std::atomic<uint64_t> ran{0};
    uint64_t expected = 0;
    for (int cycle = 0; cycle < 3000; ++cycle) {
        int burst = 1 + (cycle % 7);
        for (int t = 0; t < burst; ++t)
            pool.submit([&ran] { ran.fetch_add(1); });
        expected += static_cast<uint64_t>(burst);
        pool.wait();
        ASSERT_EQ(ran.load(), expected) << "cycle " << cycle;
    }
}

TEST(ThreadPool, WaitCoversTasksSubmittedWhileWorkersDrain)
{
    // A running task may enqueue more work; wait() must not return
    // between the parent finishing and the child running, because the
    // child is queued before the parent retires.
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < 8; ++i) {
            pool.submit([&] {
                pool.submit([&] { done.fetch_add(1); });
            });
        }
        pool.wait();
        ASSERT_EQ(done.load(), (round + 1) * 8);
    }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(1000);
    for (auto &h : hits)
        h.store(0);
    pool.parallelFor(hits.size(),
                     [&](uint64_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;

    // Degenerate batches.
    pool.parallelFor(0, [&](uint64_t) { FAIL() << "n == 0 ran fn"; });
    int ones = 0;
    pool.parallelFor(1, [&](uint64_t) { ++ones; });
    EXPECT_EQ(ones, 1);
}

TEST(ThreadPool, ConcurrentParallelForBatchesDoNotBlockEachOther)
{
    // Batch-scoped completion: clients sharing one pool must each see
    // exactly their own batch complete, even when batches overlap. The
    // pool is deliberately smaller than the client count — the calling
    // threads participate in draining, so this also cannot deadlock.
    ThreadPool pool(2);
    constexpr int kClients = 8;
    constexpr uint64_t kItems = 500;
    std::vector<std::vector<uint64_t>> out(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        out[c].assign(kItems, 0);
        clients.emplace_back([&pool, &out, c] {
            pool.parallelFor(kItems, [&out, c](uint64_t i) {
                out[c][i] = i + static_cast<uint64_t>(c);
            });
        });
    }
    for (auto &t : clients)
        t.join();
    for (int c = 0; c < kClients; ++c)
        for (uint64_t i = 0; i < kItems; ++i)
            ASSERT_EQ(out[c][i], i + static_cast<uint64_t>(c));
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // A worker task that itself fans out must make progress even when
    // every pool thread is busy with outer batches.
    ThreadPool pool(2);
    std::atomic<uint64_t> inner{0};
    pool.parallelFor(4, [&](uint64_t) {
        pool.parallelFor(16, [&](uint64_t) { inner.fetch_add(1); });
    });
    EXPECT_EQ(inner.load(), 64u);
}

} // namespace
} // namespace loopspec
