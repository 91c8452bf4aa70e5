/**
 * @file
 * Sweep-service suite (docs/DESIGN.md §12): the content-addressed
 * RecordingCache (key stability, LRU eviction under a tiny budget,
 * eviction determinism, shared_ptr lifetime across eviction), the wire
 * protocol (frame round-trip over a socketpair, hostile length fields,
 * request encode/decode), request validation at the remote-input
 * boundary, and the core guarantee: a SweepService serves results
 * bit-identical to runSpecSweep / sweep_loopspec, cold and warm, for
 * cells, rows, ideal artifacts and the full JSON rendering (in-process,
 * --trace-dir, rows-only and zero-budget-cache grids) — end to end
 * through a live SweepServer socket as well as in process — a server
 * that joins its finished connection threads, and one that answers a
 * corrupt --trace-dir payload with an error frame and keeps serving.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "service/protocol.hh"
#include "service/recording_cache.hh"
#include "service/sweep_server.hh"
#include "service/sweep_service.hh"
#include "speculation/sweep.hh"
#include "trace_io/container.hh"
#include "trace_io/trace_codec.hh"
#include "util/logging.hh"

using namespace loopspec;

namespace
{

/** A CachedRecording of a real (tiny) workload pass. */
std::shared_ptr<CachedRecording>
makeRecording(const std::string &workload, double scale, size_t cls)
{
    RunOptions opts;
    opts.scale.factor = scale;
    opts.clsEntries = cls;
    CollectFlags flags;
    flags.recording = true;
    return std::make_shared<CachedRecording>(
        runWorkload(workload, opts, flags).recording);
}

/** JSON with the volatile wall block dropped, for byte comparisons. */
std::string
renderedWithoutWall(const SweepResult &result, unsigned jobs)
{
    std::ostringstream os;
    writeSweepJson(os, result, jobs);
    std::string json = os.str();
    std::string out;
    size_t start = 0;
    while (start < json.size()) {
        size_t end = json.find('\n', start);
        if (end == std::string::npos)
            end = json.size();
        const std::string line = json.substr(start, end - start);
        if (line.find("swept_seconds") == std::string::npos)
            out += line + "\n";
        start = end + 1;
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------- cache keys

TEST(RecordingCacheKeys, StableAndFullyDiscriminating)
{
    const std::string base =
        RecordingCache::recordingKey("swim", 0.5, 1000, "run", 16);
    // Same inputs, same key — content addressing must be reproducible
    // across calls and across sessions.
    EXPECT_EQ(base,
              RecordingCache::recordingKey("swim", 0.5, 1000, "run", 16));
    // Every dimension of the key discriminates.
    EXPECT_NE(base,
              RecordingCache::recordingKey("gcc", 0.5, 1000, "run", 16));
    EXPECT_NE(base,
              RecordingCache::recordingKey("swim", 0.25, 1000, "run", 16));
    EXPECT_NE(base,
              RecordingCache::recordingKey("swim", 0.5, 999, "run", 16));
    EXPECT_NE(base, RecordingCache::recordingKey("swim", 0.5, 1000,
                                                 "traces/", 16));
    EXPECT_NE(base,
              RecordingCache::recordingKey("swim", 0.5, 1000, "run", 8));

    // The scale is addressed by its exact bit pattern, not its decimal
    // rendering: two factors that print identically at default
    // precision must still key differently.
    const double a = 0.1;
    const double b = 0.1 + 1e-17; // same printf("%g") text, different bits
    if (a != b) {
        EXPECT_NE(RecordingCache::recordingKey("swim", a, 0, "run", 16),
                  RecordingCache::recordingKey("swim", b, 0, "run", 16));
    }
}

TEST(RecordingCache, HitMissAndStatsAccounting)
{
    RecordingCache cache(uint64_t{64} << 20);
    const std::string key =
        RecordingCache::recordingKey("compress", 0.1, 0, "run", 4);

    EXPECT_EQ(cache.getRecording(key), nullptr);
    auto put = cache.putRecording(key, makeRecording("compress", 0.1, 4));
    ASSERT_NE(put, nullptr);
    auto got = cache.getRecording(key);
    EXPECT_EQ(got.get(), put.get());

    // First insert wins: a racing builder's duplicate is dropped and
    // the adopter receives the already-cached artifact.
    auto dup = cache.putRecording(key, makeRecording("compress", 0.1, 4));
    EXPECT_EQ(dup.get(), put.get());

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_GT(s.bytes, 0u);
}

TEST(RecordingCache, LruEvictionUnderTinyBudget)
{
    auto r1 = makeRecording("compress", 0.1, 4);
    auto r2 = makeRecording("compress", 0.1, 8);
    auto r3 = makeRecording("compress", 0.1, 16);

    // Budget fits roughly two of the three entries.
    RecordingCache cache(r1->memoryBytes() + r2->memoryBytes() + 512);
    const auto key = [](size_t cls) {
        return RecordingCache::recordingKey("compress", 0.1, 0, "run",
                                            cls);
    };
    cache.putRecording(key(4), r1);
    cache.putRecording(key(8), r2);
    // Touch key(4) so key(8) is the LRU victim when r3 arrives.
    EXPECT_NE(cache.getRecording(key(4)), nullptr);
    cache.putRecording(key(16), r3);

    EXPECT_NE(cache.getRecording(key(4)), nullptr);
    EXPECT_EQ(cache.getRecording(key(8)), nullptr) << "LRU entry kept";
    EXPECT_NE(cache.getRecording(key(16)), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // Eviction dropped only the cache's reference: the shared_ptr an
    // in-flight request holds keeps the artifact alive and intact.
    EXPECT_GT(r2->recording.totalInstrs, 0u);
    EXPECT_GT(r2->memoryBytes(), 0u);
}

TEST(RecordingCache, EvictionOrderIsDeterministic)
{
    // All six keys have the same length and all six entries copy the
    // same recording, so every accounted entry size is identical;
    // measure it through a probe cache instead of guessing overheads.
    auto rec = makeRecording("compress", 0.1, 4);
    uint64_t entry_bytes = 0;
    {
        RecordingCache probe(uint64_t{1} << 30);
        probe.putRecording(
            RecordingCache::recordingKey("compress", 0.1, 100, "run", 4),
            std::make_shared<CachedRecording>(
                LoopEventRecording(rec->recording)));
        entry_bytes = probe.stats().bytes;
    }
    ASSERT_GT(entry_bytes, 0u);

    // Same insert/touch sequence twice over separate caches must leave
    // the identical surviving set.
    for (int round = 0; round < 2; ++round) {
        RecordingCache cache(3 * entry_bytes);
        std::vector<std::string> keys;
        for (size_t i = 0; i < 6; ++i) {
            keys.push_back(RecordingCache::recordingKey(
                "compress", 0.1, /*max_instrs=*/100 + i, "run", 4));
            cache.putRecording(
                keys.back(), std::make_shared<CachedRecording>(
                                 LoopEventRecording(rec->recording)));
        }
        // Strict insertion-order LRU with no intervening touches: the
        // three oldest are gone, the three newest survive.
        for (size_t i = 0; i < 3; ++i)
            EXPECT_EQ(cache.getRecording(keys[i]), nullptr)
                << "round " << round << " key " << i;
        for (size_t i = 3; i < 6; ++i)
            EXPECT_NE(cache.getRecording(keys[i]), nullptr)
                << "round " << round << " key " << i;
    }
}

TEST(RecordingCache, OversizedLoneEntryIsEvictedImmediately)
{
    auto rec = makeRecording("compress", 0.2, 16);
    RecordingCache cache(16); // smaller than any real entry
    auto kept = cache.putRecording(
        RecordingCache::recordingKey("compress", 0.2, 0, "run", 16), rec);
    // The caller still gets the artifact for this request...
    ASSERT_NE(kept, nullptr);
    EXPECT_GT(kept->recording.totalInstrs, 0u);
    // ...but the cache deterministically holds nothing.
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_EQ(s.evictions, 1u);
}

// ------------------------------------------------------------------ protocol

TEST(SweepProtocol, FrameRoundTripOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string payload = "grid=paper\nscale=0.25\n";
    EXPECT_EQ(writeFrame(fds[0], MsgType::SweepReq, payload), "");

    MsgType type{};
    std::string got;
    bool eof = false;
    EXPECT_EQ(readFrame(fds[1], &type, &got, kMaxRequestBytes, &eof), "");
    EXPECT_FALSE(eof);
    EXPECT_EQ(type, MsgType::SweepReq);
    EXPECT_EQ(got, payload);

    // Empty payloads frame fine (ping/stats requests).
    EXPECT_EQ(writeFrame(fds[0], MsgType::PingReq, ""), "");
    EXPECT_EQ(readFrame(fds[1], &type, &got, kMaxRequestBytes, &eof), "");
    EXPECT_EQ(type, MsgType::PingReq);
    EXPECT_TRUE(got.empty());

    // Clean close between frames reports EOF, not an error.
    ::close(fds[0]);
    EXPECT_EQ(readFrame(fds[1], &type, &got, kMaxRequestBytes, &eof), "");
    EXPECT_TRUE(eof);
    ::close(fds[1]);
}

TEST(SweepProtocol, HostileLengthFieldIsRejectedBeforeAllocation)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Hand-crafted header claiming a 256 MB request body.
    const uint8_t header[5] = {0x01, 0x00, 0x00, 0x00, 0x10};
    ASSERT_EQ(::send(fds[0], header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));

    MsgType type{};
    std::string payload;
    bool eof = false;
    std::string err =
        readFrame(fds[1], &type, &payload, kMaxRequestBytes, &eof);
    EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
    EXPECT_TRUE(payload.empty()) << "must not allocate for a bad length";

    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(SweepProtocol, TruncatedFrameIsAnError)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Header promises 100 bytes; the peer dies after 3.
    const uint8_t bytes[8] = {0x01, 100, 0, 0, 0, 'a', 'b', 'c'};
    ASSERT_EQ(::send(fds[0], bytes, sizeof(bytes), 0),
              static_cast<ssize_t>(sizeof(bytes)));
    ::close(fds[0]);

    MsgType type{};
    std::string payload;
    bool eof = false;
    std::string err =
        readFrame(fds[1], &type, &payload, kMaxRequestBytes, &eof);
    EXPECT_NE(err.find("mid-frame"), std::string::npos) << err;
    ::close(fds[1]);
}

TEST(SweepProtocol, RequestEncodeDecodeRoundTrip)
{
    SweepRequest req;
    req.grid = "policies=str;tus=2,4";
    req.benchmarks = "swim,gcc";
    req.scale = "0.25";
    req.maxInstrs = "100000";

    SweepRequest back;
    EXPECT_EQ(decodeSweepRequest(encodeSweepRequest(req), &back), "");
    EXPECT_EQ(back.grid, req.grid);
    EXPECT_EQ(back.benchmarks, req.benchmarks);
    EXPECT_EQ(back.scale, req.scale);
    EXPECT_EQ(back.maxInstrs, req.maxInstrs);
    EXPECT_TRUE(back.cls.empty());
    EXPECT_TRUE(back.jobs.empty());
    EXPECT_TRUE(back.traceDir.empty());
}

TEST(SweepProtocol, MalformedRequestsAreDiagnosedNotFatal)
{
    SweepRequest req;
    EXPECT_NE(decodeSweepRequest("no-equals-sign", &req), "");
    EXPECT_NE(decodeSweepRequest("mystery=1\n", &req), "");
    EXPECT_NE(decodeSweepRequest("scale=0.5\nscale=0.25\n", &req), "");
    EXPECT_NE(decodeSweepRequest("scale=\n", &req), "");
    // Empty request = all defaults; valid at this layer.
    EXPECT_EQ(decodeSweepRequest("", &req), "");
}

// ------------------------------------------------------- request validation

TEST(SweepServiceValidation, RejectsBadRemoteInputWithDiagnostics)
{
    SweepServiceConfig cfg;
    cfg.jobs = 2;
    SweepService svc(cfg);

    SweepGrid grid;
    unsigned jobs = 0;
    const auto err = [&](SweepRequest req) {
        return svc.requestToGrid(req, &grid, &jobs);
    };

    SweepRequest req;
    req.benchmarks = "compress";
    req.grid = "policies=str;tus=2";
    EXPECT_EQ(err(req), "");

    SweepRequest bad = req;
    bad.scale = "-1";
    EXPECT_NE(err(bad), "");
    bad = req;
    bad.scale = "abc";
    EXPECT_NE(err(bad), "");
    bad = req;
    bad.scale = "1e999"; // overflows to inf
    EXPECT_NE(err(bad), "");
    bad = req;
    bad.cls = "-5"; // negative unsigned must not wrap
    EXPECT_NE(err(bad), "");
    bad = req;
    bad.cls = "0";
    EXPECT_NE(err(bad), "");
    bad = req;
    bad.cls = "18446744073709551616"; // 2^64 overflows
    EXPECT_NE(err(bad), "");
    bad = req;
    bad.maxInstrs = "12x";
    EXPECT_NE(err(bad), "");
    bad = req;
    bad.benchmarks = "no_such_workload";
    EXPECT_NE(err(bad), "");
    bad = req;
    bad.grid = "tus=0";
    EXPECT_NE(err(bad), "");
    bad = req;
    bad.grid = "nonsense";
    EXPECT_NE(err(bad), "");
    bad = req;
    bad.grid = "ideal=1,0"; // a row switch, not a list
    EXPECT_NE(err(bad), "");
    bad = req;
    bad.traceDir = "/not/served"; // server runs without a trace dir
    EXPECT_NE(err(bad), "");
    bad = req;
    bad.grid = "policies=str+data;tus=2"; // retired suffix, now +live
    EXPECT_NE(err(bad), "");
    // Multi-CLS data-speculation grids cannot be replay-derived.
    bad = req;
    bad.grid = "policies=str+live;tus=2;cls=8,16";
    EXPECT_NE(err(bad), "");
    // --check-replay semantics (fatal on divergence) are not
    // daemon-safe.
    SweepGrid cr;
    cr.workloads = {"compress"};
    cr.checkReplay = true;
    EXPECT_NE(svc.validateGrid(cr), "");
}

// -------------------------------------------------------- served bit-identity

TEST(SweepService, ServedResultsMatchDirectSweepBitForBit)
{
    SweepGrid grid;
    grid.workloads = {"compress", "li"};
    grid.scale.factor = 0.1;
    ASSERT_EQ(applyGridSpec("policies=idle,str,str2;tus=2,4;cls=8,16;"
                            "ideal=1",
                            &grid),
              "");

    // The same grid replayed from exported containers, served from the
    // directory they were exported to.
    char dir_template[] = "/tmp/sweepd_test_traces_XXXXXX";
    ASSERT_NE(mkdtemp(dir_template), nullptr);
    const std::string trace_dir = dir_template;
    RunOptions export_opts;
    export_opts.scale = grid.scale;
    for (const std::string &w : grid.workloads)
        exportWorkloadTrace(w, export_opts, trace_dir,
                            TraceEncoding::Varint);
    SweepGrid traced = grid;
    traced.traceDir = trace_dir;

    // Rows only: no policies, so no recordings, just the ideal rows.
    SweepGrid rows_only;
    rows_only.workloads = grid.workloads;
    rows_only.scale = grid.scale;
    ASSERT_EQ(applyGridSpec("cls=8,16;ideal=1", &rows_only), "");

    SweepServiceConfig cached;
    cached.jobs = 2;
    SweepServiceConfig traced_cfg = cached;
    traced_cfg.traceDir = trace_dir;
    SweepServiceConfig uncached = cached;
    uncached.cacheBytes = 0;

    struct Case
    {
        const char *what;
        const SweepGrid &grid;
        const SweepServiceConfig &cfg;
    };
    const Case cases[] = {{"in-process", grid, cached},
                          {"trace-dir", traced, traced_cfg},
                          {"rows-only", rows_only, cached},
                          {"zero-budget cache", grid, uncached}};
    for (const Case &k : cases) {
        SCOPED_TRACE(k.what);
        const SweepResult direct = runSpecSweep(k.grid, 2);
        SweepService svc(k.cfg);

        // Cold, then warm: identical results both times, and identical
        // to the plain engine — rows, ideal artifacts, and every cell.
        for (int pass = 0; pass < 2; ++pass) {
            SweepResult served;
            ASSERT_EQ(svc.run(k.grid, &served), "") << "pass " << pass;
            ASSERT_EQ(served.rows.size(), direct.rows.size());
            for (size_t i = 0; i < direct.rows.size(); ++i) {
                EXPECT_EQ(served.rows[i].totalInstrs,
                          direct.rows[i].totalInstrs);
                // Exact double equality is the point: replay-derived
                // artifacts are bit-identical, not approximately equal.
                EXPECT_EQ(served.rows[i].idealTpc,
                          direct.rows[i].idealTpc)
                    << "row " << i << " pass " << pass;
                EXPECT_EQ(served.rows[i].idealTpcPrefix,
                          direct.rows[i].idealTpcPrefix)
                    << "row " << i << " pass " << pass;
            }
            ASSERT_EQ(served.cells.size(), direct.cells.size());
            for (size_t i = 0; i < direct.cells.size(); ++i) {
                EXPECT_TRUE(served.cells[i].stats ==
                            direct.cells[i].stats)
                    << "cell " << i << " pass " << pass;
            }
            // The full JSON rendering (sans wall clock) matches too —
            // the same guarantee the CI smoke test checks through the
            // binary.
            EXPECT_EQ(renderedWithoutWall(served, 2),
                      renderedWithoutWall(direct, 2))
                << "pass " << pass;
        }

        const CacheStats s = svc.cacheStats();
        if (k.cfg.cacheBytes == 0) {
            EXPECT_EQ(s.entries, 0u) << "a zero budget caches nothing";
        } else if (k.grid.hasCells()) {
            // The warm pass was actually warm.
            EXPECT_GT(s.hits, 0u);
            EXPECT_GT(s.insertions, 0u);
        }
    }
    std::filesystem::remove_all(trace_dir);
}

TEST(SweepService, DataSpecGridsAreServedFromCacheBitForBit)
{
    // Live-in + §4-report grid (single CLS) and a conflicts grid over
    // two CLS sizes: both served through the cache — annotated
    // recordings, the memory-access sidecar and the report are frozen
    // like any other artifact — and byte-identical to the direct
    // engine, warm or cold.
    SweepGrid live;
    live.workloads = {"compress"};
    live.scale.factor = 0.1;
    ASSERT_EQ(applyGridSpec("policies=str+live;tus=2;dataspec=1", &live),
              "");

    SweepGrid mem;
    mem.workloads = {"compress"};
    mem.scale.factor = 0.1;
    ASSERT_EQ(
        applyGridSpec("policies=str;tus=2;cls=8,16;dataspec=mem", &mem),
        "");

    SweepServiceConfig cfg;
    cfg.jobs = 1;
    SweepService svc(cfg);

    for (const SweepGrid *grid : {&live, &mem}) {
        const SweepResult direct = runSpecSweep(*grid, 1);
        const uint64_t misses_before = svc.cacheStats().misses;
        for (int pass = 0; pass < 2; ++pass) {
            SweepResult served;
            ASSERT_EQ(svc.run(*grid, &served), "") << "pass " << pass;
            EXPECT_EQ(renderedWithoutWall(served, 1),
                      renderedWithoutWall(direct, 1))
                << "pass " << pass;
        }
        // The warm pass was actually warm: no new misses after the
        // cold pass populated the operand-derived entries.
        const CacheStats s = svc.cacheStats();
        EXPECT_GT(s.insertions, 0u);
        EXPECT_GT(s.misses, misses_before);
        SweepResult again;
        const uint64_t misses_warm = svc.cacheStats().misses;
        ASSERT_EQ(svc.run(*grid, &again), "");
        EXPECT_EQ(svc.cacheStats().misses, misses_warm);
    }
}

// ------------------------------------------------------------ server end-to-end

TEST(SweepServer, ServesGridOverUnixSocketAndShutsDown)
{
    SweepServerConfig cfg;
    cfg.socketPath =
        strprintf("/tmp/sweepd_test_%d.sock", static_cast<int>(getpid()));
    cfg.service.jobs = 2;
    SweepServer server(cfg);
    ASSERT_EQ(server.start(), "");

    const std::string grid_spec = "policies=str;tus=2;cls=8";
    SweepRequest req;
    req.grid = grid_spec;
    req.benchmarks = "compress";
    req.scale = "0.1";
    req.jobs = "2";

    std::string err;
    int fd = connectUnixSocket(cfg.socketPath, &err);
    ASSERT_GE(fd, 0) << err;

    // Sweep request → JSON identical to the in-process engine's.
    ASSERT_EQ(writeFrame(fd, MsgType::SweepReq, encodeSweepRequest(req)),
              "");
    MsgType type{};
    std::string response;
    bool eof = false;
    ASSERT_EQ(readFrame(fd, &type, &response, kMaxResponseBytes, &eof),
              "");
    ASSERT_EQ(type, MsgType::JsonResp) << response;

    SweepGrid grid;
    grid.workloads = {"compress"};
    grid.scale.factor = 0.1;
    ASSERT_EQ(applyGridSpec(grid_spec, &grid), "");
    std::ostringstream direct;
    writeSweepJson(direct, runSpecSweep(grid, 2), 2);
    // Volatile wall block differs; everything before it must not.
    EXPECT_EQ(response.substr(0, response.find("\"wall\"")),
              direct.str().substr(0, direct.str().find("\"wall\"")));

    // Bad request on the same connection → ErrResp, connection and
    // server both stay healthy.
    req.scale = "not-a-number";
    ASSERT_EQ(writeFrame(fd, MsgType::SweepReq, encodeSweepRequest(req)),
              "");
    ASSERT_EQ(readFrame(fd, &type, &response, kMaxResponseBytes, &eof),
              "");
    EXPECT_EQ(type, MsgType::ErrResp);
    EXPECT_NE(response.find("malformed"), std::string::npos) << response;

    // Ping still works after the error.
    ASSERT_EQ(writeFrame(fd, MsgType::PingReq, ""), "");
    ASSERT_EQ(readFrame(fd, &type, &response, kMaxResponseBytes, &eof),
              "");
    EXPECT_EQ(type, MsgType::PongResp);
    EXPECT_EQ(response, "pong");

    // Stats frame parses as non-empty JSON with the served count.
    ASSERT_EQ(writeFrame(fd, MsgType::StatsReq, ""), "");
    ASSERT_EQ(readFrame(fd, &type, &response, kMaxResponseBytes, &eof),
              "");
    EXPECT_EQ(type, MsgType::StatsResp);
    EXPECT_NE(response.find("\"requests_served\""), std::string::npos);

    // Shutdown request is acknowledged and releases waitForShutdown.
    ASSERT_EQ(writeFrame(fd, MsgType::ShutdownReq, ""), "");
    ASSERT_EQ(readFrame(fd, &type, &response, kMaxResponseBytes, &eof),
              "");
    EXPECT_EQ(type, MsgType::PongResp);
    ::close(fd);

    server.waitForShutdown();
    server.stop();
    // Only the sweep that actually ran counts; the rejected one never
    // reached the engine.
    EXPECT_EQ(server.service().requestsServed(), 1u);
}

TEST(SweepServer, CorruptTracePayloadIsAnErrorNotACrash)
{
    // Two exported containers; flip one payload byte of compress's.
    // Header and section table still validate, so the corruption only
    // surfaces mid-stream, inside the streamed functional pass.
    char dir_template[] = "/tmp/sweepd_test_corrupt_XXXXXX";
    ASSERT_NE(mkdtemp(dir_template), nullptr);
    const std::string trace_dir = dir_template;
    RunOptions export_opts;
    export_opts.scale.factor = 0.1;
    for (const char *w : {"compress", "li"})
        exportWorkloadTrace(w, export_opts, trace_dir,
                            TraceEncoding::Varint);
    const std::string bad_path =
        traceFilePath(trace_dir, "compress", kControlTraceExt);
    std::vector<uint8_t> bytes;
    ASSERT_EQ(readFileBytes(bad_path, &bytes), "");
    uint64_t table_offset = 0;
    for (int i = 7; i >= 0; --i)
        table_offset = (table_offset << 8) | bytes[16 + i];
    ASSERT_GT(table_offset, kTraceHeaderBytes + 64);
    bytes[(kTraceHeaderBytes + table_offset) / 2] ^= 0x01;
    writeFileBytes(bad_path, bytes);

    SweepServerConfig cfg;
    cfg.socketPath = strprintf("/tmp/sweepd_test_corrupt_%d.sock",
                               static_cast<int>(getpid()));
    cfg.service.jobs = 2;
    cfg.service.traceDir = trace_dir;
    SweepServer server(cfg);
    ASSERT_EQ(server.start(), "");

    std::string err;
    int fd = connectUnixSocket(cfg.socketPath, &err);
    ASSERT_GE(fd, 0) << err;
    const auto request = [&](MsgType req_type, const std::string &body,
                             std::string *response) {
        MsgType type{};
        bool eof = false;
        EXPECT_EQ(writeFrame(fd, req_type, body), "");
        EXPECT_EQ(
            readFrame(fd, &type, response, kMaxResponseBytes, &eof), "");
        return type;
    };
    const std::string grid_spec = "policies=str;tus=2;cls=8,16;ideal=1";
    SweepRequest req;
    req.grid = grid_spec;
    req.scale = "0.1";
    req.jobs = "2";
    req.traceDir = trace_dir;
    std::string response;

    req.benchmarks = "compress";
    EXPECT_EQ(request(MsgType::SweepReq, encodeSweepRequest(req),
                      &response),
              MsgType::ErrResp);
    EXPECT_NE(response.find(bad_path), std::string::npos) << response;

    // A single-CLS grid without the ideal prefix derives nothing, so
    // only the functional pass reads the container: the same error
    // frame must come back from the pass alone.
    SweepRequest single = req;
    single.grid = "policies=str;tus=2;cls=8";
    EXPECT_EQ(request(MsgType::SweepReq, encodeSweepRequest(single),
                      &response),
              MsgType::ErrResp);
    EXPECT_NE(response.find(bad_path), std::string::npos) << response;

    // The daemon survived: it still answers a ping and a good grid,
    // and the good grid is bit-identical to a direct sweep.
    EXPECT_EQ(request(MsgType::PingReq, "", &response), MsgType::PongResp);
    req.benchmarks = "li";
    ASSERT_EQ(request(MsgType::SweepReq, encodeSweepRequest(req),
                      &response),
              MsgType::JsonResp)
        << response;
    SweepGrid grid;
    grid.workloads = {"li"};
    grid.scale.factor = 0.1;
    grid.traceDir = trace_dir;
    ASSERT_EQ(applyGridSpec(grid_spec, &grid), "");
    std::ostringstream direct;
    writeSweepJson(direct, runSpecSweep(grid, 2), 2);
    EXPECT_EQ(response.substr(0, response.find("\"wall\"")),
              direct.str().substr(0, direct.str().find("\"wall\"")));

    ::close(fd);
    server.stop();
    std::filesystem::remove_all(trace_dir);
}

TEST(SweepServer, ConcurrentClientsGetIdenticalResponses)
{
    SweepServerConfig cfg;
    cfg.socketPath = strprintf("/tmp/sweepd_test_cc_%d.sock",
                               static_cast<int>(getpid()));
    cfg.tcpPort = 0; // ephemeral loopback listener as well
    cfg.service.jobs = 2;
    SweepServer server(cfg);
    ASSERT_EQ(server.start(), "");
    ASSERT_GT(server.tcpPort(), 0);

    SweepRequest req;
    req.grid = "policies=str,str1;tus=2,4;cls=8";
    req.benchmarks = "compress";
    req.scale = "0.1";
    const std::string payload = encodeSweepRequest(req);

    constexpr unsigned kClients = 8;
    constexpr unsigned kItersPerClient = 3;
    std::vector<std::string> responses(kClients);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            std::string err;
            // Mix the two transports: even clients Unix, odd TCP.
            int fd = (c % 2 == 0)
                         ? connectUnixSocket(cfg.socketPath, &err)
                         : connectTcpSocket(server.tcpPort(), &err);
            ASSERT_GE(fd, 0) << err;
            for (unsigned i = 0; i < kItersPerClient; ++i) {
                ASSERT_EQ(writeFrame(fd, MsgType::SweepReq, payload), "");
                MsgType type{};
                std::string response;
                bool eof = false;
                ASSERT_EQ(readFrame(fd, &type, &response,
                                    kMaxResponseBytes, &eof),
                          "");
                ASSERT_EQ(type, MsgType::JsonResp) << response;
                // Strip the volatile timing, keep everything else.
                responses[c] = response.substr(
                    0, response.find("\"wall\""));
            }
            ::close(fd);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (unsigned c = 1; c < kClients; ++c)
        EXPECT_EQ(responses[c], responses[0]) << "client " << c;

    server.stop();
    EXPECT_EQ(server.service().requestsServed(),
              uint64_t{kClients} * kItersPerClient);
}

namespace
{

/** A numeric field of /proc/self/status ("Threads:", "VmSize:" in kB);
 *  -1 when absent. */
long
procStatus(const std::string &field)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(field, 0) == 0)
            return std::stol(line.substr(field.size()));
    }
    return -1;
}

} // namespace

TEST(SweepServer, FinishedConnectionThreadsAreReaped)
{
    SweepServerConfig cfg;
    cfg.socketPath = strprintf("/tmp/sweepd_test_reap_%d.sock",
                               static_cast<int>(getpid()));
    cfg.service.jobs = 1;
    SweepServer server(cfg);
    ASSERT_EQ(server.start(), "");
    const long threads_before = procStatus("Threads:");
    const long vm_kb_before = procStatus("VmSize:");
    ASSERT_GT(threads_before, 0);
    ASSERT_GT(vm_kb_before, 0);

    // One connection per ping, strictly sequential: a server that never
    // joins its connection threads grows without bound here.
    for (int i = 0; i < 2000; ++i) {
        std::string err;
        int fd = connectUnixSocket(cfg.socketPath, &err);
        ASSERT_GE(fd, 0) << err;
        ASSERT_EQ(writeFrame(fd, MsgType::PingReq, ""), "");
        MsgType type{};
        std::string response;
        bool eof = false;
        ASSERT_EQ(readFrame(fd, &type, &response, kMaxResponseBytes, &eof),
                  "");
        ASSERT_EQ(type, MsgType::PongResp);
        ::close(fd);
    }
    EXPECT_LE(procStatus("Threads:"), threads_before + 4);
    // A finished but unjoined thread has left the kernel's thread count
    // yet still maps its stack, so the address space is the real leak
    // signal: 2000 leaked stacks would add gigabytes.
    EXPECT_LE(procStatus("VmSize:"), vm_kb_before + 256 * 1024);
    server.stop();
}
