/**
 * @file
 * Equivalence tests for interleaved multi-trace replay
 * (src/trace_io/replay_source.hh): round-robin chunk scheduling across N
 * independent replay sources must be a pure scheduling change — every
 * source observes the bit-identical stream its sequential counterpart
 * delivers, for in-memory control traces, out-of-core streamed
 * containers, truncation windows, and failure paths. Registered under
 * the "replay" ctest label (not "quick").
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "loop/loop_detector.hh"
#include "loop/loop_stats.hh"
#include "speculation/event_record.hh"
#include "trace_io/replay_source.hh"
#include "trace_io/stream_reader.hh"
#include "trace_io/trace_codec.hh"
#include "tracegen/control_trace.hh"
#include "tracegen/trace_engine.hh"
#include "workloads/workload.hh"

namespace loopspec
{
namespace
{

constexpr double kScale = 0.02;

/** One recorded compress run: the shared replay input. */
ControlTrace
recordTrace(const char *workload = "compress")
{
    Program p = buildWorkload(workload, {kScale});
    TraceEngine engine(p);
    ControlTraceRecorder rec;
    engine.addObserver(&rec);
    engine.run();
    return rec.take();
}

/** Detector + loop-event re-recording for one derived CLS config; the
 *  recording is the bit-exact comparison artifact. */
struct DerivedConfig
{
    LoopDetector det;
    LoopStats stats;
    LoopEventRecorder rec;

    explicit DerivedConfig(size_t cls) : det({cls})
    {
        det.addListener(&stats);
        det.addListener(&rec);
    }
};

LoopEventRecording
sequentialReference(const ControlTrace &trace, size_t cls,
                    uint64_t max_instrs = 0)
{
    DerivedConfig cfg(cls);
    replayControlTrace(trace, cfg.det, max_instrs);
    return cfg.rec.take();
}

TEST(InterleavedReplay, SingleSourceEqualsPlainReplay)
{
    ControlTrace trace = recordTrace();
    LoopEventRecording ref = sequentialReference(trace, 16);

    DerivedConfig cfg(16);
    ControlTraceSource src(trace, cfg.det);
    EXPECT_EQ(interleaveReplay({&src}, 1000), "");
    EXPECT_EQ(src.replayed(), trace.totalInstrs);
    EXPECT_EQ(compareRecordings(ref, cfg.rec.take()), "");
}

TEST(InterleavedReplay, FourClsConfigsMatchSequentialBitExact)
{
    ControlTrace trace = recordTrace();
    const size_t clsSizes[] = {2, 4, 8, 16};

    std::vector<std::unique_ptr<DerivedConfig>> configs;
    std::vector<std::unique_ptr<ControlTraceSource>> sources;
    std::vector<ReplaySource *> ptrs;
    for (size_t cls : clsSizes) {
        configs.push_back(std::make_unique<DerivedConfig>(cls));
        sources.push_back(std::make_unique<ControlTraceSource>(
            trace, configs.back()->det));
        ptrs.push_back(sources.back().get());
    }
    EXPECT_EQ(interleaveReplay(ptrs, 777), "");
    for (size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE(clsSizes[c]);
        EXPECT_EQ(sources[c]->replayed(), trace.totalInstrs);
        EXPECT_EQ(compareRecordings(
                      sequentialReference(trace, clsSizes[c]),
                      configs[c]->rec.take()),
                  "");
    }
}

TEST(InterleavedReplay, ChunkSizeNeverChangesTheStream)
{
    ControlTrace trace = recordTrace("li");
    LoopEventRecording ref = sequentialReference(trace, 8);
    for (uint64_t chunk : {1u, 7u, 4096u, 1u << 20}) {
        SCOPED_TRACE(chunk);
        DerivedConfig a(8), b(8);
        ControlTraceSource sa(trace, a.det), sb(trace, b.det);
        EXPECT_EQ(interleaveReplay({&sa, &sb}, chunk), "");
        EXPECT_EQ(compareRecordings(ref, a.rec.take()), "");
        EXPECT_EQ(compareRecordings(ref, b.rec.take()), "");
    }
}

TEST(InterleavedReplay, TruncatedWindowsMatchSequentialTruncation)
{
    // Sources with different max_instrs windows interleaved together:
    // each must stop exactly where its sequential counterpart stops,
    // even though the other sources keep pumping past that point.
    ControlTrace trace = recordTrace();
    const uint64_t cuts[] = {trace.totalInstrs / 3,
                             trace.totalInstrs / 2, 12345,
                             trace.totalInstrs};

    std::vector<std::unique_ptr<DerivedConfig>> configs;
    std::vector<std::unique_ptr<ControlTraceSource>> sources;
    std::vector<ReplaySource *> ptrs;
    for (uint64_t cut : cuts) {
        configs.push_back(std::make_unique<DerivedConfig>(16));
        sources.push_back(std::make_unique<ControlTraceSource>(
            trace, configs.back()->det, cut));
        ptrs.push_back(sources.back().get());
    }
    EXPECT_EQ(interleaveReplay(ptrs, 1000), "");
    for (size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE(cuts[c]);
        EXPECT_EQ(sources[c]->replayed(), cuts[c]);
        EXPECT_EQ(compareRecordings(
                      sequentialReference(trace, 16, cuts[c]),
                      configs[c]->rec.take()),
                  "");
    }
}

TEST(InterleavedReplay, StreamedSourcesMatchInMemory)
{
    // Out-of-core sources: three streamers over one container file,
    // interleaved at different CLS sizes with tiny I/O chunks so pump
    // boundaries land inside every record shape.
    ControlTrace trace = recordTrace();
    std::string path = traceFilePath(::testing::TempDir(),
                                     "ilv_streamed", kControlTraceExt);
    writeControlTraceFile(path, trace, TraceEncoding::Varint);

    const size_t clsSizes[] = {4, 8, 16};
    std::vector<std::unique_ptr<TraceFileStreamer>> streamers;
    std::vector<std::unique_ptr<DerivedConfig>> configs;
    std::vector<std::unique_ptr<StreamedControlSource>> sources;
    std::vector<ReplaySource *> ptrs;
    for (size_t cls : clsSizes) {
        std::string err;
        StreamConfig scfg;
        scfg.chunkBytes = 512;
        auto streamer = TraceFileStreamer::open(path, scfg, &err);
        ASSERT_TRUE(streamer) << err;
        configs.push_back(std::make_unique<DerivedConfig>(cls));
        sources.push_back(std::make_unique<StreamedControlSource>(
            *streamer, configs.back()->det));
        streamers.push_back(std::move(streamer));
        ptrs.push_back(sources.back().get());
    }
    EXPECT_EQ(interleaveReplay(ptrs, 513), "");
    for (size_t c = 0; c < configs.size(); ++c) {
        SCOPED_TRACE(clsSizes[c]);
        EXPECT_EQ(compareRecordings(
                      sequentialReference(trace, clsSizes[c]),
                      configs[c]->rec.take()),
                  "");
    }
}

TEST(InterleavedReplay, StreamedTruncationWindowMatchesInMemory)
{
    ControlTrace trace = recordTrace("li");
    std::string path = traceFilePath(::testing::TempDir(),
                                     "ilv_streamed_cut", kControlTraceExt);
    writeControlTraceFile(path, trace, TraceEncoding::Raw);
    const uint64_t cut = trace.totalInstrs / 2;

    std::string err;
    auto streamer = TraceFileStreamer::open(path, {}, &err);
    ASSERT_TRUE(streamer) << err;
    DerivedConfig cfg(8);
    StreamedControlSource src(*streamer, cfg.det, cut);
    EXPECT_EQ(interleaveReplay({&src}, 1000), "");
    EXPECT_EQ(compareRecordings(sequentialReference(trace, 8, cut),
                                cfg.rec.take()),
              "");
}

TEST(InterleavedReplay, CorruptStreamFailsButDrainsHealthySources)
{
    // A mid-payload file truncation must surface as an interleave error
    // while the healthy in-memory source still completes bit-exact.
    ControlTrace trace = recordTrace();
    std::string path = traceFilePath(::testing::TempDir(),
                                     "ilv_corrupt", kControlTraceExt);
    writeControlTraceFile(path, trace, TraceEncoding::Varint);
    {
        std::ifstream in(path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        ASSERT_GT(bytes.size(), 256u);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() * 3 / 4));
    }

    std::string err;
    auto streamer = TraceFileStreamer::open(path, {}, &err);
    if (!streamer) {
        // Truncation already rejected at open: equally acceptable.
        EXPECT_FALSE(err.empty());
        return;
    }
    DerivedConfig bad(16), good(16);
    StreamedControlSource badSrc(*streamer, bad.det);
    ControlTraceSource goodSrc(trace, good.det);
    std::string ierr = interleaveReplay({&badSrc, &goodSrc}, 1000);
    EXPECT_FALSE(ierr.empty());
    EXPECT_FALSE(badSrc.error().empty());
    EXPECT_EQ(goodSrc.replayed(), trace.totalInstrs);
    EXPECT_EQ(compareRecordings(sequentialReference(trace, 16),
                                good.rec.take()),
              "");
}

} // namespace
} // namespace loopspec
