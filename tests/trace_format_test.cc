/**
 * @file
 * Binary trace-container format pinning (docs/TRACE_FORMAT.md): golden
 * byte-for-byte round trips against the checked-in corpus under
 * tests/data/, exact header-layout/endianness assertions, version-policy
 * enforcement (unknown minor versions are *refused*, not skipped),
 * corruption/truncation rejection, and the out-of-core streaming
 * reader's fixed-memory guarantee over a 10^5-static-loop trace.
 *
 * The golden files pin the format across releases: if an encoder change
 * alters any byte of these images, the change is a format break and must
 * bump the version — regenerate the corpus consciously, never casually.
 */

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "loop/loop_detector.hh"
#include "loop/loop_stats.hh"
#include "tests/test_util.hh"
#include "trace_io/container.hh"
#include "trace_io/crc32.hh"
#include "trace_io/stream_reader.hh"
#include "trace_io/trace_codec.hh"
#include "trace_io/varint.hh"
#include "tracegen/control_trace.hh"
#include "tracegen/trace_engine.hh"

namespace loopspec
{
namespace
{

const char *const kDataDir = LOOPSPEC_SOURCE_DIR "/tests/data/";

std::vector<uint8_t>
readGolden(const std::string &name)
{
    std::vector<uint8_t> bytes;
    std::string err = readFileBytes(kDataDir + name, &bytes);
    EXPECT_EQ(err, "") << name;
    return bytes;
}

/** Fresh per-process subdirectory under the gtest temp dir: ctest runs
 *  this binary twice at once (per-test and as trace_format_suite_io), and
 *  both exports would otherwise write the same file. */
std::string
freshTraceDir(const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "trace_format_" + tag + "_" +
                      std::to_string(::getpid());
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

/** The corpus generator: the control trace of nestedLoops(3, 4, 1). */
struct GoldenSource
{
    ControlTrace trace;

    GoldenSource()
    {
        Program prog = test::nestedLoops(3, 4, 1);
        TraceEngine engine(prog, {});
        ControlTraceRecorder ctr;
        engine.addObserver(&ctr);
        engine.run();
        trace = ctr.take();
    }
};

// ------------------------------------------------------ golden pinning

TEST(TraceFormatGolden, ControlTraceBytesAreStable)
{
    GoldenSource src;
    EXPECT_EQ(encodeControlTrace(src.trace, TraceEncoding::Raw),
              readGolden("golden_nest.raw.lstrace"));
    EXPECT_EQ(encodeControlTrace(src.trace, TraceEncoding::Varint),
              readGolden("golden_nest.vz.lstrace"));
}

TEST(TraceFormatGolden, GoldenFilesDecodeToTheSourceStructures)
{
    GoldenSource src;
    for (const char *name :
         {"golden_nest.raw.lstrace", "golden_nest.vz.lstrace"}) {
        std::vector<uint8_t> image = readGolden(name);
        ControlTrace back;
        ASSERT_EQ(decodeControlTrace(image.data(), image.size(), &back),
                  "")
            << name;
        EXPECT_EQ(compareControlTraces(src.trace, back), "") << name;
    }
}

TEST(TraceFormatGolden, RawAndVarintDecodeIdentically)
{
    std::vector<uint8_t> raw = readGolden("golden_nest.raw.lstrace");
    std::vector<uint8_t> vz = readGolden("golden_nest.vz.lstrace");
    ControlTrace a, b;
    ASSERT_EQ(decodeControlTrace(raw.data(), raw.size(), &a), "");
    ASSERT_EQ(decodeControlTrace(vz.data(), vz.size(), &b), "");
    EXPECT_EQ(compareControlTraces(a, b), "");
    EXPECT_LT(vz.size(), raw.size()); // varint must actually compress
}

// ----------------------------------------------- header layout pinning

TEST(TraceFormatHeader, ByteLayoutIsPinnedLittleEndian)
{
    std::vector<uint8_t> image = readGolden("golden_nest.raw.lstrace");
    ASSERT_GE(image.size(), kTraceHeaderBytes);
    const uint8_t *h = image.data();

    // Magic: 0x89 "LSTR" CR LF SUB — binary-vs-text transfer tripwires.
    const uint8_t magic[8] = {0x89, 'L', 'S', 'T', 'R', 0x0D, 0x0A, 0x1A};
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(h[i], magic[i]) << "magic byte " << i;

    EXPECT_EQ(getLe(h + 8, 2), kTraceFormatMajor);  // versionMajor
    EXPECT_EQ(getLe(h + 10, 2), kTraceFormatMinor); // versionMinor
    EXPECT_EQ(getLe(h + 12, 4),
              static_cast<uint32_t>(TraceContent::ControlTrace));

    uint64_t table_offset = getLe(h + 16, 8);
    uint32_t section_count = getLe(h + 24, 4);
    EXPECT_EQ(section_count, 2u); // CtrlMeta + CtrlTransfers
    EXPECT_EQ(image.size(),
              table_offset + section_count * kSectionDescBytes + 4);
    EXPECT_EQ(getLe(h + 28, 4), crc32(h, 28)); // headerCrc covers [0,28)

    // First section: CtrlMeta, raw, immediately after the header.
    const uint8_t *s0 = image.data() + table_offset;
    EXPECT_EQ(getLe(s0 + 0, 4),
              static_cast<uint32_t>(SectionKind::CtrlMeta));
    EXPECT_EQ(getLe(s0 + 4, 4), static_cast<uint32_t>(TraceEncoding::Raw));
    EXPECT_EQ(getLe(s0 + 8, 8), kTraceHeaderBytes);
    EXPECT_EQ(getLe(s0 + 16, 8), 16u); // totalInstrs u64 + numTransfers u64
}

// ------------------------------------------------------ version policy

/** Patch a header field and re-seal the header CRC so only the field's
 *  own check — not the CRC check — can reject the image. */
std::vector<uint8_t>
withHeaderField(std::vector<uint8_t> image, size_t offset, uint32_t value,
                unsigned bytes = 2)
{
    storeLe(image.data() + offset, value, bytes);
    storeLe(image.data() + 28, crc32(image.data(), 28), 4);
    return image;
}

TEST(TraceFormatVersion, NewerMinorVersionIsRefused)
{
    std::vector<uint8_t> image = withHeaderField(
        readGolden("golden_nest.raw.lstrace"), 10, kTraceFormatMinor + 1);
    ControlTrace out;
    std::string err = decodeControlTrace(image.data(), image.size(), &out);
    EXPECT_NE(err, "");
    // Forward compatibility is refusal, not best-effort: a newer minor
    // version may carry additions we would silently drop.
    EXPECT_NE(err.find("minor version"), std::string::npos) << err;
}

TEST(TraceFormatVersion, DifferentMajorVersionIsRefused)
{
    for (uint16_t major : {kTraceFormatMajor + 1, 0}) {
        std::vector<uint8_t> image = withHeaderField(
            readGolden("golden_nest.raw.lstrace"), 8, major);
        ControlTrace out;
        std::string err =
            decodeControlTrace(image.data(), image.size(), &out);
        EXPECT_NE(err.find("major version"), std::string::npos) << err;
    }
}

TEST(TraceFormatVersion, WrongContentKindIsRefused)
{
    // Kind 2 (the retired loop-event recording) is refused by every
    // reader, with only the header CRC re-sealed so that the content
    // check itself must do the refusing.
    std::vector<uint8_t> image = withHeaderField(
        readGolden("golden_nest.raw.lstrace"), 12, 2, 4);
    ControlTrace out;
    std::string err = decodeControlTrace(image.data(), image.size(), &out);
    EXPECT_NE(err.find("content kind 2"), std::string::npos) << err;

    std::string path = traceFilePath(freshTraceDir("content_kind"),
                                     "kind2", kControlTraceExt);
    writeFileBytes(path, image);
    err.clear();
    EXPECT_EQ(MappedTraceFile::open(path, &err), nullptr);
    EXPECT_NE(err.find("content kind 2"), std::string::npos) << err;
    err.clear();
    EXPECT_EQ(TraceFileStreamer::open(path, {}, &err), nullptr);
    EXPECT_NE(err.find("content kind 2"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(TraceFormatVersion, RetiredRecordingSectionKindsAreRefused)
{
    // Section kinds 3-6 belonged to the retired recording content. A
    // control trace that carries one beside its own two sections is
    // refused by every reader, not skipped.
    std::vector<uint8_t> golden = readGolden("golden_nest.raw.lstrace");
    ContainerLayout layout;
    ASSERT_EQ(parseContainer(golden.data(), golden.size(), &layout), "");
    std::string dir = freshTraceDir("retired_sections");
    for (uint32_t kind = 3; kind <= 6; ++kind) {
        SCOPED_TRACE(kind);
        TraceFileBuilder builder;
        for (const SectionDesc &d : layout.sections) {
            const auto *p = golden.data() + d.offset;
            builder.addSection(static_cast<SectionKind>(d.kind),
                               static_cast<TraceEncoding>(d.encoding),
                               d.itemCount,
                               std::vector<uint8_t>(p, p + d.byteSize));
        }
        builder.addSection(static_cast<SectionKind>(kind),
                           TraceEncoding::Raw, 0, {});
        std::vector<uint8_t> image = builder.finish();

        ControlTrace out;
        std::string err =
            decodeControlTrace(image.data(), image.size(), &out);
        EXPECT_NE(err.find("unexpected section kind"), std::string::npos)
            << err;

        std::string path = traceFilePath(
            dir, "kind" + std::to_string(kind), kControlTraceExt);
        writeFileBytes(path, image);
        err.clear();
        EXPECT_EQ(MappedTraceFile::open(path, &err), nullptr);
        EXPECT_NE(err.find("unexpected section kind"), std::string::npos)
            << err;
        err.clear();
        EXPECT_EQ(TraceFileStreamer::open(path, {}, &err), nullptr);
        EXPECT_NE(err.find("unexpected section kind"), std::string::npos)
            << err;
        std::remove(path.c_str());
    }
}

// ------------------------------------------------- corruption rejection

TEST(TraceFormatCorruption, PayloadByteFlipFailsTheSectionCrc)
{
    std::vector<uint8_t> image = readGolden("golden_nest.raw.lstrace");
    image[kTraceHeaderBytes + 20] ^= 0x01; // inside CtrlTransfers
    ControlTrace out;
    std::string err = decodeControlTrace(image.data(), image.size(), &out);
    EXPECT_NE(err.find("CRC"), std::string::npos) << err;
}

TEST(TraceFormatCorruption, EverySingleByteFlipIsRejected)
{
    // CRC32 detects all single-byte errors, so no flip anywhere in the
    // file may decode cleanly — this covers header, table, and payloads.
    for (const char *name :
         {"golden_nest.vz.lstrace", "golden_nest.raw.lstrace"}) {
        std::vector<uint8_t> image = readGolden(name);
        for (size_t i = 0; i < image.size(); ++i) {
            std::vector<uint8_t> bad = image;
            bad[i] ^= 0x40;
            ControlTrace out;
            EXPECT_NE(decodeControlTrace(bad.data(), bad.size(), &out), "")
                << name << " byte " << i;
        }
    }
}

TEST(TraceFormatCorruption, EveryTruncationIsRejected)
{
    // The header records the exact file size (tableOffset + table), so
    // every proper prefix — byte-aligned truncation anywhere — fails.
    std::vector<uint8_t> image = readGolden("golden_nest.raw.lstrace");
    for (size_t n = 0; n < image.size(); ++n) {
        ControlTrace out;
        EXPECT_NE(decodeControlTrace(image.data(), n, &out), "")
            << "prefix " << n;
    }
}

TEST(TraceFormatCorruption, TrailingGarbageIsRejected)
{
    std::vector<uint8_t> image = readGolden("golden_nest.raw.lstrace");
    image.push_back(0x00);
    ControlTrace out;
    EXPECT_NE(decodeControlTrace(image.data(), image.size(), &out), "");
}

// --------------------------------- out-of-core scale / memory budget

TEST(TraceFormatStreaming, ZeroChunkBytesIsAnExplicitError)
{
    // chunkBytes == 0 used to be clamped silently to 64 while
    // batchInstrs < 1 was a hard error; both config mistakes must now
    // fail loudly, and before any file I/O happens.
    StreamConfig config;
    config.chunkBytes = 0;
    std::string err;
    auto streamer =
        TraceFileStreamer::open("/no/such/file.lstrace", config, &err);
    EXPECT_EQ(streamer, nullptr);
    EXPECT_EQ(err, "chunkBytes must be >= 1");

    config.chunkBytes = 1;
    config.batchInstrs = 0;
    err.clear();
    streamer =
        TraceFileStreamer::open("/no/such/file.lstrace", config, &err);
    EXPECT_EQ(streamer, nullptr);
    EXPECT_EQ(err, "batchInstrs must be >= 1");
}

TEST(TraceFormatStreaming, TinyChunkBytesIsRaisedToDocumentedMinimum)
{
    // Nonzero-but-tiny chunks are raised to kMinStreamChunkBytes (a
    // split record must fit one carry) and the replay still works.
    RunOptions opts;
    opts.maxInstrs = 50000;
    std::string dir = freshTraceDir("tiny_chunk");
    std::string path = exportWorkloadTrace("compress", opts, dir,
                                           TraceEncoding::Raw);

    StreamConfig config;
    config.chunkBytes = 1;
    std::string err;
    auto streamer = TraceFileStreamer::open(path, config, &err);
    ASSERT_NE(streamer, nullptr) << err;

    LoopDetector det({16});
    LoopStats stats;
    det.addListener(&stats);
    err = streamer->replayControl(det);
    ASSERT_EQ(err, "");
    EXPECT_EQ(stats.report().totalInstrs, 50000u);
}

TEST(TraceFormatStreaming, MassiveTraceReplaysWithinFixedMemoryBudget)
{
    // synth.massive carries 1.2e5 distinct static loops; 4M instructions
    // of fuel cover a full pass over all of them. The streaming reader
    // must deliver the whole trace through a bounded window: one chunk,
    // one carried record, one batch buffer — never the file size.
    RunOptions opts;
    opts.maxInstrs = 4000000;
    std::string dir = freshTraceDir("massive");
    std::string path =
        exportWorkloadTrace("synth.massive", opts, dir, TraceEncoding::Raw);

    StreamConfig config;
    config.chunkBytes = 64 * 1024;
    config.batchInstrs = 1024;
    std::string err;
    auto streamer = TraceFileStreamer::open(path, config, &err);
    ASSERT_NE(streamer, nullptr) << err;
    ASSERT_GT(streamer->fileBytes(), uint64_t{4} * 1024 * 1024)
        << "trace too small to make the budget meaningful";

    LoopDetector det({16});
    LoopStats stats;
    det.addListener(&stats);
    err = streamer->replayControl(det);
    ASSERT_EQ(err, "");

    LoopStatsReport report = stats.report();
    EXPECT_GE(report.staticLoops, 100000u);
    EXPECT_EQ(report.totalInstrs, 4000000u);
    // Fixed budget: far below the file size, and insensitive to it.
    EXPECT_LT(streamer->peakBufferBytes(), uint64_t{1} * 1024 * 1024);
}

} // namespace
} // namespace loopspec
