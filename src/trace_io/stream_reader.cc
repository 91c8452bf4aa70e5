#include "trace_io/stream_reader.hh"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace_io/crc32.hh"
#include "trace_io/trace_codec.hh"
#include "trace_io/varint.hh"
#include "tracegen/control_trace.hh"
#include "util/logging.hh"

namespace loopspec
{

namespace
{

/** pread exactly @p size bytes; returns "" on success. */
std::string
preadAll(int fd, void *dst, size_t size, uint64_t offset,
         const std::string &path)
{
    uint8_t *p = static_cast<uint8_t *>(dst);
    size_t got = 0;
    while (got < size) {
        ssize_t n = pread(fd, p + got, size - got,
                          static_cast<off_t>(offset + got));
        if (n <= 0)
            return strprintf("short read on %s at offset %llu",
                             path.c_str(),
                             (unsigned long long)(offset + got));
        got += static_cast<size_t>(n);
    }
    return "";
}

} // namespace

/**
 * Bounded window over one section: holds at most one chunk plus the
 * carry of a record split across the previous chunk boundary, and
 * accumulates the payload CRC as bytes come off the disk.
 */
class TraceFileStreamer::Cursor
{
  public:
    Cursor(int fd, const std::string &path, const SectionDesc &desc,
           size_t chunk_bytes)
        : fd(fd), path(path), desc(desc), chunkBytes(chunk_bytes)
    {
        // open() validates and raises the configured chunk size to
        // kMinStreamChunkBytes before any cursor is built.
        assert(chunkBytes >= kMinStreamChunkBytes);
    }

    const uint8_t *data() const { return buf.data() + pos; }
    const uint8_t *end() const { return buf.data() + buf.size(); }
    void advance(const uint8_t *p)
    {
        pos = static_cast<size_t>(p - buf.data());
    }
    size_t buffered() const { return buf.size() - pos; }
    bool canRefill() const { return diskConsumed < desc.byteSize; }

    std::string
    refill()
    {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<ptrdiff_t>(pos));
        pos = 0;
        size_t want = static_cast<size_t>(std::min<uint64_t>(
            chunkBytes, desc.byteSize - diskConsumed));
        size_t old = buf.size();
        buf.resize(old + want);
        std::string err = preadAll(fd, buf.data() + old, want,
                                   desc.offset + diskConsumed, path);
        if (!err.empty())
            return err;
        crcAcc = crc32(buf.data() + old, want, crcAcc);
        diskConsumed += want;
        return "";
    }

    uint32_t crc() const { return crcAcc; }
    size_t bufferBytes() const { return buf.capacity(); }

  private:
    int fd;
    const std::string &path;
    const SectionDesc &desc;
    size_t chunkBytes;
    std::vector<uint8_t> buf;
    size_t pos = 0;
    uint64_t diskConsumed = 0;
    uint32_t crcAcc = 0;
};

std::unique_ptr<TraceFileStreamer>
TraceFileStreamer::open(const std::string &path,
                        const StreamConfig &config, std::string *err)
{
    std::unique_ptr<TraceFileStreamer> s(new TraceFileStreamer);
    s->path = path;
    s->config = config;
    if (config.batchInstrs < 1) {
        *err = "batchInstrs must be >= 1";
        return nullptr;
    }
    if (config.chunkBytes == 0) {
        // A zero chunk would never make progress; it used to be clamped
        // silently, which hid broken server configs.
        *err = "chunkBytes must be >= 1";
        return nullptr;
    }
    // Tiny-but-nonzero chunks are raised to the documented minimum so a
    // record split across a boundary always fits in one carry.
    s->config.chunkBytes =
        std::max(config.chunkBytes, kMinStreamChunkBytes);

    s->fd = ::open(path.c_str(), O_RDONLY);
    if (s->fd < 0) {
        *err = strprintf("cannot open trace file %s: %s", path.c_str(),
                         strerror(errno));
        return nullptr;
    }
    struct stat st;
    if (fstat(s->fd, &st) != 0) {
        *err = strprintf("cannot stat trace file %s: %s", path.c_str(),
                         strerror(errno));
        return nullptr;
    }
    uint64_t file_size = static_cast<uint64_t>(st.st_size);
    s->fileSize = file_size;

    uint8_t header[kTraceHeaderBytes];
    size_t header_bytes = static_cast<size_t>(
        std::min<uint64_t>(file_size, kTraceHeaderBytes));
    std::string e =
        preadAll(s->fd, header, header_bytes, 0, path);
    if (e.empty()) {
        uint64_t table_offset = 0;
        uint32_t count = 0;
        e = parseContainerHeader(header, header_bytes, &s->layout,
                                 &table_offset, &count);
        if (e.empty()) {
            // Geometry check before allocating the table buffer, so a
            // corrupted section count can't trigger a huge allocation.
            uint64_t table_bytes =
                static_cast<uint64_t>(count) * kSectionDescBytes + 4;
            if (table_offset > file_size ||
                file_size - table_offset != table_bytes) {
                e = strprintf(
                    "truncated or oversized container: %llu bytes "
                    "on disk, section table at %llu with %u "
                    "sections implies %llu",
                    (unsigned long long)file_size,
                    (unsigned long long)table_offset, count,
                    (unsigned long long)(table_offset + table_bytes));
            } else {
                std::vector<uint8_t> table(
                    static_cast<size_t>(table_bytes));
                e = preadAll(s->fd, table.data(), table.size(),
                             table_offset, path);
                if (e.empty())
                    e = parseSectionTable(table.data(), count,
                                          table_offset, file_size,
                                          &s->layout);
            }
        }
    }

    // Control-trace shape: the raw meta section, and a transfer count
    // that agrees with it.
    if (e.empty()) {
        const SectionDesc *meta = s->layout.find(SectionKind::CtrlMeta);
        if (!meta || meta->byteSize != 16 ||
            meta->encoding !=
                static_cast<uint32_t>(TraceEncoding::Raw)) {
            e = "missing or malformed meta section";
        } else {
            uint8_t raw[16];
            e = preadAll(s->fd, raw, sizeof(raw), meta->offset, path);
            if (e.empty() &&
                crc32(raw, sizeof(raw)) != meta->payloadCrc)
                e = "meta section payload CRC mismatch";
            if (e.empty()) {
                s->metaTotalInstrs = getLe(raw, 8);
                const SectionDesc *sec =
                    s->layout.find(SectionKind::CtrlTransfers);
                if (!sec)
                    e = "missing CtrlTransfers section";
                else if (sec->itemCount != getLe(raw + 8, 8))
                    e = "CtrlTransfers item count disagrees with "
                        "CtrlMeta";
            }
        }
    }

    if (!e.empty()) {
        *err = path + ": " + e;
        return nullptr;
    }
    return s;
}

TraceFileStreamer::~TraceFileStreamer()
{
    if (fd >= 0)
        ::close(fd);
}

void
TraceFileStreamer::notePeak(size_t bytes)
{
    peakBytes = std::max(peakBytes, bytes);
}

/**
 * Incremental control-replay state: the decode loop of the old
 * monolithic replayControl(), restartable at chunk granularity. step()
 * runs until the synthesizer has passed @p goal (or the section is
 * fully decoded, validated and finished — then *done is set).
 */
struct TraceFileStreamer::ControlPump::Impl
{
    TraceFileStreamer &streamer;
    const SectionDesc &sec;
    Cursor cur;
    CtrlTransferDecoder dec;
    ControlReplaySynthesizer synth;
    size_t batchBytes;
    uint64_t count = 0;
    bool feeding = true;

    Impl(TraceFileStreamer &s, const SectionDesc &sec,
         TraceObserver &observer, uint64_t max_instrs)
        : streamer(s), sec(sec),
          cur(s.fd, s.path, sec, s.config.chunkBytes),
          dec(static_cast<TraceEncoding>(sec.encoding),
              s.metaTotalInstrs),
          synth(observer, s.metaTotalInstrs, max_instrs,
                s.config.batchInstrs),
          // One replay batch: hot planes plus its control index.
          batchBytes(s.config.batchInstrs *
                     (SoaBatch::kHotBytesPerInstr + sizeof(uint32_t)))
    {
    }

    std::string
    step(uint64_t goal, bool *done)
    {
        const std::string &path = streamer.path;
        for (;;) {
            if (feeding && synth.position() >= goal &&
                goal < synth.windowEnd())
                return ""; // chunk satisfied, replay still live
            const uint8_t *p = cur.data();
            CtrlTransfer t;
            int r = dec.next(&p, cur.end(), &t);
            if (r < 0)
                return path + ": " + dec.error();
            if (r == 1) {
                cur.advance(p);
                ++count;
                // Past the replay window the synthesizer ignores
                // input, but keep decoding: validation and the CRC
                // must cover the whole section before the replay may
                // complete.
                if (feeding)
                    feeding = synth.feed(t);
                continue;
            }
            if (cur.canRefill()) {
                std::string e = cur.refill();
                if (!e.empty())
                    return e;
                streamer.notePeak(cur.bufferBytes() + batchBytes);
                continue;
            }
            if (cur.buffered() != 0)
                return path + ": truncated control transfer record";
            break;
        }
        if (count != sec.itemCount)
            return strprintf("%s: decoded %llu control transfers, "
                             "table promised %llu",
                             path.c_str(), (unsigned long long)count,
                             (unsigned long long)sec.itemCount);
        if (cur.crc() != sec.payloadCrc)
            return strprintf("%s: CtrlTransfers payload CRC mismatch: "
                             "stored %08x, computed %08x",
                             path.c_str(), sec.payloadCrc, cur.crc());
        synth.finish();
        *done = true;
        return "";
    }
};

TraceFileStreamer::ControlPump::~ControlPump() = default;

bool
TraceFileStreamer::ControlPump::pump(uint64_t chunk_instrs)
{
    LOOPSPEC_ASSERT(!finished, "pump() after completion");
    uint64_t pos = impl->synth.position();
    uint64_t goal = impl->synth.windowEnd();
    if (chunk_instrs < goal - pos)
        goal = pos + chunk_instrs;
    bool done = false;
    err = impl->step(goal, &done);
    if (!err.empty() || done) {
        finished = true;
        return false;
    }
    return true;
}

uint64_t
TraceFileStreamer::ControlPump::position() const
{
    return impl->synth.position();
}

std::unique_ptr<TraceFileStreamer::ControlPump>
TraceFileStreamer::openControlPump(TraceObserver &observer,
                                   uint64_t max_instrs)
{
    const SectionDesc &sec = *layout.find(SectionKind::CtrlTransfers);
    std::unique_ptr<ControlPump> pump(new ControlPump);
    pump->impl.reset(new ControlPump::Impl(*this, sec, observer,
                                           max_instrs));
    return pump;
}

std::string
TraceFileStreamer::replayControl(TraceObserver &observer,
                                 uint64_t max_instrs)
{
    auto pump = openControlPump(observer, max_instrs);
    while (pump->pump(UINT64_MAX)) {
    }
    return pump->error();
}

} // namespace loopspec
