#include "trace_io/container.hh"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace_io/crc32.hh"
#include "trace_io/varint.hh"
#include "util/logging.hh"

namespace loopspec
{

namespace
{

std::string
fmtErr(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

} // namespace

TraceEncoding
traceEncodingFromName(const std::string &name)
{
    if (name == "raw")
        return TraceEncoding::Raw;
    if (name == "varint")
        return TraceEncoding::Varint;
    fatal("unknown trace encoding '%s' (want raw|varint)", name.c_str());
}

const char *
traceEncodingName(TraceEncoding enc)
{
    return enc == TraceEncoding::Raw ? "raw" : "varint";
}

const SectionDesc *
ContainerLayout::find(SectionKind kind) const
{
    for (const SectionDesc &s : sections)
        if (s.kind == static_cast<uint32_t>(kind))
            return &s;
    return nullptr;
}

std::string
parseContainerHeader(const uint8_t *data, size_t size,
                     ContainerLayout *out, uint64_t *table_offset,
                     uint32_t *section_count)
{
    if (size < kTraceHeaderBytes)
        return fmtErr("trace container too small: %zu bytes, "
                      "header needs %zu",
                      size, kTraceHeaderBytes);
    if (memcmp(data, kTraceMagic, sizeof(kTraceMagic)) != 0)
        return "bad magic: not a loopspec trace container";

    uint32_t stored_crc = static_cast<uint32_t>(getLe(data + 28, 4));
    uint32_t actual_crc = crc32(data, 28);
    if (stored_crc != actual_crc)
        return fmtErr("header CRC mismatch: stored %08x, computed %08x",
                      stored_crc, actual_crc);

    uint16_t major = static_cast<uint16_t>(getLe(data + 8, 2));
    uint16_t minor = static_cast<uint16_t>(getLe(data + 10, 2));
    if (major != kTraceFormatMajor)
        return fmtErr("unsupported trace format major version %u "
                      "(reader supports %u)",
                      major, kTraceFormatMajor);
    if (minor > kTraceFormatMinor)
        return fmtErr("trace format minor version %u is newer than "
                      "this reader (supports up to %u); refusing to "
                      "drop unknown additions",
                      minor, kTraceFormatMinor);

    uint32_t content = static_cast<uint32_t>(getLe(data + 12, 4));
    if (content != static_cast<uint32_t>(TraceContent::ControlTrace))
        return fmtErr("unsupported content kind %u (only control "
                      "traces, kind %u, are read)",
                      content,
                      static_cast<uint32_t>(TraceContent::ControlTrace));

    out->versionMajor = major;
    out->versionMinor = minor;
    *table_offset = getLe(data + 16, 8);
    *section_count = static_cast<uint32_t>(getLe(data + 24, 4));
    return "";
}

std::string
parseSectionTable(const uint8_t *table, uint32_t count,
                  uint64_t table_offset, uint64_t file_size,
                  ContainerLayout *out)
{
    // Exact-size check: with the table trailing the payloads, any
    // truncation (even of the last payload byte) changes the file size
    // and is caught here before any payload is touched.
    uint64_t table_bytes =
        static_cast<uint64_t>(count) * kSectionDescBytes;
    uint64_t want_size = table_offset + table_bytes + 4;
    if (table_offset < kTraceHeaderBytes ||
        table_offset > file_size || file_size != want_size)
        return fmtErr("truncated or oversized container: %llu bytes on "
                      "disk, section table at %llu with %u sections "
                      "implies %llu",
                      static_cast<unsigned long long>(file_size),
                      static_cast<unsigned long long>(table_offset),
                      count,
                      static_cast<unsigned long long>(want_size));

    uint32_t stored_crc =
        static_cast<uint32_t>(getLe(table + table_bytes, 4));
    uint32_t actual_crc = crc32(table, table_bytes);
    if (stored_crc != actual_crc)
        return fmtErr("section table CRC mismatch: stored %08x, "
                      "computed %08x",
                      stored_crc, actual_crc);

    out->sections.clear();
    uint64_t expect_offset = kTraceHeaderBytes;
    for (uint32_t i = 0; i < count; ++i) {
        const uint8_t *d = table + i * kSectionDescBytes;
        SectionDesc desc;
        desc.kind = static_cast<uint32_t>(getLe(d + 0, 4));
        desc.encoding = static_cast<uint32_t>(getLe(d + 4, 4));
        desc.offset = getLe(d + 8, 8);
        desc.byteSize = getLe(d + 16, 8);
        desc.itemCount = getLe(d + 24, 8);
        desc.payloadCrc = static_cast<uint32_t>(getLe(d + 32, 4));
        // Sections must tile [header, table) in order with no gaps or
        // overlap, so offsets are fully determined and can't alias.
        if (desc.offset != expect_offset ||
            desc.byteSize > table_offset - desc.offset)
            return fmtErr("section %u (kind %u) out of bounds: offset "
                          "%llu size %llu",
                          i, desc.kind,
                          static_cast<unsigned long long>(desc.offset),
                          static_cast<unsigned long long>(
                              desc.byteSize));
        if (desc.encoding >
            static_cast<uint32_t>(TraceEncoding::Varint))
            return fmtErr("section %u (kind %u) has unknown encoding "
                          "%u",
                          i, desc.kind, desc.encoding);
        if (desc.kind != static_cast<uint32_t>(SectionKind::CtrlMeta) &&
            desc.kind != static_cast<uint32_t>(SectionKind::CtrlTransfers))
            return fmtErr("unexpected section kind %u (section %u)",
                          desc.kind, i);
        expect_offset += desc.byteSize;
        out->sections.push_back(desc);
    }
    if (expect_offset != table_offset)
        return fmtErr("section payloads end at %llu but table starts "
                      "at %llu",
                      static_cast<unsigned long long>(expect_offset),
                      static_cast<unsigned long long>(table_offset));
    return "";
}

std::string
parseContainer(const uint8_t *data, size_t size, ContainerLayout *out)
{
    uint64_t table_offset = 0;
    uint32_t count = 0;
    std::string err =
        parseContainerHeader(data, size, out, &table_offset, &count);
    if (!err.empty())
        return err;
    if (table_offset > size ||
        size - table_offset <
            static_cast<uint64_t>(count) * kSectionDescBytes + 4)
        return fmtErr("truncated container: section table does not fit "
                      "in %zu bytes",
                      size);
    return parseSectionTable(data + table_offset, count, table_offset,
                             size, out);
}

// ------------------------------------------------------ TraceFileBuilder

TraceFileBuilder::TraceFileBuilder()
{
    image.resize(kTraceHeaderBytes, 0);
    memcpy(image.data(), kTraceMagic, sizeof(kTraceMagic));
    storeLe(image.data() + 8, kTraceFormatMajor, 2);
    storeLe(image.data() + 10, kTraceFormatMinor, 2);
    storeLe(image.data() + 12,
            static_cast<uint32_t>(TraceContent::ControlTrace), 4);
}

void
TraceFileBuilder::addSection(SectionKind kind, TraceEncoding encoding,
                             uint64_t item_count,
                             const std::vector<uint8_t> &payload)
{
    LOOPSPEC_ASSERT(!done);
    SectionDesc desc;
    desc.kind = static_cast<uint32_t>(kind);
    desc.encoding = static_cast<uint32_t>(encoding);
    desc.offset = image.size();
    desc.byteSize = payload.size();
    desc.itemCount = item_count;
    desc.payloadCrc = crc32(payload.data(), payload.size());
    sections.push_back(desc);
    image.insert(image.end(), payload.begin(), payload.end());
}

std::vector<uint8_t>
TraceFileBuilder::finish()
{
    LOOPSPEC_ASSERT(!done);
    done = true;

    uint64_t table_offset = image.size();
    storeLe(image.data() + 16, table_offset, 8);
    storeLe(image.data() + 24, sections.size(), 4);
    storeLe(image.data() + 28, crc32(image.data(), 28), 4);

    for (const SectionDesc &desc : sections) {
        putLe(image, desc.kind, 4);
        putLe(image, desc.encoding, 4);
        putLe(image, desc.offset, 8);
        putLe(image, desc.byteSize, 8);
        putLe(image, desc.itemCount, 8);
        putLe(image, desc.payloadCrc, 4);
        putLe(image, 0, 4); // reserved
    }
    uint64_t table_bytes = image.size() - table_offset;
    putLe(image, crc32(image.data() + table_offset, table_bytes), 4);
    return std::move(image);
}

// ------------------------------------------------------- MappedTraceFile

std::unique_ptr<MappedTraceFile>
MappedTraceFile::open(const std::string &path, std::string *err)
{
    std::unique_ptr<MappedTraceFile> file(new MappedTraceFile);

    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        *err = fmtErr("cannot open trace file %s: %s", path.c_str(),
                      strerror(errno));
        return nullptr;
    }
    struct stat st;
    if (fstat(fd, &st) != 0) {
        *err = fmtErr("cannot stat trace file %s: %s", path.c_str(),
                      strerror(errno));
        ::close(fd);
        return nullptr;
    }
    file->size_ = static_cast<uint64_t>(st.st_size);

    void *map = MAP_FAILED;
    if (file->size_ > 0)
        map = mmap(nullptr, file->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
        file->data_ = static_cast<const uint8_t *>(map);
        file->mmapped = true;
    } else {
        file->fallback.resize(file->size_);
        uint64_t got = 0;
        while (got < file->size_) {
            ssize_t n = ::read(fd, file->fallback.data() + got,
                               file->size_ - got);
            if (n <= 0) {
                *err = fmtErr("short read on trace file %s",
                              path.c_str());
                ::close(fd);
                return nullptr;
            }
            got += static_cast<uint64_t>(n);
        }
        file->data_ = file->fallback.data();
    }
    ::close(fd);

    std::string parse_err =
        parseContainer(file->data_, file->size_, &file->layout_);
    if (!parse_err.empty()) {
        *err = path + ": " + parse_err;
        return nullptr;
    }
    for (const SectionDesc &desc : file->layout_.sections) {
        uint32_t actual =
            crc32(file->data_ + desc.offset, desc.byteSize);
        if (actual != desc.payloadCrc) {
            *err = fmtErr("%s: section kind %u payload CRC mismatch: "
                          "stored %08x, computed %08x",
                          path.c_str(), desc.kind, desc.payloadCrc,
                          actual);
            return nullptr;
        }
    }
    return file;
}

MappedTraceFile::~MappedTraceFile()
{
    if (mmapped)
        munmap(const_cast<uint8_t *>(data_), size_);
}

// ----------------------------------------------------------- file helpers

void
writeFileBytes(const std::string &path,
               const std::vector<uint8_t> &bytes)
{
    FILE *f = fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot create %s: %s", path.c_str(), strerror(errno));
    if (!bytes.empty() &&
        fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size())
        fatal("short write to %s", path.c_str());
    if (fclose(f) != 0)
        fatal("close failed on %s", path.c_str());
}

std::string
readFileBytes(const std::string &path, std::vector<uint8_t> *out)
{
    FILE *f = fopen(path.c_str(), "rb");
    if (!f)
        return fmtErr("cannot open %s: %s", path.c_str(),
                      strerror(errno));
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    fseek(f, 0, SEEK_SET);
    if (size < 0) {
        fclose(f);
        return fmtErr("cannot size %s", path.c_str());
    }
    out->resize(static_cast<size_t>(size));
    size_t got =
        size ? fread(out->data(), 1, out->size(), f) : 0;
    fclose(f);
    if (got != out->size())
        return fmtErr("short read on %s", path.c_str());
    return "";
}

} // namespace loopspec
