/**
 * @file
 * The versioned, mmap-able binary trace container (docs/TRACE_FORMAT.md).
 *
 * A trace file is a 32-byte header, the section payloads, and a trailing
 * section table — every structure little-endian and CRC32-protected:
 *
 *   FileHeader (32 bytes)
 *     0   8  magic 89 4C 53 54 52 0D 0A 1A  ("\x89LSTR\r\n\x1a")
 *     8   2  versionMajor (= kTraceFormatMajor)
 *    10   2  versionMinor (= kTraceFormatMinor)
 *    12   4  contentKind  (= 1, ControlTrace)
 *    16   8  sectionTableOffset
 *    24   4  sectionCount
 *    28   4  headerCrc    (CRC32 of bytes [0, 28))
 *   section payloads ...
 *   SectionDesc[sectionCount] (40 bytes each)
 *     0   4  kind          8   8  offset       24  8  itemCount
 *     4   4  encoding     16   8  byteSize     32  4  payloadCrc
 *    36   4  reserved (0)
 *   tableCrc (4 bytes, CRC32 of the table bytes)
 *
 * Versioning policy: a reader accepts exactly its own major version and
 * any minor version <= its own; a bumped minor signals additions the
 * reader cannot know about, so it must refuse rather than silently drop
 * them. All parse entry points return an error string ("" = success) —
 * corrupted or truncated input is always a diagnostic, never UB — and
 * the file-level helpers wrap them in fatal() for tool use.
 */

#ifndef LOOPSPEC_TRACE_IO_CONTAINER_HH
#define LOOPSPEC_TRACE_IO_CONTAINER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace loopspec
{

constexpr uint8_t kTraceMagic[8] = {0x89, 'L', 'S', 'T',
                                    'R',  0x0D, 0x0A, 0x1A};
constexpr uint16_t kTraceFormatMajor = 1;
constexpr uint16_t kTraceFormatMinor = 0;
constexpr size_t kTraceHeaderBytes = 32;
constexpr size_t kSectionDescBytes = 40;

/** What a container holds (FileHeader::contentKind). Kind 2, the
 *  retired loop-event recording, is refused like any unknown kind:
 *  recordings are re-derived from the control trace by replay. */
enum class TraceContent : uint32_t
{
    ControlTrace = 1, //!< retired control-transfer stream
};

/** Section payload encodings. */
enum class TraceEncoding : uint32_t
{
    Raw = 0,    //!< fixed-width little-endian records
    Varint = 1, //!< LEB128 varints with delta/zigzag prediction
};

/** Parse "raw"/"varint"; fatal() on junk. */
TraceEncoding traceEncodingFromName(const std::string &name);
const char *traceEncodingName(TraceEncoding enc);

/** Section kinds. Kinds 3-6 belonged to the retired recording
 *  content and are refused as unexpected sections. */
enum class SectionKind : uint32_t
{
    CtrlMeta = 1,      //!< totalInstrs + transfer count (raw, 16 B)
    CtrlTransfers = 2, //!< CtrlTransfer stream
};

/** One decoded section-table entry. */
struct SectionDesc
{
    uint32_t kind = 0;
    uint32_t encoding = 0;
    uint64_t offset = 0;   //!< payload start, from file start
    uint64_t byteSize = 0; //!< payload bytes on disk
    uint64_t itemCount = 0;
    uint32_t payloadCrc = 0;
};

/**
 * Validated structural view over container bytes: header fields plus the
 * decoded section table. Payload CRCs are NOT yet verified (the mmap
 * reader checks them eagerly; the streaming reader checks incrementally).
 */
struct ContainerLayout
{
    uint16_t versionMajor = 0;
    uint16_t versionMinor = 0;
    std::vector<SectionDesc> sections;

    const SectionDesc *find(SectionKind kind) const;
};

/**
 * Parse and structurally validate the header + section table of a
 * @p size byte container (magic, version policy, content kind, CRCs of
 * header and table, section kinds and bounds, exact total size).
 * Returns "" on success.
 */
std::string parseContainer(const uint8_t *data, size_t size,
                           ContainerLayout *out);

/** Parse only the 32-byte header; sets table offset/count outputs. */
std::string parseContainerHeader(const uint8_t *data, size_t size,
                                 ContainerLayout *out,
                                 uint64_t *table_offset,
                                 uint32_t *section_count);

/**
 * Validate and decode a section table (@p table points at the
 * @p count * 40-byte descriptors followed by the table CRC) against the
 * file geometry; fills @p out->sections. The streaming reader uses this
 * after reading just the header and table, without the payloads in
 * memory. Returns "" on success.
 */
std::string parseSectionTable(const uint8_t *table, uint32_t count,
                              uint64_t table_offset, uint64_t file_size,
                              ContainerLayout *out);

/**
 * Assemble a container in memory: add sections, then finish() to get
 * the complete byte image (header, payloads, table, CRCs).
 */
class TraceFileBuilder
{
  public:
    TraceFileBuilder();

    /** Append one section; payload bytes are copied into the image. */
    void addSection(SectionKind kind, TraceEncoding encoding,
                    uint64_t item_count,
                    const std::vector<uint8_t> &payload);

    /** Seal the container and return the full byte image. The builder
     *  is spent afterwards. */
    std::vector<uint8_t> finish();

  private:
    std::vector<uint8_t> image; //!< header placeholder + payloads
    std::vector<SectionDesc> sections;
    bool done = false;
};

/**
 * Read-only mmap view of a container file with every CRC (header,
 * table, all section payloads) verified at open. Falls back to reading
 * the file into memory where mmap is unavailable.
 */
class MappedTraceFile
{
  public:
    /** Open + fully validate; nullptr with *err set on any problem. */
    static std::unique_ptr<MappedTraceFile>
    open(const std::string &path, std::string *err);

    ~MappedTraceFile();
    MappedTraceFile(const MappedTraceFile &) = delete;
    MappedTraceFile &operator=(const MappedTraceFile &) = delete;

    const ContainerLayout &layout() const { return layout_; }
    uint64_t fileBytes() const { return size_; }
    bool isMmapped() const { return mmapped; }

    /** The complete validated container image (fileBytes() long) —
     *  hand it to the whole-image decoders for an mmap-backed decode. */
    const uint8_t *bytes() const { return data_; }

    /** Payload bytes of @p desc (valid: desc comes from layout()). */
    const uint8_t *
    sectionData(const SectionDesc &desc) const
    {
        return data_ + desc.offset;
    }

  private:
    MappedTraceFile() = default;

    ContainerLayout layout_;
    const uint8_t *data_ = nullptr;
    uint64_t size_ = 0;
    bool mmapped = false;
    std::vector<uint8_t> fallback; //!< backing store when !mmapped
};

/** Write @p bytes to @p path atomically enough for tools (truncate +
 *  write + close); fatal() on I/O failure. */
void writeFileBytes(const std::string &path,
                    const std::vector<uint8_t> &bytes);

/** Slurp a whole file; returns "" and fills @p out, or an error. */
std::string readFileBytes(const std::string &path,
                          std::vector<uint8_t> *out);

} // namespace loopspec

#endif // LOOPSPEC_TRACE_IO_CONTAINER_HH
