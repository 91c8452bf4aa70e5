/**
 * @file
 * Encoder/decoder between the in-memory ControlTrace and container
 * section payloads (docs/TRACE_FORMAT.md), plus whole-file helpers.
 *
 * Section payload layouts (all little-endian):
 *
 *   CtrlMeta (raw, 16 B): totalInstrs u64, numTransfers u64.
 *   CtrlTransfers raw (18 B/item): seq u64, pc u32, target u32,
 *     kind u8, taken u8.
 *   CtrlTransfers varint, per item: dseq uvarint (first item: absolute
 *     seq; later items: seq delta, >= 1 enforced), pc uvarint,
 *     svarint zigzag(target - pc), flags u8 = kind | taken << 3.
 *
 * Loop-event recordings have no on-disk form: the detector reads only
 * the control-transfer stream, so a recording at any CLS size is
 * re-derived from the control trace by replay.
 *
 * The decoder validates as it goes — monotone transfer seq below
 * totalInstrs, in-range kinds, exact section consumption, item counts
 * against the section table and meta — so a CRC-valid but structurally
 * inconsistent file is rejected with a diagnostic rather than replayed
 * into plausible-but-wrong results. The incremental record decoder is
 * shared between whole-buffer decode and the chunked streaming reader,
 * which makes the two paths agree by construction.
 */

#ifndef LOOPSPEC_TRACE_IO_TRACE_CODEC_HH
#define LOOPSPEC_TRACE_IO_TRACE_CODEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace_io/container.hh"
#include "tracegen/control_trace.hh"

namespace loopspec
{

/** Container file extension (what traceDirWorkloads() scans for). */
constexpr char kControlTraceExt[] = ".lstrace";

/** Upper bound on one encoded transfer, either encoding — how many
 *  buffered bytes guarantee that a partial decode means truncation. */
constexpr size_t kMaxCtrlRecordBytes = 26;

/**
 * Incremental CtrlTransfer decoder (stateful: previous seq). next()
 * returns 1 and advances *p on success, 0 if the record runs past
 * @p end (caller supplies more bytes), -1 on malformed data with
 * error() set.
 */
class CtrlTransferDecoder
{
  public:
    CtrlTransferDecoder(TraceEncoding enc, uint64_t total_instrs)
        : enc(enc), totalInstrs(total_instrs)
    {
    }

    int next(const uint8_t **p, const uint8_t *end, CtrlTransfer *out);
    const std::string &error() const { return err; }

  private:
    TraceEncoding enc;
    uint64_t totalInstrs;
    uint64_t prevSeq = 0;
    bool first = true;
    std::string err;
};

// ------------------------------------------------- whole-object codecs

/** Encode @p trace as a complete container byte image. */
std::vector<uint8_t> encodeControlTrace(const ControlTrace &trace,
                                        TraceEncoding enc);

/** Decode a container image into @p out (validates everything,
 *  including payload CRCs). Returns "" on success. */
std::string decodeControlTrace(const uint8_t *data, size_t size,
                               ControlTrace *out);

// --------------------------------------------------------- file helpers

/** dir + "/" + name + extension. */
std::string traceFilePath(const std::string &dir,
                          const std::string &name, const char *ext);

/** Workload names in @p dir — the sorted stems of its *.lstrace files;
 *  fatal() when the directory cannot be read. */
std::vector<std::string> traceDirWorkloads(const std::string &dir);

/** Encode + write; fatal() on I/O failure. */
void writeControlTraceFile(const std::string &path,
                           const ControlTrace &trace, TraceEncoding enc);

/** Read + decode, returning "" on success (tests, fuzz oracle). */
std::string loadControlTraceFile(const std::string &path,
                                 ControlTrace *out);

/** Read + decode; fatal() with the diagnostic on any error. */
ControlTrace readControlTraceFile(const std::string &path);

} // namespace loopspec

#endif // LOOPSPEC_TRACE_IO_TRACE_CODEC_HH
