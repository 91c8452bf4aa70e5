#include "trace_io/trace_codec.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <dirent.h>

#include "trace_io/crc32.hh"
#include "trace_io/varint.hh"
#include "util/logging.hh"

namespace loopspec
{

namespace
{

constexpr size_t kCtrlRawBytes = 18;

} // namespace

// --------------------------------------------------- incremental decode

int
CtrlTransferDecoder::next(const uint8_t **p, const uint8_t *end,
                          CtrlTransfer *out)
{
    uint64_t seq;
    uint64_t pc64;
    int64_t target64;
    uint8_t kind;
    uint8_t taken;
    const uint8_t *q = *p;
    size_t avail = static_cast<size_t>(end - q);

    if (enc == TraceEncoding::Raw) {
        if (avail < kCtrlRawBytes)
            return 0;
        seq = getLe(q, 8);
        pc64 = getLe(q + 8, 4);
        target64 = static_cast<int64_t>(getLe(q + 12, 4));
        kind = q[16];
        taken = q[17];
        if (taken > 1) {
            err = "control transfer with non-boolean taken flag";
            return -1;
        }
        q += kCtrlRawBytes;
    } else {
        // A full record never exceeds kMaxCtrlRecordBytes, so a varint
        // that fails with that much lookahead is malformed, not merely
        // split across a chunk boundary.
        uint64_t dseq;
        if (!getVarint(&q, end, &dseq))
            goto varint_short;
        if (first) {
            seq = dseq;
        } else {
            if (dseq == 0) {
                err = "control transfers not strictly increasing";
                return -1;
            }
            seq = prevSeq + dseq;
        }
        if (!getVarint(&q, end, &pc64))
            goto varint_short;
        if (pc64 > UINT32_MAX) {
            err = "control transfer pc out of range";
            return -1;
        }
        int64_t dtarget;
        if (!getSvarint(&q, end, &dtarget))
            goto varint_short;
        target64 = static_cast<int64_t>(pc64) + dtarget;
        if (q == end)
            goto varint_short;
        uint8_t flags = *q++;
        if (flags >= 0x10) {
            err = "control transfer with unknown flag bits";
            return -1;
        }
        kind = flags & 0x7;
        taken = (flags >> 3) & 1;
    }

    if (target64 < 0 || target64 > UINT32_MAX) {
        err = "control transfer target out of range";
        return -1;
    }
    if (kind == 0 || kind > static_cast<uint8_t>(CtrlKind::Ret)) {
        err = strprintf("control transfer with invalid kind %u", kind);
        return -1;
    }
    if (!first && seq <= prevSeq) {
        err = "control transfers not strictly increasing";
        return -1;
    }
    if (seq >= totalInstrs) {
        err = "control transfer seq beyond trace length";
        return -1;
    }
    prevSeq = seq;
    first = false;
    out->seq = seq;
    out->pc = static_cast<uint32_t>(pc64);
    out->target = static_cast<uint32_t>(target64);
    out->kind = static_cast<CtrlKind>(kind);
    out->taken = taken != 0;
    *p = q;
    return 1;

varint_short:
    if (avail >= kMaxCtrlRecordBytes) {
        err = "malformed varint in control transfer";
        return -1;
    }
    return 0;
}

// --------------------------------------------------------------- encode

namespace
{

std::vector<uint8_t>
encodeCtrlPayload(const std::vector<CtrlTransfer> &transfers,
                  TraceEncoding enc)
{
    std::vector<uint8_t> out;
    if (enc == TraceEncoding::Raw) {
        out.reserve(transfers.size() * kCtrlRawBytes);
        for (const CtrlTransfer &t : transfers) {
            putLe(out, t.seq, 8);
            putLe(out, t.pc, 4);
            putLe(out, t.target, 4);
            out.push_back(static_cast<uint8_t>(t.kind));
            out.push_back(t.taken ? 1 : 0);
        }
        return out;
    }
    uint64_t prev = 0;
    bool first = true;
    for (const CtrlTransfer &t : transfers) {
        putVarint(out, first ? t.seq : t.seq - prev);
        putVarint(out, t.pc);
        putSvarint(out, static_cast<int64_t>(t.target) -
                            static_cast<int64_t>(t.pc));
        out.push_back(static_cast<uint8_t>(t.kind) |
                      (t.taken ? 0x8 : 0));
        prev = t.seq;
        first = false;
    }
    return out;
}

} // namespace

std::vector<uint8_t>
encodeControlTrace(const ControlTrace &trace, TraceEncoding enc)
{
    TraceFileBuilder builder;
    std::vector<uint8_t> meta;
    putLe(meta, trace.totalInstrs, 8);
    putLe(meta, trace.transfers.size(), 8);
    builder.addSection(SectionKind::CtrlMeta, TraceEncoding::Raw, 1,
                       meta);
    builder.addSection(SectionKind::CtrlTransfers, enc,
                       trace.transfers.size(),
                       encodeCtrlPayload(trace.transfers, enc));
    return builder.finish();
}

// --------------------------------------------------------------- decode

namespace
{

/** Common open: parse layout and verify every payload CRC. */
std::string
openImage(const uint8_t *data, size_t size, ContainerLayout *layout)
{
    std::string err = parseContainer(data, size, layout);
    if (!err.empty())
        return err;
    for (const SectionDesc &desc : layout->sections) {
        uint32_t actual = crc32(data + desc.offset, desc.byteSize);
        if (actual != desc.payloadCrc)
            return strprintf("section kind %u payload CRC mismatch: "
                             "stored %08x, computed %08x",
                             desc.kind, desc.payloadCrc, actual);
    }
    return "";
}

const SectionDesc *
requireSection(const ContainerLayout &layout, SectionKind kind,
               const char *what, std::string *err)
{
    const SectionDesc *desc = layout.find(kind);
    if (!desc)
        *err = strprintf("missing %s section", what);
    return desc;
}

} // namespace

std::string
decodeControlTrace(const uint8_t *data, size_t size, ControlTrace *out)
{
    ContainerLayout layout;
    std::string err = openImage(data, size, &layout);
    if (!err.empty())
        return err;

    const SectionDesc *meta =
        requireSection(layout, SectionKind::CtrlMeta, "CtrlMeta", &err);
    if (!meta)
        return err;
    if (meta->byteSize != 16)
        return "CtrlMeta section has wrong size";
    out->totalInstrs = getLe(data + meta->offset, 8);
    uint64_t num_transfers = getLe(data + meta->offset + 8, 8);

    const SectionDesc *sec = requireSection(
        layout, SectionKind::CtrlTransfers, "CtrlTransfers", &err);
    if (!sec)
        return err;
    if (sec->itemCount != num_transfers)
        return "CtrlTransfers item count disagrees with CtrlMeta";

    out->transfers.clear();
    CtrlTransferDecoder dec(static_cast<TraceEncoding>(sec->encoding),
                            out->totalInstrs);
    const uint8_t *p = data + sec->offset;
    const uint8_t *end = p + sec->byteSize;
    while (p != end) {
        CtrlTransfer t;
        int r = dec.next(&p, end, &t);
        if (r < 0)
            return dec.error();
        if (r == 0)
            return "truncated control transfer record";
        out->transfers.push_back(t);
    }
    if (out->transfers.size() != num_transfers)
        return strprintf("decoded %zu control transfers, header "
                         "promised %llu",
                         out->transfers.size(),
                         (unsigned long long)num_transfers);
    return "";
}

// --------------------------------------------------------- file helpers

std::string
traceFilePath(const std::string &dir, const std::string &name,
              const char *ext)
{
    return dir + "/" + name + ext;
}

std::vector<std::string>
traceDirWorkloads(const std::string &dir)
{
    DIR *d = opendir(dir.c_str());
    if (!d)
        fatal("cannot read trace directory %s: %s", dir.c_str(),
              strerror(errno));
    std::vector<std::string> names;
    size_t ext_len = strlen(kControlTraceExt);
    while (struct dirent *ent = readdir(d)) {
        std::string name = ent->d_name;
        if (name.size() <= ext_len ||
            name.compare(name.size() - ext_len, ext_len,
                         kControlTraceExt) != 0)
            continue;
        names.push_back(name.substr(0, name.size() - ext_len));
    }
    closedir(d);
    std::sort(names.begin(), names.end());
    return names;
}

void
writeControlTraceFile(const std::string &path, const ControlTrace &trace,
                      TraceEncoding enc)
{
    writeFileBytes(path, encodeControlTrace(trace, enc));
}

std::string
loadControlTraceFile(const std::string &path, ControlTrace *out)
{
    std::vector<uint8_t> bytes;
    std::string err = readFileBytes(path, &bytes);
    if (!err.empty())
        return err;
    err = decodeControlTrace(bytes.data(), bytes.size(), out);
    if (!err.empty())
        return path + ": " + err;
    return "";
}

ControlTrace
readControlTraceFile(const std::string &path)
{
    ControlTrace trace;
    std::string err = loadControlTraceFile(path, &trace);
    if (!err.empty())
        fatal("%s", err.c_str());
    return trace;
}

} // namespace loopspec
