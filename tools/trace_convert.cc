/**
 * @file
 * Binary trace-container utility (docs/TRACE_FORMAT.md):
 *
 *   trace_convert export --out DIR [--benchmarks a,b] [--encoding E]
 *                 [--scale S --max-instrs M]
 *       Run each selected workload once and write its control trace as
 *       <DIR>/<name>.lstrace.
 *
 *   trace_convert inspect FILE...
 *       Print header and section-table metadata (no payload decode).
 *
 *   trace_convert compress IN OUT [--encoding E]
 *       Re-encode a container (default: varint) and report the ratio.
 *
 *   trace_convert verify FILE...
 *       Full validation: decode every payload (all CRCs and structural
 *       checks), round-trip through both encodings, and cross-check the
 *       out-of-core streaming replay against the in-memory replay. Exit
 *       0 only if every file passes.
 *
 * --encoding is "raw" (fixed-width, mmap-friendly) or "varint"
 * (delta/varint compressed). All failures are fatal() with a
 * diagnostic; exit status 1.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "loop/loop_detector.hh"
#include "speculation/event_record.hh"
#include "trace_io/container.hh"
#include "trace_io/stream_reader.hh"
#include "trace_io/trace_codec.hh"
#include "util/logging.hh"

using namespace loopspec;

namespace
{

const char *
sectionKindName(uint32_t kind)
{
    switch (static_cast<SectionKind>(kind)) {
      case SectionKind::CtrlMeta: return "CtrlMeta";
      case SectionKind::CtrlTransfers: return "CtrlTransfers";
      default: return "?";
    }
}

// ----------------------------------------------------------- subcommands

int
cmdExport(int argc, char **argv)
{
    std::unique_ptr<CliArgs> args;
    RunOptions opts =
        parseRunOptions(argc, argv, {"out", "encoding"}, &args);
    if (!opts.traceDir.empty())
        fatal("export runs workloads; --trace-dir makes no sense here");
    std::string dir = args->getString("out", "");
    if (dir.empty())
        fatal("export needs --out <directory>");
    TraceEncoding enc =
        traceEncodingFromName(args->getString("encoding", "raw"));

    CollectFlags flags;
    flags.controlTrace = true;
    for (const std::string &name : opts.selected()) {
        WorkloadArtifacts art = runWorkload(name, opts, flags);
        std::string path = traceFilePath(dir, name, kControlTraceExt);
        writeControlTraceFile(path, art.controlTrace, enc);
        std::cout << "wrote " << path << " ("
                  << art.controlTrace.transfers.size() << " transfers, "
                  << art.totalInstrs << " instrs)\n";
    }
    return 0;
}

int
cmdInspect(int argc, char **argv)
{
    CliArgs args(argc, argv, {});
    if (args.positionals().empty())
        fatal("inspect needs at least one container file");
    for (const std::string &path : args.positionals()) {
        std::string err;
        std::unique_ptr<MappedTraceFile> f =
            MappedTraceFile::open(path, &err);
        if (!f)
            fatal("%s", err.c_str());
        const ContainerLayout &layout = f->layout();
        std::cout << path << ": control-trace v" << layout.versionMajor << "."
                  << layout.versionMinor << ", " << f->fileBytes()
                  << " bytes, " << layout.sections.size()
                  << " sections" << (f->isMmapped() ? " (mmap)" : "")
                  << "\n";
        for (const SectionDesc &s : layout.sections) {
            std::cout << "  " << sectionKindName(s.kind) << " ["
                      << traceEncodingName(
                             static_cast<TraceEncoding>(s.encoding))
                      << "] offset=" << s.offset
                      << " bytes=" << s.byteSize
                      << " items=" << s.itemCount << " crc=" << std::hex
                      << s.payloadCrc << std::dec << "\n";
        }
    }
    return 0;
}

int
cmdCompress(int argc, char **argv)
{
    CliArgs args(argc, argv, {"encoding"});
    if (args.positionals().size() != 2)
        fatal("compress needs <input> <output>");
    const std::string &in = args.positionals()[0];
    const std::string &out = args.positionals()[1];
    TraceEncoding enc =
        traceEncodingFromName(args.getString("encoding", "varint"));

    // Decode fully (validates), then re-encode with the target encoding;
    // works in either direction (compress or expand).
    std::vector<uint8_t> in_bytes;
    std::string err = readFileBytes(in, &in_bytes);
    if (!err.empty())
        fatal("%s", err.c_str());
    ControlTrace trace;
    err = decodeControlTrace(in_bytes.data(), in_bytes.size(), &trace);
    if (!err.empty())
        fatal("%s: %s", in.c_str(), err.c_str());
    std::vector<uint8_t> image = encodeControlTrace(trace, enc);
    writeFileBytes(out, image);

    double ratio = in_bytes.empty()
                       ? 0.0
                       : static_cast<double>(image.size()) /
                             static_cast<double>(in_bytes.size());
    std::cout << "wrote " << out << " (" << image.size() << " bytes, "
              << ratio << "x of input)\n";
    return 0;
}

/** One file's full verification; fatal() on any failure. */
void
verifyFile(const std::string &path)
{
    ControlTrace trace;
    std::string err = loadControlTraceFile(path, &trace);
    if (!err.empty())
        fatal("%s", err.c_str());

    // Round-trip through both encodings must be lossless.
    for (TraceEncoding enc : {TraceEncoding::Raw, TraceEncoding::Varint}) {
        std::vector<uint8_t> image = encodeControlTrace(trace, enc);
        ControlTrace back;
        err = decodeControlTrace(image.data(), image.size(), &back);
        if (err.empty())
            err = compareControlTraces(trace, back);
        if (!err.empty())
            fatal("%s: %s round trip: %s", path.c_str(),
                  traceEncodingName(enc), err.c_str());
    }

    // Streaming replay must match the in-memory replay exactly.
    std::unique_ptr<TraceFileStreamer> streamer =
        TraceFileStreamer::open(path, StreamConfig{}, &err);
    if (!streamer)
        fatal("%s", err.c_str());
    LoopDetector streamDet({16});
    LoopEventRecorder streamRec;
    streamDet.addListener(&streamRec);
    err = streamer->replayControl(streamDet);
    if (!err.empty())
        fatal("%s", err.c_str());
    LoopDetector memDet({16});
    LoopEventRecorder memRec;
    memDet.addListener(&memRec);
    replayControlTrace(trace, memDet);
    err = compareRecordings(memRec.take(), streamRec.take());
    if (!err.empty())
        fatal("%s: streaming vs in-memory replay: %s", path.c_str(),
              err.c_str());
}

int
cmdVerify(int argc, char **argv)
{
    CliArgs args(argc, argv, {});
    if (args.positionals().empty())
        fatal("verify needs at least one container file");
    for (const std::string &path : args.positionals()) {
        verifyFile(path);
        std::cout << "OK " << path << "\n";
    }
    return 0;
}

void
usage()
{
    std::cerr
        << "usage: trace_convert <command> ...\n"
           "  export   --out DIR [--benchmarks a,b] [--encoding raw|"
           "varint]\n"
           "  inspect  FILE...\n"
           "  compress IN OUT [--encoding raw|varint]\n"
           "  verify   FILE...\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    std::string cmd = argv[1];
    // Shift the subcommand out; argv[0] stays for CliArgs.
    std::vector<char *> rest;
    rest.push_back(argv[0]);
    for (int i = 2; i < argc; ++i)
        rest.push_back(argv[i]);
    int rest_argc = static_cast<int>(rest.size());
    char **rest_argv = rest.data();

    if (cmd == "export")
        return cmdExport(rest_argc, rest_argv);
    if (cmd == "inspect")
        return cmdInspect(rest_argc, rest_argv);
    if (cmd == "compress")
        return cmdCompress(rest_argc, rest_argv);
    if (cmd == "verify")
        return cmdVerify(rest_argc, rest_argv);
    usage();
    fatal("unknown command '%s'", cmd.c_str());
}
