/**
 * @file
 * Trace-container I/O benchmark (docs/TRACE_FORMAT.md): encode/write and
 * read/decode throughput for both encodings, the varint compression
 * ratio, and replay throughput of the two out-of-core paths —
 *
 *   mmap      - MappedTraceFile (CRCs verified at open) + whole-image
 *               decode into a materialized ControlTrace, then the
 *               in-memory replayControlTrace. Fastest, but holds the
 *               full transfer vector.
 *   streaming - TraceFileStreamer's bounded-buffer chunked replay; the
 *               peak buffered byte count is reported so the artifact
 *               records the out-of-core guarantee next to its cost.
 *
 * Both replays drive an identical LoopDetector + LoopStats pipeline and
 * must agree with a direct replay of the recorded trace on every
 * Table-1 statistic; any disagreement is fatal. Emits
 * BENCH_trace_io.json (--json overrides) for the perf trajectory; the
 * CI perf-smoke step uploads it.
 *
 * Flags: --benchmark <name> (default compress), --reps N (default 3,
 * best-of-N), --json <path>, plus the standard --scale/--max-instrs/
 * --cls.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "loop/loop_detector.hh"
#include "loop/loop_stats.hh"
#include "trace_io/stream_reader.hh"
#include "trace_io/trace_codec.hh"
#include "tracegen/control_trace.hh"
#include "tracegen/trace_engine.hh"
#include "util/logging.hh"
#include "util/table_writer.hh"

using namespace loopspec;

namespace
{

double
now()
{
    using clk = std::chrono::steady_clock;
    return std::chrono::duration<double>(clk::now().time_since_epoch())
        .count();
}

/** Best-of-reps wall time of @p once (which returns its own check
 *  value so the work cannot be dead-code-eliminated). */
template <typename Fn>
double
best(unsigned reps, Fn &&once)
{
    double best_s = 0.0;
    for (unsigned i = 0; i < reps; ++i) {
        double t0 = now();
        once();
        double s = now() - t0;
        if (i == 0 || s < best_s)
            best_s = s;
    }
    return best_s;
}

double
mbPerSec(uint64_t bytes, double seconds)
{
    return seconds > 0.0
               ? static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds
               : 0.0;
}

double
perSec(uint64_t count, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

/** Detector + LoopStats replay pipeline shared by every path. */
template <typename Fn>
LoopStatsReport
replayStats(size_t cls, Fn &&go)
{
    LoopDetector det({cls});
    LoopStats stats;
    det.addListener(&stats);
    go(det);
    return stats.report();
}

void
checkAgreement(const char *what, const LoopStatsReport &ref,
               const LoopStatsReport &got)
{
    if (ref.totalInstrs != got.totalInstrs ||
        ref.staticLoops != got.staticLoops ||
        ref.totalExecs != got.totalExecs ||
        ref.totalIters != got.totalIters) {
        fatal("%s replay disagrees with in-memory replay (instrs %llu "
              "vs %llu, loops %llu vs %llu, execs %llu vs %llu)",
              what, static_cast<unsigned long long>(got.totalInstrs),
              static_cast<unsigned long long>(ref.totalInstrs),
              static_cast<unsigned long long>(got.staticLoops),
              static_cast<unsigned long long>(ref.staticLoops),
              static_cast<unsigned long long>(got.totalExecs),
              static_cast<unsigned long long>(ref.totalExecs));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::unique_ptr<CliArgs> args;
    RunOptions opts =
        parseRunOptions(argc, argv, {"benchmark", "reps", "json"}, &args);
    const std::string bench = args->getString("benchmark", "compress");
    const unsigned reps =
        static_cast<unsigned>(args->getUint("reps", 3));
    const std::string json_path =
        args->getString("json", "BENCH_trace_io.json");

    // One functional pass records the trace to measure on.
    Program prog = buildWorkload(bench, opts.scale);
    EngineConfig ecfg;
    ecfg.maxInstrs = opts.maxInstrs;
    ControlTrace ctrace;
    {
        TraceEngine engine(prog, ecfg);
        ControlTraceRecorder crec;
        engine.addObserver(&crec);
        engine.run();
        ctrace = crec.take();
    }

    const std::string dir = "."; // scratch files live beside the JSON
    struct EncStat
    {
        const char *name;
        TraceEncoding enc;
        uint64_t traceBytes = 0;
        double writeSec = 0.0;
        double readSec = 0.0;
    };
    EncStat encs[] = {{"raw", TraceEncoding::Raw},
                      {"varint", TraceEncoding::Varint}};

    for (EncStat &e : encs) {
        e.traceBytes = encodeControlTrace(ctrace, e.enc).size();
        std::string path = traceFilePath(
            dir, strprintf("bench_io_%s", e.name), kControlTraceExt);
        e.writeSec = best(reps, [&] {
            writeControlTraceFile(path, ctrace, e.enc);
        });
        e.readSec = best(reps, [&] {
            ControlTrace back = readControlTraceFile(path);
            if (back.totalInstrs != ctrace.totalInstrs)
                fatal("%s read-back lost instructions", e.name);
        });
        std::remove(path.c_str());
    }
    const double trace_ratio =
        encs[0].traceBytes
            ? static_cast<double>(encs[1].traceBytes) / encs[0].traceBytes
            : 0.0;

    // Replay paths, all against the raw-encoded container.
    const std::string rpath =
        traceFilePath(dir, "bench_io_replay", kControlTraceExt);
    writeControlTraceFile(rpath, ctrace, TraceEncoding::Raw);

    LoopStatsReport ref = replayStats(opts.clsEntries, [&](auto &det) {
        return replayControlTrace(ctrace, det);
    });

    LoopStatsReport mmap_stats;
    double mmap_sec = best(reps, [&] {
        std::string err;
        auto map = MappedTraceFile::open(rpath, &err);
        if (!map)
            fatal("%s", err.c_str());
        ControlTrace back;
        err = decodeControlTrace(map->bytes(), map->fileBytes(), &back);
        if (!err.empty())
            fatal("%s", err.c_str());
        mmap_stats = replayStats(opts.clsEntries, [&](auto &det) {
            return replayControlTrace(back, det);
        });
    });
    checkAgreement("mmap", ref, mmap_stats);

    LoopStatsReport stream_stats;
    size_t stream_peak = 0;
    double stream_sec = best(reps, [&] {
        std::string err;
        auto streamer = TraceFileStreamer::open(rpath, {}, &err);
        if (!streamer)
            fatal("%s", err.c_str());
        stream_stats = replayStats(opts.clsEntries, [&](auto &det) {
            std::string rerr = streamer->replayControl(det);
            if (!rerr.empty())
                fatal("%s", rerr.c_str());
            return streamer->totalInstrs();
        });
        stream_peak = streamer->peakBufferBytes();
    });
    checkAgreement("streaming", ref, stream_stats);
    std::remove(rpath.c_str());

    const uint64_t instrs = ctrace.totalInstrs;

    TableWriter t({"metric", "raw", "varint"});
    t.row();
    t.cell(std::string("container bytes"));
    t.cell(encs[0].traceBytes);
    t.cell(encs[1].traceBytes);
    t.row();
    t.cell(std::string("write MB/s"));
    t.cell(mbPerSec(encs[0].traceBytes, encs[0].writeSec), 1);
    t.cell(mbPerSec(encs[1].traceBytes, encs[1].writeSec), 1);
    t.row();
    t.cell(std::string("read MB/s"));
    t.cell(mbPerSec(encs[0].traceBytes, encs[0].readSec), 1);
    t.cell(mbPerSec(encs[1].traceBytes, encs[1].readSec), 1);
    std::cout << "Trace-container I/O, workload " << bench << " ("
              << instrs << " instrs, best of " << reps << ")\n";
    if (opts.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
    std::cout << "varint/raw size ratio: trace "
              << strprintf("%.3f", trace_ratio) << "\n"
              << "replay Minstr/s: mmap "
              << strprintf("%.2f", perSec(instrs, mmap_sec) / 1e6)
              << ", streaming "
              << strprintf("%.2f", perSec(instrs, stream_sec) / 1e6)
              << " (peak buffer " << stream_peak << " B of "
              << encs[0].traceBytes << " B file)\n";

    std::ofstream js(json_path);
    if (!js)
        fatal("cannot write %s", json_path.c_str());
    js << "{\n"
       << "  \"workload\": \"" << bench << "\",\n"
       << "  \"scale\": " << opts.scale.factor << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"instrs\": " << instrs << ",\n"
       << "  \"encodings\": {\n";
    for (size_t i = 0; i < 2; ++i) {
        const EncStat &e = encs[i];
        js << "    \"" << e.name << "\": {\"trace_bytes\": "
           << e.traceBytes << ", \"write_mb_per_sec\": "
           << mbPerSec(e.traceBytes, e.writeSec)
           << ", \"read_mb_per_sec\": "
           << mbPerSec(e.traceBytes, e.readSec) << "}"
           << (i == 0 ? "," : "") << "\n";
    }
    js << "  },\n"
       << "  \"compression_ratio\": {\"trace\": " << trace_ratio
       << "},\n"
       << "  \"replay\": {\n"
       << "    \"mmap_instrs_per_sec\": " << perSec(instrs, mmap_sec)
       << ",\n"
       << "    \"streaming_instrs_per_sec\": "
       << perSec(instrs, stream_sec) << ",\n"
       << "    \"streaming_peak_buffer_bytes\": " << stream_peak << "\n"
       << "  }\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
    return 0;
}
