#include "harness/runner.hh"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>

#include "loop/cls.hh"
#include "loop/loop_detector.hh"
#include "speculation/ideal_tpc.hh"
#include "trace_io/stream_reader.hh"
#include "trace_io/trace_codec.hh"
#include "tracegen/trace_engine.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace loopspec
{

std::vector<std::string>
RunOptions::selected() const
{
    if (!benchmarks.empty())
        return benchmarks;
    if (!traceDir.empty()) {
        std::vector<std::string> names = traceDirWorkloads(traceDir);
        if (names.empty())
            fatal("no *%s files in trace directory %s",
                  kControlTraceExt, traceDir.c_str());
        return names;
    }
    return workloadNames();
}

RunOptions
parseRunOptions(int argc, char **argv,
                const std::vector<std::string> &extra_flags,
                std::unique_ptr<CliArgs> *args_out)
{
    std::vector<std::string> known = {"scale", "benchmarks", "cls",
                                      "max-instrs", "csv",
                                      "check-replay", "jobs",
                                      "trace-dir"};
    known.insert(known.end(), extra_flags.begin(), extra_flags.end());

    auto args = std::make_unique<CliArgs>(argc, argv, known);

    RunOptions opts;
    opts.scale.factor = args->getDouble("scale", 1.0);
    if (opts.scale.factor <= 0.0)
        fatal("--scale must be positive");
    opts.benchmarks = splitList(args->getString("benchmarks", ""));
    const uint64_t cls = args->getUint("cls", 16);
    if (cls < 1 || cls > clsMaxCapacity)
        fatal("--cls: CLS size %llu outside [1, %zu]",
              static_cast<unsigned long long>(cls), clsMaxCapacity);
    opts.clsEntries = static_cast<size_t>(cls);
    opts.maxInstrs = args->getUint("max-instrs", 0);
    opts.csv = args->getBool("csv", false);
    opts.checkReplay = args->getBool("check-replay", false);
    opts.jobs = static_cast<unsigned>(args->getUint("jobs", 0));
    opts.traceDir = args->getString("trace-dir", "");
    if (args_out)
        *args_out = std::move(args);
    return opts;
}

SweepGrid
sweepGridFromOptions(const RunOptions &opts)
{
    SweepGrid grid;
    grid.workloads = opts.selected();
    grid.clsSizes = {opts.clsEntries};
    grid.scale = opts.scale;
    grid.maxInstrs = opts.maxInstrs;
    grid.checkReplay = opts.checkReplay;
    grid.traceDir = opts.traceDir;
    return grid;
}

void
writeSweepJsonFile(const std::string &path, const SweepResult &result,
                   unsigned jobs, double serial_seconds)
{
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os)
        fatal("cannot write %s", path.c_str());
    writeSweepJson(os, result, jobs, serial_seconds);
    std::cout << "wrote " << path << "\n";
}

const std::vector<size_t> &
hitRatioTableSizes()
{
    static const std::vector<size_t> sizes = {2, 4, 8, 16};
    return sizes;
}

namespace
{

/** Figure 4's LET and LIT hit meters, one of each per table size,
 *  listening to @p det. */
struct MeterBank
{
    std::vector<std::unique_ptr<LetHitMeter>> lets;
    std::vector<std::unique_ptr<LitHitMeter>> lits;

    explicit MeterBank(LoopDetector &det)
    {
        for (size_t sz : hitRatioTableSizes()) {
            lets.push_back(std::make_unique<LetHitMeter>(sz));
            lits.push_back(std::make_unique<LitHitMeter>(sz));
            det.addListener(lets.back().get());
            det.addListener(lits.back().get());
        }
    }
};

void
checkMeterMatch(const char *what, const std::string &name, size_t entries,
                const HitRatioResult &direct, const HitRatioResult &replay)
{
    if (direct.accesses != replay.accesses || direct.hits != replay.hits) {
        fatal("%s: %s@%zu replay mismatch: direct %llu/%llu vs "
              "replay %llu/%llu",
              name.c_str(), what, entries,
              static_cast<unsigned long long>(direct.hits),
              static_cast<unsigned long long>(direct.accesses),
              static_cast<unsigned long long>(replay.hits),
              static_cast<unsigned long long>(replay.accesses));
    }
}

/** Fatal unless two meter banks hold identical results. */
void
checkMetersMatch(const std::string &name, const MeterBank &direct,
                 const MeterBank &replay)
{
    for (size_t i = 0; i < direct.lets.size(); ++i) {
        checkMeterMatch("LET", name, direct.lets[i]->numEntries(),
                        direct.lets[i]->result(), replay.lets[i]->result());
        checkMeterMatch("LIT", name, direct.lits[i]->numEntries(),
                        direct.lits[i]->result(), replay.lits[i]->result());
    }
}

/** Fan one batch out to several observers: the detector, control-trace
 *  recorder, predictor meters and memory sidecar ride the same pass
 *  whether it executes the program or streams a container. Needs what
 *  its neediest target needs, so an all-hot-plane set runs on hot
 *  planes. Keeps the pass's length from onTraceEnd. */
class FanoutObserver : public TraceObserver
{
  public:
    void add(TraceObserver *obs) { targets.push_back(obs); }

    /** Instructions delivered (valid after onTraceEnd). */
    uint64_t totalInstrs() const { return total; }

    void
    onInstr(const DynInstr &instr) override
    {
        for (auto *o : targets)
            o->onInstr(instr);
    }

    void
    onInstrBatchSoA(const SoaBatch &batch) override
    {
        for (auto *o : targets)
            o->onInstrBatchSoA(batch);
    }

    BatchNeed
    batchNeed() const override
    {
        BatchNeed need = BatchNeed::HotPlanes;
        for (auto *o : targets)
            need = std::max(need, o->batchNeed());
        return need;
    }

    void
    onTraceEnd(uint64_t total_instrs) override
    {
        total = total_instrs;
        for (auto *o : targets)
            o->onTraceEnd(total_instrs);
    }

  private:
    std::vector<TraceObserver *> targets;
    uint64_t total = 0;
};

} // namespace

WorkloadArtifacts
runWorkload(const std::string &name, const RunOptions &opts,
            const CollectFlags &flags_in, std::string *error)
{
    WorkloadArtifacts out;
    out.name = name;

    CollectFlags flags = flags_in;
    if (flags.dataCorrectness) {
        flags.recording = true;
        flags.dataSpec = true;
    }
    const bool streamed = !opts.traceDir.empty();
    if (streamed && (flags.dataSpec || flags.memTrace)) {
        fatal("%s: data-speculation profiling reads operand values, "
              "which a control-trace replay (--trace-dir) cannot "
              "provide",
              name.c_str());
    }
    const auto failed = [&](const std::string &msg) {
        if (!error)
            fatal("%s", msg.c_str());
        *error = msg;
        return WorkloadArtifacts{};
    };

    // --- Pass source ---------------------------------------------------
    // In process the pass executes the program. Under --trace-dir an
    // out-of-core streaming replay of <traceDir>/<name>.lstrace stands
    // in for it; everything below is shared, so its artifacts are
    // bit-identical to a run over the ControlTrace the file was
    // exported from. A container that cannot be opened or read (a
    // payload failing its CRC mid-stream) is failed(), not a crash.
    Program prog;
    std::unique_ptr<TraceFileStreamer> streamer;
    const std::string path =
        streamed ? traceFilePath(opts.traceDir, name, kControlTraceExt)
                 : std::string();
    std::string err;
    if (streamed) {
        streamer = TraceFileStreamer::open(path, StreamConfig{}, &err);
        if (!streamer)
            return failed(err);
    } else {
        prog = buildWorkload(name, opts.scale);
    }

    // The control trace: recorded on the pass in process, loaded from
    // the container under --trace-dir.
    ControlTrace ctrace;
    // Feed the first @p max_instrs instructions (0 = all) into @p obs,
    // either from the source afresh (execute again / stream the file
    // again) or from the in-memory control trace.
    const auto feed = [&](bool from_source, TraceObserver &obs,
                          uint64_t max_instrs) -> std::string {
        if (!from_source) {
            replayControlTrace(ctrace, obs, max_instrs);
            return "";
        }
        if (streamer)
            return streamer->replayControl(obs, max_instrs);
        EngineConfig ecfg;
        ecfg.maxInstrs = max_instrs;
        TraceEngine engine(prog, ecfg);
        engine.addObserver(&obs);
        engine.run();
        return "";
    };
    const auto feed_name = [&](bool from_source) {
        if (from_source)
            return streamed ? "streaming replay" : "direct execution";
        return streamed ? "in-memory replay" : "control-trace replay";
    };

    // --- Single pass ---------------------------------------------------
    // Everything an experiment needs is gathered here; derived
    // configurations below replay the control trace. Under checkReplay
    // a recording, the Figure-4 meter bank and the control trace always
    // ride along: replaying the trace into a fresh detector with its own
    // recorder and meters must reproduce both. The recording covers the
    // events the simulator reads; the meters also hear IterEnd and
    // single-iteration executions, so together they cover the whole
    // detector event stream.
    const bool need_recorder = flags.recording || opts.checkReplay;
    const bool need_meters = flags.hitRatios || opts.checkReplay;
    const bool need_ctrace = flags.controlTrace || opts.checkReplay ||
                             (flags.ideal && !streamed);

    LoopStats stats;
    IdealTpcComputer ideal;
    LoopEventRecorder recorder;
    ControlTraceRecorder ctraceRecorder;
    DataSpecConfig dcfg;
    dcfg.recordPerIteration = flags.dataCorrectness;
    DataSpecProfiler profiler(dcfg);
    PredictorMeter predictorMeter(flags.predictors);
    MemTraceRecorder memRecorder;

    LoopDetector detector({opts.clsEntries});
    if (flags.loopStats)
        detector.addListener(&stats);
    std::unique_ptr<MeterBank> meters;
    if (need_meters)
        meters = std::make_unique<MeterBank>(detector);
    if (flags.ideal)
        detector.addListener(&ideal);
    if (need_recorder)
        detector.addListener(&recorder);
    if (flags.dataSpec)
        detector.addListener(&profiler);

    FanoutObserver pass;
    pass.add(&detector);
    if (need_ctrace && !streamed)
        pass.add(&ctraceRecorder);
    if (!flags.predictors.empty())
        pass.add(&predictorMeter);
    if (flags.memTrace)
        pass.add(&memRecorder);

    err = feed(true, pass, opts.maxInstrs);
    if (!err.empty())
        return failed(err);
    out.totalInstrs = pass.totalInstrs();

    LoopEventRecording recording;
    if (need_recorder)
        recording = recorder.take();
    if (need_ctrace && streamed) {
        err = loadControlTraceFile(path, &ctrace);
        if (!err.empty())
            return failed(err);
    } else if (need_ctrace) {
        ctrace = ctraceRecorder.take();
    }

    // --- Replay-derived artifacts --------------------------------------
    if (opts.checkReplay) {
        // The control trace replayed into a fresh detector, LET/LIT
        // bank and predictor bank must be indistinguishable from the
        // pass: the predictor meters read only pc/kind/taken, fields the
        // trace records exactly, so final table state is compared too.
        LoopDetector refDet({opts.clsEntries});
        MeterBank refMeters(refDet);
        LoopEventRecorder refRec;
        refDet.addListener(&refRec);
        PredictorMeter refMeter(flags.predictors);
        FanoutObserver ref;
        ref.add(&refDet);
        if (!flags.predictors.empty())
            ref.add(&refMeter);
        feed(false, ref, opts.maxInstrs);
        std::string diff = compareRecordings(refRec.take(), recording);
        if (!diff.empty()) {
            fatal("%s: %s diverges from %s: %s", name.c_str(),
                  feed_name(true), feed_name(false), diff.c_str());
        }
        checkMetersMatch(name, *meters, refMeters);
        std::vector<PredictorMeterResult> live = predictorMeter.results();
        std::vector<PredictorMeterResult> replayed = refMeter.results();
        for (size_t i = 0; i < live.size(); ++i) {
            const PredictorMeterResult &a = live[i];
            const PredictorMeterResult &b = replayed[i];
            if (a.lookups != b.lookups || a.hits != b.hits ||
                a.stateHash != b.stateHash) {
                fatal("%s: predictor %s replay mismatch: %s %llu/%llu "
                      "hash %016llx vs %s %llu/%llu hash %016llx",
                      name.c_str(), predictorName(a.config).c_str(),
                      feed_name(true),
                      static_cast<unsigned long long>(a.hits),
                      static_cast<unsigned long long>(a.lookups),
                      static_cast<unsigned long long>(a.stateHash),
                      feed_name(false),
                      static_cast<unsigned long long>(b.hits),
                      static_cast<unsigned long long>(b.lookups),
                      static_cast<unsigned long long>(b.stateHash));
            }
        }
    }
    if (flags.loopStats)
        out.loopStats = stats.report();
    if (flags.hitRatios) {
        for (size_t i = 0; i < meters->lets.size(); ++i) {
            out.letResults.emplace_back(meters->lets[i]->numEntries(),
                                        meters->lets[i]->result());
            out.litResults.emplace_back(meters->lits[i]->numEntries(),
                                        meters->lits[i]->result());
        }
    }
    if (flags.ideal) {
        out.idealTpc = ideal.tpc();
        // Figure 5 pairs the full run with a truncated prefix to show
        // the behaviour is stable. The stream is replayed again over
        // the first half instead of re-executing the workload: from the
        // recorded control trace in process, by streaming the container
        // afresh under --trace-dir. The --check-replay reference is the
        // other feed.
        const uint64_t half = out.totalInstrs / 2;
        IdealTpcComputer prefix;
        LoopDetector prefixDet({opts.clsEntries});
        prefixDet.addListener(&prefix);
        err = feed(streamed, prefixDet, half);
        if (!err.empty())
            return failed(err);
        out.idealTpcPrefix = prefix.tpc();
        if (opts.checkReplay) {
            IdealTpcComputer direct;
            LoopDetector directDet({opts.clsEntries});
            directDet.addListener(&direct);
            feed(!streamed, directDet, half);
            if (direct.tpc() != prefix.tpc() ||
                direct.idealCycles() != prefix.idealCycles()) {
                fatal("%s: prefix replay mismatch: %s TPC %.17g vs "
                      "%s %.17g",
                      name.c_str(), feed_name(!streamed), direct.tpc(),
                      feed_name(streamed), prefix.tpc());
            }
        }
    }
    if (!flags.predictors.empty())
        out.predictorStats = predictorMeter.results();
    if (flags.recording)
        out.recording = std::move(recording);
    if (flags.dataSpec)
        out.dataSpec = profiler.report();
    if (flags.dataCorrectness)
        mergeDataCorrectness(out.recording, profiler);
    if (flags.memTrace)
        out.memTrace = memRecorder.take();
    if (flags.controlTrace)
        out.controlTrace = std::move(ctrace);

    return out;
}

std::vector<WorkloadArtifacts>
runWorkloads(const std::vector<std::string> &names, const RunOptions &opts,
             const CollectFlags &flags, unsigned num_threads)
{
    std::vector<WorkloadArtifacts> results(names.size());
    parallelFor(num_threads, names.size(), [&](uint64_t i) {
        results[i] = runWorkload(names[i], opts, flags);
    });
    return results;
}

std::string
exportWorkloadTrace(const std::string &name, const RunOptions &opts,
                    const std::string &dir, TraceEncoding enc)
{
    if (!opts.traceDir.empty())
        fatal("cannot export traces while replaying from --trace-dir");
    CollectFlags flags;
    flags.controlTrace = true;
    WorkloadArtifacts art = runWorkload(name, opts, flags);
    std::string path = traceFilePath(dir, name, kControlTraceExt);
    writeControlTraceFile(path, art.controlTrace, enc);
    return path;
}

} // namespace loopspec
