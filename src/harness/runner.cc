#include "harness/runner.hh"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>

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
    opts.clsEntries = args->getUint("cls", 16);
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

/** One full trace pass with a given listener/observer set. */
uint64_t
tracePass(const Program &prog, uint64_t max_instrs, size_t cls_entries,
          const std::vector<LoopListener *> &listeners,
          const std::vector<TraceObserver *> &extra_observers = {})
{
    EngineConfig ecfg;
    ecfg.maxInstrs = max_instrs;
    TraceEngine engine(prog, ecfg);
    LoopDetector detector({cls_entries});
    for (auto *l : listeners)
        detector.addListener(l);
    engine.addObserver(&detector);
    for (auto *obs : extra_observers)
        engine.addObserver(obs);
    return engine.run();
}

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

/** Fan one replayed batch out to several observers (detector +
 *  predictor meters ride the same streaming pass, as they ride the
 *  same engine pass in process). Needs what its neediest target
 *  needs, so an all-hot-plane set replays hot planes. */
class FanoutObserver : public TraceObserver
{
  public:
    void add(TraceObserver *obs) { targets.push_back(obs); }

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
        for (auto *o : targets)
            o->onTraceEnd(total_instrs);
    }

  private:
    std::vector<TraceObserver *> targets;
};

/**
 * The --trace-dir functional pass: an out-of-core streaming replay of
 * <traceDir>/<name>.lstrace stands in for executing the workload.
 * Derivations are shared with the in-process path (recording replays,
 * meter replays), so artifacts are bit-identical to a run over the
 * ControlTrace the file was exported from. Under checkReplay the
 * streaming pass is additionally cross-checked against a fully
 * materialized in-memory replay of the same file. A container that
 * cannot be opened or read (a payload failing its CRC mid-stream)
 * lands in @p error when the caller passed one, fatal() otherwise.
 */
WorkloadArtifacts
runWorkloadFromTrace(const std::string &name, const RunOptions &opts,
                     const CollectFlags &flags, std::string *error)
{
    WorkloadArtifacts out;
    out.name = name;
    if (flags.dataSpec || flags.dataCorrectness || flags.memTrace) {
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

    const std::string path =
        traceFilePath(opts.traceDir, name, kControlTraceExt);
    std::string err;
    std::unique_ptr<TraceFileStreamer> streamer =
        TraceFileStreamer::open(path, StreamConfig{}, &err);
    if (!streamer)
        return failed(err);

    // A recording always rides along under checkReplay: comparing it
    // against the materialized replay covers the whole detector event
    // stream in one oracle.
    const bool need_recorder =
        flags.recording || flags.hitRatios || opts.checkReplay;

    LoopStats stats;
    IdealTpcComputer ideal;
    LoopEventRecorder recorder;
    LoopDetector detector({opts.clsEntries});
    if (flags.loopStats)
        detector.addListener(&stats);
    if (flags.ideal)
        detector.addListener(&ideal);
    if (need_recorder)
        detector.addListener(&recorder);
    PredictorMeter predictorMeter(flags.predictors);

    FanoutObserver fan;
    fan.add(&detector);
    if (!flags.predictors.empty())
        fan.add(&predictorMeter);

    err = streamer->replayControl(fan, opts.maxInstrs);
    if (!err.empty())
        return failed(err);
    out.totalInstrs = streamer->totalInstrs();
    if (opts.maxInstrs && opts.maxInstrs < out.totalInstrs)
        out.totalInstrs = opts.maxInstrs;

    LoopEventRecording recording;
    if (need_recorder)
        recording = recorder.take();

    ControlTrace materialized;
    if (opts.checkReplay || flags.controlTrace) {
        err = loadControlTraceFile(path, &materialized);
        if (!err.empty())
            return failed(err);
    }

    if (opts.checkReplay) {
        LoopDetector direct({opts.clsEntries});
        LoopEventRecorder directRec;
        direct.addListener(&directRec);
        PredictorMeter directMeter(flags.predictors);
        FanoutObserver directFan;
        directFan.add(&direct);
        if (!flags.predictors.empty())
            directFan.add(&directMeter);
        replayControlTrace(materialized, directFan, opts.maxInstrs);
        std::string diff =
            compareRecordings(directRec.take(), recording);
        if (!diff.empty()) {
            fatal("%s: streaming replay diverges from in-memory "
                  "replay: %s",
                  name.c_str(), diff.c_str());
        }
        std::vector<PredictorMeterResult> a = predictorMeter.results();
        std::vector<PredictorMeterResult> b = directMeter.results();
        for (size_t i = 0; i < a.size(); ++i) {
            if (a[i].lookups != b[i].lookups || a[i].hits != b[i].hits ||
                a[i].stateHash != b[i].stateHash) {
                fatal("%s: predictor %s diverges between streaming and "
                      "in-memory replay",
                      name.c_str(), predictorName(a[i].config).c_str());
            }
        }
    }

    if (flags.loopStats)
        out.loopStats = stats.report();
    if (flags.hitRatios) {
        std::vector<std::unique_ptr<LetHitMeter>> lets;
        std::vector<std::unique_ptr<LitHitMeter>> lits;
        std::vector<LoopListener *> meters;
        for (size_t sz : hitRatioTableSizes()) {
            lets.push_back(std::make_unique<LetHitMeter>(sz));
            lits.push_back(std::make_unique<LitHitMeter>(sz));
            meters.push_back(lets.back().get());
            meters.push_back(lits.back().get());
        }
        replayLoopEvents(recording, meters);
        for (size_t i = 0; i < lets.size(); ++i) {
            out.letResults.emplace_back(lets[i]->numEntries(),
                                        lets[i]->result());
            out.litResults.emplace_back(lits[i]->numEntries(),
                                        lits[i]->result());
        }
    }
    if (flags.ideal) {
        out.idealTpc = ideal.tpc();
        IdealTpcComputer prefix;
        LoopDetector prefixDet({opts.clsEntries});
        prefixDet.addListener(&prefix);
        err = streamer->replayControl(prefixDet, out.totalInstrs / 2);
        if (!err.empty())
            return failed(err);
        out.idealTpcPrefix = prefix.tpc();
        if (opts.checkReplay) {
            IdealTpcComputer direct;
            LoopDetector directDet({opts.clsEntries});
            directDet.addListener(&direct);
            replayControlTrace(materialized, directDet,
                               out.totalInstrs / 2);
            if (direct.tpc() != prefix.tpc() ||
                direct.idealCycles() != prefix.idealCycles()) {
                fatal("%s: prefix replay mismatch: in-memory TPC %.17g "
                      "vs streaming %.17g",
                      name.c_str(), direct.tpc(), prefix.tpc());
            }
        }
    }
    if (!flags.predictors.empty())
        out.predictorStats = predictorMeter.results();
    if (flags.recording)
        out.recording = std::move(recording);
    if (flags.controlTrace)
        out.controlTrace = std::move(materialized);
    return out;
}

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

    if (!opts.traceDir.empty())
        return runWorkloadFromTrace(name, opts, flags, error);

    Program prog = buildWorkload(name, opts.scale);

    // --- Single functional pass -------------------------------------
    // Everything an experiment needs is gathered here; derived
    // configurations below run off the recordings, never the engine.
    const bool need_recorder = flags.recording || flags.hitRatios;
    const bool check_predictors =
        !flags.predictors.empty() && opts.checkReplay;
    const bool need_ctrace =
        flags.ideal || flags.controlTrace || check_predictors;

    LoopStats stats;
    IdealTpcComputer ideal;
    LoopEventRecorder recorder;
    ControlTraceRecorder ctraceRecorder;
    DataSpecConfig dcfg;
    dcfg.recordPerIteration = flags.dataCorrectness;
    DataSpecProfiler profiler(dcfg);

    // Cross-check mode: meters also ride the live pass for comparison.
    std::vector<std::unique_ptr<LetHitMeter>> liveLets;
    std::vector<std::unique_ptr<LitHitMeter>> liveLits;

    std::vector<LoopListener *> listeners;
    if (flags.loopStats)
        listeners.push_back(&stats);
    if (flags.hitRatios && opts.checkReplay) {
        for (size_t sz : hitRatioTableSizes()) {
            liveLets.push_back(std::make_unique<LetHitMeter>(sz));
            liveLits.push_back(std::make_unique<LitHitMeter>(sz));
            listeners.push_back(liveLets.back().get());
            listeners.push_back(liveLits.back().get());
        }
    }
    if (flags.ideal)
        listeners.push_back(&ideal);
    if (need_recorder)
        listeners.push_back(&recorder);
    if (flags.dataSpec)
        listeners.push_back(&profiler);

    PredictorMeter predictorMeter(flags.predictors);
    MemTraceRecorder memRecorder;

    std::vector<TraceObserver *> extra;
    if (need_ctrace)
        extra.push_back(&ctraceRecorder);
    if (!flags.predictors.empty())
        extra.push_back(&predictorMeter);
    if (flags.memTrace)
        extra.push_back(&memRecorder);

    out.totalInstrs =
        tracePass(prog, opts.maxInstrs, opts.clsEntries, listeners, extra);

    LoopEventRecording recording;
    if (need_recorder)
        recording = recorder.take();
    ControlTrace ctrace;
    if (need_ctrace)
        ctrace = ctraceRecorder.take();

    // --- Replay-derived artifacts -----------------------------------
    if (flags.loopStats)
        out.loopStats = stats.report();
    if (flags.hitRatios) {
        // Figure-4 table-size sweep: the meters consume loop events
        // only, so all eight run off the recorded stream.
        std::vector<std::unique_ptr<LetHitMeter>> lets;
        std::vector<std::unique_ptr<LitHitMeter>> lits;
        std::vector<LoopListener *> meters;
        for (size_t sz : hitRatioTableSizes()) {
            lets.push_back(std::make_unique<LetHitMeter>(sz));
            lits.push_back(std::make_unique<LitHitMeter>(sz));
            meters.push_back(lets.back().get());
            meters.push_back(lits.back().get());
        }
        replayLoopEvents(recording, meters);
        for (size_t i = 0; i < lets.size(); ++i) {
            out.letResults.emplace_back(lets[i]->numEntries(),
                                        lets[i]->result());
            out.litResults.emplace_back(lits[i]->numEntries(),
                                        lits[i]->result());
        }
        if (opts.checkReplay) {
            for (size_t i = 0; i < lets.size(); ++i) {
                checkMeterMatch("LET", name, lets[i]->numEntries(),
                                liveLets[i]->result(), lets[i]->result());
                checkMeterMatch("LIT", name, lits[i]->numEntries(),
                                liveLits[i]->result(), lits[i]->result());
            }
        }
    }
    if (flags.ideal) {
        out.idealTpc = ideal.tpc();
        // Figure 5 pairs the full run with a truncated prefix to show
        // the behaviour is stable; replay the recorded control stream
        // over the first half instead of re-executing the workload.
        IdealTpcComputer prefix;
        LoopDetector prefixDet({opts.clsEntries});
        prefixDet.addListener(&prefix);
        replayControlTrace(ctrace, prefixDet, out.totalInstrs / 2);
        out.idealTpcPrefix = prefix.tpc();
        if (opts.checkReplay) {
            IdealTpcComputer direct;
            Program prog2 = buildWorkload(name, opts.scale);
            tracePass(prog2, out.totalInstrs / 2, opts.clsEntries,
                      {&direct});
            if (direct.tpc() != prefix.tpc() ||
                direct.idealCycles() != prefix.idealCycles()) {
                fatal("%s: prefix replay mismatch: direct TPC %.17g vs "
                      "replay %.17g",
                      name.c_str(), direct.tpc(), prefix.tpc());
            }
        }
    }
    if (!flags.predictors.empty()) {
        out.predictorStats = predictorMeter.results();
        if (opts.checkReplay) {
            // The meters read only pc/kind/taken — fields the control
            // trace records exactly — so a replay-fed meter bank must
            // be indistinguishable, final table state included.
            PredictorMeter replayMeter(flags.predictors);
            replayControlTrace(ctrace, replayMeter);
            std::vector<PredictorMeterResult> derived =
                replayMeter.results();
            for (size_t i = 0; i < derived.size(); ++i) {
                const PredictorMeterResult &a = out.predictorStats[i];
                const PredictorMeterResult &b = derived[i];
                if (a.lookups != b.lookups || a.hits != b.hits ||
                    a.stateHash != b.stateHash) {
                    fatal("%s: predictor %s replay mismatch: live "
                          "%llu/%llu hash %016llx vs replay %llu/%llu "
                          "hash %016llx",
                          name.c_str(),
                          predictorName(a.config).c_str(),
                          static_cast<unsigned long long>(a.hits),
                          static_cast<unsigned long long>(a.lookups),
                          static_cast<unsigned long long>(a.stateHash),
                          static_cast<unsigned long long>(b.hits),
                          static_cast<unsigned long long>(b.lookups),
                          static_cast<unsigned long long>(b.stateHash));
                }
            }
        }
    }
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
