/**
 * @file
 * runSpecSweep rebuilt from outside, one public call per stage, with a
 * span around each call. It follows speculation/sweep.cc step for step;
 * the traced run proves it by comparing its JSON with runSpecSweep's
 * byte for byte, so a change to the engine that this file does not
 * follow shows up as a failed check, not as a silently wrong layer
 * split.
 */

#include <atomic>
#include <memory>

#include "dataspec/conflict_profiler.hh"
#include "harness/runner.hh"
#include "loop/loop_detector.hh"
#include "perfbench/perfbench.hh"
#include "speculation/ideal_tpc.hh"
#include "speculation/spec_sim.hh"
#include "trace_io/replay_source.hh"
#include "trace_io/stream_reader.hh"
#include "trace_io/trace_codec.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

using namespace loopspec;

namespace perfbench
{

namespace
{

/** Detector + listeners of one replay-derived CLS size. */
struct DerivedState
{
    LoopDetector det;
    LoopEventRecorder rec;
    IdealTpcComputer ideal;
    explicit DerivedState(size_t cls_entries) : det({cls_entries}) {}
};

} // namespace

SweepResult
decomposedSweep(const SweepGrid &grid, unsigned jobs, Tracer &tracer,
                uint64_t rid, uint64_t parent, LayerSample *sample)
{
    if (grid.checkReplay)
        fatal("decomposedSweep: check-replay grids are not mirrored");
    SpanScope sweep_span(tracer, "harness.sweep", parent, rid);

    SweepResult out;
    out.grid = grid;
    const size_t num_w = grid.workloads.size();
    const size_t num_c = grid.clsSizes.size();
    const bool cells = grid.hasCells();
    const bool data = grid.needsDataCorrectness();
    const bool conflicts = cells && grid.needsConflictProfile();
    const bool from_traces = !grid.traceDir.empty();
    const bool derive_cls = num_c > 1 && (cells || grid.ideal);

    out.rows.resize(num_w * num_c);
    std::vector<LoopEventRecording> recordings(cells ? num_w * num_c : 0);

    RunOptions opts;
    opts.scale = grid.scale;
    opts.maxInstrs = grid.maxInstrs;
    opts.clsEntries = grid.clsSizes[0];
    opts.traceDir = grid.traceDir;

    CollectFlags flags;
    flags.recording = cells;
    flags.ideal = grid.ideal;
    flags.dataSpec = grid.dataSpec;
    flags.dataCorrectness = data;
    flags.memTrace = conflicts;
    flags.controlTrace = derive_cls && !from_traces;

    // In trace-dir mode runWorkload is a streaming replay, so its time
    // belongs to trace_io, not to the functional simulator.
    const std::string pass_span =
        from_traces ? "trace_io.runWorkload" : "tracegen.runWorkload";

    std::atomic<uint64_t> pass_instrs{0};
    std::atomic<uint64_t> replayed_instrs{0};
    std::atomic<uint64_t> mem_accesses{0};
    const uint64_t bytes_before = bytesReadSoFar();

    {
        SpanScope stage1(tracer, "harness.stage1", sweep_span.id(), rid);
        parallelFor(jobs, num_w, [&](uint64_t w) {
            SpanScope item(tracer, "harness.stage1_item", stage1.id(), rid);
            WorkloadArtifacts art;
            {
                SpanScope s(tracer, pass_span, item.id(), rid);
                art = runWorkload(grid.workloads[w], opts, flags);
            }
            pass_instrs += art.totalInstrs;
            mem_accesses += art.memTrace.accesses.size();
            for (size_t c = 0; c < num_c; ++c) {
                SweepRow &row = out.rows[w * num_c + c];
                row.workload = grid.workloads[w];
                row.clsEntries = grid.clsSizes[c];
                row.totalInstrs = art.totalInstrs;
            }
            SweepRow &row0 = out.rows[w * num_c];
            row0.idealTpc = art.idealTpc;
            row0.idealTpcPrefix = art.idealTpcPrefix;
            row0.dataSpec = art.dataSpec;
            if (cells)
                recordings[w * num_c] = std::move(art.recording);

            std::unique_ptr<TraceFileStreamer> streamer;
            if (derive_cls && from_traces) {
                std::string err;
                streamer = TraceFileStreamer::open(
                    traceFilePath(grid.traceDir, grid.workloads[w],
                                  kControlTraceExt),
                    StreamConfig{}, &err);
                if (!streamer)
                    fatal("%s", err.c_str());
            }

            // One interleaved walk over every derived CLS size, then (for
            // the ideal artifacts) one over the half-trace prefix.
            const auto replay = [&](bool prefix) {
                std::vector<std::unique_ptr<DerivedState>> states;
                std::vector<std::unique_ptr<ReplaySource>> sources;
                std::vector<ReplaySource *> ptrs;
                // As in sweep.cc: in-memory sources replay the already
                // truncated trace whole, streamed ones clamp to the grid.
                const uint64_t window =
                    prefix ? art.totalInstrs / 2
                           : (from_traces ? grid.maxInstrs : 0);
                for (size_t c = 1; c < num_c; ++c) {
                    auto st =
                        std::make_unique<DerivedState>(grid.clsSizes[c]);
                    if (cells && !prefix)
                        st->det.addListener(&st->rec);
                    if (grid.ideal)
                        st->det.addListener(&st->ideal);
                    if (from_traces)
                        sources.push_back(
                            std::make_unique<StreamedControlSource>(
                                *streamer, st->det, window));
                    else
                        sources.push_back(
                            std::make_unique<ControlTraceSource>(
                                art.controlTrace, st->det, window));
                    ptrs.push_back(sources.back().get());
                    states.push_back(std::move(st));
                }
                {
                    SpanScope s(tracer, "trace_io.interleaveReplay",
                                item.id(), rid);
                    std::string err = interleaveReplay(ptrs);
                    if (!err.empty())
                        fatal("%s", err.c_str());
                }
                for (ReplaySource *src : ptrs)
                    replayed_instrs += src->position();
                for (size_t c = 1; c < num_c; ++c) {
                    DerivedState &st = *states[c - 1];
                    SweepRow &row = out.rows[w * num_c + c];
                    if (prefix) {
                        row.idealTpcPrefix = st.ideal.tpc();
                        continue;
                    }
                    if (cells)
                        recordings[w * num_c + c] = st.rec.take();
                    if (grid.ideal)
                        row.idealTpc = st.ideal.tpc();
                }
            };
            if (derive_cls) {
                replay(false);
                if (grid.ideal)
                    replay(true);
            }

            if (conflicts) {
                for (size_t c = 0; c < num_c; ++c) {
                    LoopEventRecording &r = recordings[w * num_c + c];
                    ConflictProfile profile;
                    {
                        SpanScope s(tracer, "dataspec.profileConflicts",
                                    item.id(), rid);
                        profile = profileConflicts(r, art.memTrace);
                    }
                    SpanScope s(tracer, "dataspec.annotateConflicts",
                                item.id(), rid);
                    annotateConflicts(&r, profile);
                }
            }
        });
    }
    const uint64_t bytes_read = bytesReadSoFar() - bytes_before;
    out.functionalPasses = num_w;
    out.recordingsProduced = cells ? num_w * num_c : 0;

    std::vector<std::unique_ptr<RecordingIndex>> indexes(recordings.size());
    if (cells) {
        SpanScope stage2(tracer, "harness.stage2", sweep_span.id(), rid);
        parallelFor(jobs, indexes.size(), [&](uint64_t i) {
            SpanScope s(tracer, "speculation.RecordingIndex", stage2.id(),
                        rid);
            indexes[i] = std::make_unique<RecordingIndex>(recordings[i]);
        });

        std::vector<const LoopEventRecording *> rec_ptrs(recordings.size());
        std::vector<const RecordingIndex *> idx_ptrs(indexes.size());
        for (size_t i = 0; i < recordings.size(); ++i) {
            rec_ptrs[i] = &recordings[i];
            idx_ptrs[i] = indexes[i].get();
        }
        SpanScope s(tracer, "speculation.runSweepCells", sweep_span.id(),
                    rid);
        runSweepCells(grid, rec_ptrs, idx_ptrs, &out.cells, nullptr, jobs);
        out.cellsRun = out.cells.size();
    }

    // ------------------------------------------------ layer numbers
    auto &v = *sample;
    const double pass_s = tracer.total(pass_span, rid);
    const double item_mean =
        tracer.total("harness.stage1_item", rid) / static_cast<double>(num_w);
    v["harness.stage1_straggler_ratio"] =
        item_mean > 0.0 ? tracer.longest("harness.stage1_item", rid) /
                              item_mean
                        : 0.0;
    if (!from_traces) {
        v["tracegen.pass_s"] = pass_s;
        v["tracegen.instrs"] = static_cast<double>(pass_instrs.load());
        v["tracegen.minstr_per_s"] =
            pass_s > 0.0 ? pass_instrs.load() / pass_s / 1e6 : 0.0;
    }
    v["dataspec.mem_accesses"] = static_cast<double>(mem_accesses.load());
    v["dataspec.conflict_profile_s"] =
        tracer.total("dataspec.profileConflicts", rid);
    v["dataspec.annotate_s"] = tracer.total("dataspec.annotateConflicts", rid);

    const uint64_t replayed =
        replayed_instrs.load() + (from_traces ? pass_instrs.load() : 0);
    const double replay_s = tracer.total("trace_io.interleaveReplay", rid) +
                            (from_traces ? pass_s : 0.0);
    v["trace_io.replay_s"] = replay_s;
    v["trace_io.replay_minstr_per_s"] =
        replay_s > 0.0 ? replayed / replay_s / 1e6 : 0.0;
    v["trace_io.bytes_read"] = static_cast<double>(bytes_read);
    v["loop.recordings"] =
        cells ? static_cast<double>(
                    num_w * ((derive_cls ? num_c - 1 : 0) + from_traces))
              : 0.0;

    uint64_t verified = 0, squashed = 0, conflict_sq = 0, misses = 0;
    uint64_t events = 0;
    for (const SweepCell &cell : out.cells) {
        verified += cell.stats.threadsVerified;
        squashed += cell.stats.threadsSquashed;
        conflict_sq += cell.stats.conflictSquashes;
        misses += cell.stats.dataMisses;
        events += recordings[cell.workloadIdx * num_c + cell.clsIdx]
                      .events.size();
    }
    v["dataspec.conflict_squashes"] = static_cast<double>(conflict_sq);
    v["dataspec.data_misses"] = static_cast<double>(misses);
    // Sums for callers that add several sweeps up (not printed).
    v["speculation.events"] = static_cast<double>(events);
    v["speculation.threads_verified"] = static_cast<double>(verified);
    v["speculation.threads_squashed"] = static_cast<double>(squashed);
    v["speculation.threads_verified_frac"] =
        verified + squashed
            ? static_cast<double>(verified) / (verified + squashed)
            : 0.0;
    v["speculation.index_s"] = tracer.total("speculation.RecordingIndex", rid);
    const double cells_s = tracer.total("speculation.runSweepCells", rid);
    v["speculation.cells_s"] = cells_s;
    v["speculation.cells"] = static_cast<double>(out.cells.size());
    v["speculation.ns_per_event"] = events ? cells_s * 1e9 / events : 0.0;
    return out;
}

} // namespace perfbench
