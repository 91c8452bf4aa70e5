#include "speculation/event_record.hh"

#include "dataspec/data_profiler.hh"
#include "util/logging.hh"

namespace loopspec
{

void
mergeDataCorrectness(LoopEventRecording &recording,
                     const DataSpecProfiler &profiler)
{
    const auto &reg_flags = profiler.perIterationLiveInOk();
    for (auto &x : recording.execs) {
        auto rit = reg_flags.find(x.execId);
        if (rit != reg_flags.end())
            x.iterLiveInOk = rit->second;
    }
}

std::pair<uint64_t, uint64_t>
ExecRecord::iterSegment(uint32_t j) const
{
    LOOPSPEC_ASSERT(j >= 2 && j <= iterCount, "iteration out of range");
    uint64_t start = iterBoundaries[j - 2];
    uint64_t end =
        (j < iterCount) ? iterBoundaries[j - 1] : endBoundary;
    return {start, end};
}

void
LoopEventRecorder::onExecStart(const ExecStartEvent &ev)
{
    ExecRecord r;
    r.execId = ev.execId;
    r.loop = ev.loop;
    r.branchAddr = ev.branchAddr;
    r.depth = ev.depth;
    r.parentExecId = ev.parentExecId;
    rec.execs.push_back(std::move(r));
    rec.loopEvents.push_back({ev.pos, ev.execId, ev.loop, 0, ev.depth,
                              LoopEventKind::ExecStart,
                              ExecEndReason::Close});
}

void
LoopEventRecorder::onIterStart(const IterEvent &ev)
{
    rec.loopEvents.push_back({ev.pos, ev.execId, ev.loop, ev.iterIndex,
                              ev.depth, LoopEventKind::IterStart,
                              ExecEndReason::Close});
}

void
LoopEventRecorder::onIterEnd(const IterEvent &ev)
{
    rec.loopEvents.push_back({ev.pos, ev.execId, ev.loop, ev.iterIndex,
                              ev.depth, LoopEventKind::IterEnd,
                              ExecEndReason::Close});
}

void
LoopEventRecorder::onExecEnd(const ExecEndEvent &ev)
{
    rec.loopEvents.push_back({ev.pos, ev.execId, ev.loop, ev.iterCount,
                              0, LoopEventKind::ExecEnd, ev.reason});
}

void
LoopEventRecorder::onSingleIterExec(const SingleIterExecEvent &ev)
{
    rec.loopEvents.push_back({ev.pos, 0, ev.loop, ev.branchAddr,
                              ev.depth, LoopEventKind::SingleIter,
                              ExecEndReason::Close});
}

std::string
deriveRecordingEvents(LoopEventRecording &rec)
{
    // Derive the simulator's SimEvent stream and the per-execution
    // boundaries from the recorded events (bulk pass, off the per-event
    // hot path). Exec ids are allocated densely by the detector starting
    // at 1, so a flat vector indexes the live executions; anything a
    // well-formed stream can't contain is a diagnostic, not an assert,
    // so hand-built recordings (tests) get a message, not an abort.
    rec.events.clear();
    rec.events.reserve(rec.loopEvents.size() / 2);
    for (ExecRecord &x : rec.execs) {
        x.iterBoundaries.clear();
        x.endBoundary = 0;
        x.iterCount = 0;
        x.endReason = ExecEndReason::Close;
    }
    std::vector<uint32_t> exec_index(rec.execs.size() + 1,
                                     UINT32_MAX); //!< execId -> idx
    size_t live_execs = 0;
    uint32_t next_exec = 0;
    auto find_exec = [&](uint64_t exec_id) -> uint32_t {
        return exec_id < exec_index.size() ? exec_index[exec_id]
                                           : UINT32_MAX;
    };
    for (const LoopEventRec &e : rec.loopEvents) {
        switch (e.kind) {
          case LoopEventKind::ExecStart: {
            if (next_exec >= rec.execs.size())
                return "more ExecStart events than exec records";
            if (e.execId >= exec_index.size())
                return strprintf("exec id %llu out of range",
                                 (unsigned long long)e.execId);
            exec_index[e.execId] = next_exec++;
            ++live_execs;
            break;
          }
          case LoopEventKind::IterStart: {
            uint32_t idx = find_exec(e.execId);
            if (idx == UINT32_MAX)
                return "IterStart for unknown exec";
            uint64_t boundary = e.pos + 1;
            rec.execs[idx].iterBoundaries.push_back(boundary);
            rec.events.push_back(
                {boundary, idx, e.aux, SimEventKind::IterStart});
            break;
          }
          case LoopEventKind::ExecEnd: {
            uint32_t idx = find_exec(e.execId);
            if (idx == UINT32_MAX)
                return "ExecEnd for unknown exec";
            ExecRecord &r = rec.execs[idx];
            r.endBoundary = e.pos + 1;
            r.iterCount = e.aux;
            r.endReason = e.reason;
            rec.events.push_back(
                {r.endBoundary, idx, e.aux, SimEventKind::ExecEnd});
            exec_index[e.execId] = UINT32_MAX;
            --live_execs;
            break;
          }
          case LoopEventKind::IterEnd:
          case LoopEventKind::SingleIter:
            break;
          default:
            return "bad loop event kind";
        }
    }
    if (next_exec != rec.execs.size())
        return "fewer ExecStart events than exec records";
    if (live_execs != 0)
        return "executions still open at trace end (missing flush?)";

    // The detector's flush reports positions one past the last retired
    // instruction; clamp all boundaries into [0, totalInstrs].
    for (auto &e : rec.events) {
        if (e.boundary > rec.totalInstrs)
            e.boundary = rec.totalInstrs;
    }
    for (auto &x : rec.execs) {
        if (x.endBoundary > rec.totalInstrs)
            x.endBoundary = rec.totalInstrs;
        for (auto &b : x.iterBoundaries) {
            if (b > rec.totalInstrs)
                b = rec.totalInstrs;
        }
    }
    return {};
}

void
LoopEventRecorder::onTraceDone(uint64_t total_instrs)
{
    LOOPSPEC_ASSERT(!done, "onTraceDone twice");
    done = true;
    rec.totalInstrs = total_instrs;
    std::string err = deriveRecordingEvents(rec);
    if (!err.empty())
        panic("recorded event stream inconsistent: %s", err.c_str());
}

LoopEventRecording
LoopEventRecorder::take()
{
    LOOPSPEC_ASSERT(done, "take() before onTraceDone");
    return std::move(rec);
}

std::string
compareRecordings(const LoopEventRecording &a,
                  const LoopEventRecording &b)
{
    if (a.totalInstrs != b.totalInstrs)
        return "recording totalInstrs differs";
    if (a.loopEvents.size() != b.loopEvents.size())
        return "recording loop-event count differs";
    for (size_t i = 0; i < a.loopEvents.size(); ++i) {
        const LoopEventRec &x = a.loopEvents[i];
        const LoopEventRec &y = b.loopEvents[i];
        if (x.pos != y.pos || x.execId != y.execId || x.loop != y.loop ||
            x.aux != y.aux || x.depth != y.depth || x.kind != y.kind ||
            x.reason != y.reason) {
            return strprintf("recording loop event %zu differs", i);
        }
    }
    if (a.execs.size() != b.execs.size())
        return "recording exec count differs";
    for (size_t i = 0; i < a.execs.size(); ++i) {
        const ExecRecord &x = a.execs[i];
        const ExecRecord &y = b.execs[i];
        if (x.execId != y.execId || x.loop != y.loop ||
            x.branchAddr != y.branchAddr || x.depth != y.depth ||
            x.parentExecId != y.parentExecId ||
            x.endBoundary != y.endBoundary ||
            x.iterCount != y.iterCount || x.endReason != y.endReason ||
            x.iterBoundaries != y.iterBoundaries) {
            return strprintf("recording exec record %zu differs", i);
        }
    }
    if (a.events.size() != b.events.size())
        return "recording sim-event count differs";
    for (size_t i = 0; i < a.events.size(); ++i) {
        const SimEvent &x = a.events[i];
        const SimEvent &y = b.events[i];
        if (x.boundary != y.boundary || x.execIdx != y.execIdx ||
            x.iterIndex != y.iterIndex || x.kind != y.kind)
            return strprintf("recording sim event %zu differs", i);
    }
    return {};
}

namespace
{

/** Deliver one recorded event to @p listeners; for ExecStart the caller
 *  supplies the ExecRecord fields the compact event omits. */
void
dispatchLoopEvent(const LoopEventRec &e, uint32_t branch_addr,
                  uint64_t parent_exec_id,
                  const std::vector<LoopListener *> &listeners)
{
    switch (e.kind) {
      case LoopEventKind::ExecStart: {
        ExecStartEvent ev{e.pos, e.execId, e.loop, branch_addr,
                          e.depth, parent_exec_id};
        for (auto *l : listeners)
            l->onExecStart(ev);
        break;
      }
      case LoopEventKind::IterStart: {
        IterEvent ev{e.pos, e.execId, e.loop, e.aux, e.depth};
        for (auto *l : listeners)
            l->onIterStart(ev);
        break;
      }
      case LoopEventKind::IterEnd: {
        IterEvent ev{e.pos, e.execId, e.loop, e.aux, e.depth};
        for (auto *l : listeners)
            l->onIterEnd(ev);
        break;
      }
      case LoopEventKind::ExecEnd: {
        ExecEndEvent ev{e.pos, e.execId, e.loop, e.aux, e.reason};
        for (auto *l : listeners)
            l->onExecEnd(ev);
        break;
      }
      case LoopEventKind::SingleIter: {
        SingleIterExecEvent ev{e.pos, e.loop, e.aux, e.depth};
        for (auto *l : listeners)
            l->onSingleIterExec(ev);
        break;
      }
      default:
        panic("bad LoopEventKind");
    }
}

} // namespace

void
replayLoopEvents(const LoopEventRecording &recording,
                 const std::vector<LoopListener *> &listeners)
{
    // ExecStart events pair 1:1, in order, with recording.execs — that
    // record supplies the fields the compact event stream omits.
    size_t next_exec = 0;
    for (const LoopEventRec &e : recording.loopEvents) {
        uint32_t branch_addr = 0;
        uint64_t parent_exec_id = 0;
        if (e.kind == LoopEventKind::ExecStart) {
            LOOPSPEC_ASSERT(next_exec < recording.execs.size(),
                            "more ExecStart events than ExecRecords");
            const ExecRecord &r = recording.execs[next_exec++];
            branch_addr = r.branchAddr;
            parent_exec_id = r.parentExecId;
        }
        dispatchLoopEvent(e, branch_addr, parent_exec_id, listeners);
    }
    for (auto *l : listeners)
        l->onTraceDone(recording.totalInstrs);
}

} // namespace loopspec
