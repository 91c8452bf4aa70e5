#include "speculation/event_record.hh"

#include <algorithm>

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

uint32_t
LoopEventRecorder::liveIndex(uint64_t exec_id) const
{
    const uint32_t idx =
        exec_id < execIndex.size() ? execIndex[exec_id] : UINT32_MAX;
    LOOPSPEC_ASSERT(idx != UINT32_MAX, "event for an execution not live");
    return idx;
}

void
LoopEventRecorder::onExecStart(const ExecStartEvent &ev)
{
    if (ev.execId >= execIndex.size())
        execIndex.resize(ev.execId + 1, UINT32_MAX);
    LOOPSPEC_ASSERT(execIndex[ev.execId] == UINT32_MAX,
                    "execution started twice");
    execIndex[ev.execId] = static_cast<uint32_t>(rec.execs.size());
    ++liveExecs;
    ExecRecord r;
    r.execId = ev.execId;
    r.loop = ev.loop;
    r.branchAddr = ev.branchAddr;
    r.depth = ev.depth;
    r.parentExecId = ev.parentExecId;
    rec.execs.push_back(std::move(r));
}

void
LoopEventRecorder::onIterStart(const IterEvent &ev)
{
    const uint32_t idx = liveIndex(ev.execId);
    const uint64_t boundary = ev.pos + 1;
    rec.execs[idx].iterBoundaries.push_back(boundary);
    rec.events.push_back(
        {boundary, idx, ev.iterIndex, SimEventKind::IterStart});
}

void
LoopEventRecorder::onExecEnd(const ExecEndEvent &ev)
{
    const uint32_t idx = liveIndex(ev.execId);
    ExecRecord &r = rec.execs[idx];
    r.endBoundary = ev.pos + 1;
    r.iterCount = ev.iterCount;
    r.endReason = ev.reason;
    rec.events.push_back(
        {r.endBoundary, idx, ev.iterCount, SimEventKind::ExecEnd});
    execIndex[ev.execId] = UINT32_MAX;
    --liveExecs;
}

void
LoopEventRecorder::onTraceDone(uint64_t total_instrs)
{
    LOOPSPEC_ASSERT(!done, "onTraceDone twice");
    LOOPSPEC_ASSERT(liveExecs == 0,
                    "executions still open at trace end (missing flush?)");
    done = true;
    rec.totalInstrs = total_instrs;
    // The detector's trace-end flush reports positions one past the
    // last retired instruction; clamp all boundaries into
    // [0, totalInstrs].
    for (SimEvent &e : rec.events)
        e.boundary = std::min(e.boundary, total_instrs);
    for (ExecRecord &x : rec.execs) {
        x.endBoundary = std::min(x.endBoundary, total_instrs);
        for (uint64_t &b : x.iterBoundaries)
            b = std::min(b, total_instrs);
    }
    // A recording outlives its pass (sweepd caches it): drop the
    // growth slack of the two big arrays.
    rec.events.shrink_to_fit();
    rec.execs.shrink_to_fit();
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

} // namespace loopspec
