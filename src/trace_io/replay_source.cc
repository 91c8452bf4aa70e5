#include "trace_io/replay_source.hh"

#include "util/logging.hh"

namespace loopspec
{

ControlTraceSource::ControlTraceSource(const ControlTrace &trace,
                                       TraceObserver &observer,
                                       uint64_t max_instrs,
                                       size_t batch_instrs)
    : trace(trace),
      synth(observer, trace.totalInstrs, max_instrs, batch_instrs)
{
}

bool
ControlTraceSource::pump(uint64_t chunk_instrs)
{
    LOOPSPEC_ASSERT(!done, "pump() after completion");
    uint64_t pos = synth.position();
    uint64_t goal = synth.windowEnd();
    if (chunk_instrs < goal - pos)
        goal = pos + chunk_instrs;
    while (synth.position() < goal) {
        if (next >= trace.transfers.size() ||
            !synth.feed(trace.transfers[next])) {
            // No remaining transfer can advance the replay: synthesize
            // the trailing gap and deliver onTraceEnd, exactly like
            // replayControlTrace's epilogue.
            total = synth.finish();
            done = true;
            return false;
        }
        ++next;
    }
    if (synth.position() >= synth.windowEnd()) {
        // Window filled mid-stream (max_instrs truncation): remaining
        // transfers are ignored, as in sequential replay.
        total = synth.finish();
        done = true;
        return false;
    }
    return true;
}

StreamedControlSource::StreamedControlSource(TraceFileStreamer &streamer,
                                             TraceObserver &observer,
                                             uint64_t max_instrs)
    : pumpImpl(streamer.openControlPump(observer, max_instrs))
{
}

bool
StreamedControlSource::pump(uint64_t chunk_instrs)
{
    LOOPSPEC_ASSERT(!done, "pump() after completion");
    if (pumpImpl->pump(chunk_instrs))
        return true;
    err = pumpImpl->error();
    done = true;
    return false;
}

uint64_t
StreamedControlSource::position() const
{
    return pumpImpl->position();
}

std::string
interleaveReplay(const std::vector<ReplaySource *> &sources,
                 uint64_t chunk_instrs)
{
    LOOPSPEC_ASSERT(chunk_instrs >= 1, "chunk_instrs must be >= 1");
    std::string first_err;
    std::vector<bool> live(sources.size(), true);
    size_t remaining = sources.size();
    while (remaining) {
        for (size_t i = 0; i < sources.size(); ++i) {
            if (!live[i])
                continue;
            if (!sources[i]->pump(chunk_instrs)) {
                live[i] = false;
                --remaining;
                if (first_err.empty())
                    first_err = sources[i]->error();
            }
        }
    }
    return first_err;
}

} // namespace loopspec
