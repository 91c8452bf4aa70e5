#include "dataspec/mem_trace.hh"

#include <utility>

#include "util/logging.hh"

namespace loopspec
{

uint64_t
MemAccessTrace::stateHash() const
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
    mix(totalInstrs);
    mix(accesses.size());
    for (const MemAccess &a : accesses) {
        mix(a.seq);
        mix(a.addr);
        mix(a.pc);
        mix(a.isStore ? 1u : 0u);
    }
    return h;
}

void
MemTraceRecorder::onInstr(const DynInstr &d)
{
    if (d.isLoad || d.isStore)
        trace.accesses.push_back({d.seq, d.memAddr, d.pc, d.isStore});
}

void
MemTraceRecorder::onInstrBatchSoA(const SoaBatch &b)
{
    LOOPSPEC_ASSERT(b.hasColdPlanes(),
                    "memory sidecar needs the SoA cold planes");
    for (size_t i = 0; i < b.count; ++i) {
        const DynInstr &t = b.templates[b.sidx[i]];
        if (t.isLoad || t.isStore) {
            trace.accesses.push_back(
                {b.seqBase + i, b.memAddr[i], t.pc, t.isStore});
        }
    }
}

void
MemTraceRecorder::onTraceEnd(uint64_t total_instrs)
{
    trace.totalInstrs = total_instrs;
    done = true;
}

MemAccessTrace
MemTraceRecorder::take()
{
    LOOPSPEC_ASSERT(done, "take() before onTraceEnd");
    return std::move(trace);
}

} // namespace loopspec
