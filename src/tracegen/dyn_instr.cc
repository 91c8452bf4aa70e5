#include "tracegen/dyn_instr.hh"

#include "util/logging.hh"

namespace loopspec
{

void
SoaBatch::materializeRange(size_t begin, size_t n, DynInstr *out) const
{
    LOOPSPEC_ASSERT(hasColdPlanes(),
                    "materializing a hot-only SoA batch");
    LOOPSPEC_ASSERT(begin + n <= count, "materialize range past batch");
    for (size_t i = 0; i < n; ++i)
        out[i] = materialize(begin + i);
}

void
TraceObserver::onInstrBatchSoA(const SoaBatch &batch)
{
    LOOPSPEC_ASSERT(batch.hasColdPlanes(),
                    "hot-only SoA delivery reached an observer that "
                    "never declared BatchNeed::HotPlanes");
    // Scratch is thread-local: the sweep harness replays on pool
    // threads, and one resize-and-reuse buffer per thread keeps the
    // shim allocation-free after the first batch.
    thread_local std::vector<DynInstr> scratch;
    if (scratch.size() < batch.count)
        scratch.resize(batch.count);
    batch.materializeAll(scratch.data());
    onInstrBatchCtrl(scratch.data(), batch.count, batch.ctrl,
                     batch.numCtrl);
}

} // namespace loopspec
