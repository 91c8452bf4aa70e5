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
    for (size_t i = 0; i < batch.count; ++i)
        onInstr(batch.materialize(i));
}

} // namespace loopspec
