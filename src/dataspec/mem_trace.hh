/**
 * @file
 * Memory-access sidecar of one functional pass (docs/DATASPEC.md).
 *
 * The ControlTrace deliberately carries no operand values, so a replay
 * pass cannot see addresses — and the conflict profiler needs them. The
 * MemAccessTrace closes that gap: a compact, CLS-independent record of
 * every retired load and store (retire seq, static PC, effective
 * address), captured once on the functional pass by MemTraceRecorder.
 * Conflict profiles at *any* CLS are then a pure function of
 * (LoopEventRecording at that CLS, MemAccessTrace) — see
 * dataspec/conflict_profiler.hh — which keeps sweeps one-functional-pass
 * and makes the artifact cacheable next to recordings in sweepd.
 */

#ifndef LOOPSPEC_DATASPEC_MEM_TRACE_HH
#define LOOPSPEC_DATASPEC_MEM_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tracegen/dyn_instr.hh"

namespace loopspec
{

/** One retired load or store (24 bytes; appended on the hot path). */
struct MemAccess
{
    uint64_t seq = 0;  //!< retire index of the instruction
    uint64_t addr = 0; //!< effective byte address
    uint32_t pc = 0;   //!< static instruction address
    bool isStore = false;
};

static_assert(sizeof(MemAccess) == 24, "MemAccess must stay 24 bytes");

/** The full memory-access stream of one trace, in retire order. */
struct MemAccessTrace
{
    uint64_t totalInstrs = 0;
    std::vector<MemAccess> accesses;

    /** Heap footprint — the recording cache's accounting hook. */
    size_t
    memoryBytes() const
    {
        return accesses.capacity() * sizeof(MemAccess);
    }

    /** FNV-1a over the access stream; the DiffChecker's cross-path
     *  equivalence token. */
    uint64_t stateHash() const;
};

/**
 * TraceObserver recording the memory-access sidecar. Attach next to the
 * detector on the functional pass, then take() the result after the
 * trace ends. On the engine's SoA path it reads the cold planes
 * directly — the load/store shape and PC from the per-instruction
 * prototype, the address from the memAddr plane — so its FullRecords
 * need only makes the engine fill those planes; no AoS record is built.
 */
class MemTraceRecorder : public TraceObserver
{
  public:
    void onInstr(const DynInstr &d) override;
    void onInstrBatchSoA(const SoaBatch &batch) override;
    void onTraceEnd(uint64_t total_instrs) override;

    /** Move the finished trace out (valid after onTraceEnd). */
    MemAccessTrace take();

  private:
    MemAccessTrace trace;
    bool done = false;
};

} // namespace loopspec

#endif // LOOPSPEC_DATASPEC_MEM_TRACE_HH
