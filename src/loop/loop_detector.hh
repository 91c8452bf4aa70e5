/**
 * @file
 * Dynamic loop detection (paper §2.2): drives the CurrentLoopStack from
 * the retired instruction stream and emits loop execution/iteration events
 * to registered LoopListeners.
 */

#ifndef LOOPSPEC_LOOP_LOOP_DETECTOR_HH
#define LOOPSPEC_LOOP_LOOP_DETECTOR_HH

#include <cstdint>
#include <vector>

#include "loop/cls.hh"
#include "loop/loop_event.hh"
#include "tracegen/dyn_instr.hh"

namespace loopspec
{

/** LoopDetector configuration. */
struct DetectorConfig
{
    /** CLS entries; the paper uses 16 ("enough for the SPEC95"). */
    size_t clsEntries = 16;

    /**
     * Flush the CLS every this many retired instructions (0 = never).
     * The paper's safety valve for loops stranded by never-returning
     * calls (setjmp/longjmp): "such situation could be handled by
     * periodically flushing the contents of the CLS" (§2.2). SPEC95
     * never needs it; pathological control flow might.
     */
    uint64_t flushInterval = 0;
};

/**
 * Implements the full CLS update algorithm:
 *
 *  - a taken backward branch/jump to T not in the CLS pushes (T, PC);
 *    on a full CLS the deepest entry is dropped first;
 *  - a taken backward branch/jump to T in the CLS at entry i closes an
 *    iteration: entries above i pop (their executions end), B is raised
 *    to PC if higher, and a new iteration of T begins;
 *  - a not-taken backward branch to T in the CLS with B <= PC terminates
 *    both the iteration and the execution of T (entries above pop too);
 *  - a not-taken backward branch to T not in the CLS is a completed
 *    single-iteration execution;
 *  - any taken branch or jump (never a call) whose PC lies inside a CLS
 *    entry's body [T,B] and whose target lies outside it removes that
 *    entry (loop exit) — including middle entries for overlapped loops;
 *  - a return whose PC lies inside an entry's body removes that entry;
 *  - at trace end, remaining entries are flushed with reason TraceEnd.
 *
 * The detector is a TraceObserver: attach it to a TraceEngine and attach
 * LoopListeners to it.
 */
class LoopDetector : public TraceObserver
{
  public:
    explicit LoopDetector(DetectorConfig config = {});

    /** Attach a listener; not owned; order of attach = order of calls. */
    void addListener(LoopListener *listener);

    // TraceObserver interface. The batch path forwards instructions to
    // listeners as spans (LoopListener::onInstrSpan/onInstrSpanSoA) that
    // never straddle a loop event, so listeners observe the exact
    // per-instruction order of the scalar path at a fraction of the
    // virtual-dispatch cost.
    void onInstr(const DynInstr &instr) override;
    /** Batch path: walks the control index over the hot planes with
     *  the next control record (and the LET/LIT-style listeners' table
     *  lines) prefetched. Count-only listeners get spans as (nullptr,
     *  count); record readers get them as (batch, begin, count) via
     *  LoopListener::onInstrSpanSoA. Only an armed periodic flush
     *  falls back to the materializing shim (onInstr per record). */
    void onInstrBatchSoA(const SoaBatch &batch) override;
    /** HotPlanes unless a listener reads span records (they need the
     *  cold planes) or flushInterval forces scalar dispatch. */
    BatchNeed batchNeed() const override;
    void onTraceEnd(uint64_t total_instrs) override;

    /** Expose the CLS for tests and inspection tools. */
    const CurrentLoopStack &cls() const { return stack; }

    /** Total executions detected (pushes), not counting single-iteration
     *  executions. */
    uint64_t executionsDetected() const { return nextExecId - 1; }

  private:
    void emitExecStart(const ExecStartEvent &ev);
    void emitIterStart(const IterEvent &ev);
    void emitIterEnd(const IterEvent &ev);
    void emitExecEnd(const ExecEndEvent &ev);
    void emitSingleIter(const SingleIterExecEvent &ev);

    /** End the execution at CLS index i with @p reason (does not touch
     *  other entries). */
    void endExecutionAt(size_t i, uint64_t pos, ExecEndReason reason);

    /** Pop all entries strictly above index i, innermost first. */
    void popAbove(size_t i, uint64_t pos, ExecEndReason reason);

    void handleTakenTransfer(const DynInstr &d);
    void handleNotTakenBackward(const DynInstr &d);
    void handleReturn(const DynInstr &d);

    /** CLS update for one instruction (shared by both observer paths);
     *  the caller has already forwarded @p d to the listeners. Reads
     *  only the hot fields (seq, pc, target, kind, taken). */
    void dispatch(const DynInstr &d);

    /** Flush the periodic-CLS-flush safety valve at position @p pos. */
    void maybePeriodicFlush(uint64_t pos);

    /** Forward span [begin, begin + count) of an SoA batch: as a count
     *  to count-only listeners, as planes to record readers. */
    void flushSpanSoA(const SoaBatch &batch, size_t begin, size_t count);

    CurrentLoopStack stack;
    DetectorConfig cfg;
    std::vector<LoopListener *> listeners;
    /** Subset of listeners with consumesInstrs(): the only ones that
     *  receive onInstr/onInstrSpan. */
    std::vector<LoopListener *> instrListeners;
    /** Subset of listeners with wantsPrefetchHints(): warmed right
     *  before a CLS-changing transfer dispatches. */
    std::vector<LoopListener *> prefetchListeners;
    /** Per instrListeners entry: does it dereference span records? */
    std::vector<bool> instrReadsRecords;
    /** True when some instruction listener dereferences span records —
     *  the SoA deliveries then carry cold planes. */
    bool spanRecordsNeeded = false;
    uint64_t nextExecId = 1;
    uint64_t sinceFlush = 0;
    bool flushed = false;
};

} // namespace loopspec

#endif // LOOPSPEC_LOOP_LOOP_DETECTOR_HH
