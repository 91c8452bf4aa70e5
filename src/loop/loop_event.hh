/**
 * @file
 * Loop event vocabulary emitted by the LoopDetector (paper §2.1: loop
 * executions and loop iterations) and the listener interface consumers
 * implement (statistics, LET/LIT models, speculation, data profiling).
 */

#ifndef LOOPSPEC_LOOP_LOOP_EVENT_HH
#define LOOPSPEC_LOOP_LOOP_EVENT_HH

#include <cstdint>

#include "tracegen/dyn_instr.hh"

namespace loopspec
{

/** Why a loop execution left the CLS. */
enum class ExecEndReason : uint8_t
{
    Close,      //!< not-taken closing branch at B (normal termination)
    Exit,       //!< taken branch/jump from inside the body to outside
    Return,     //!< return instruction inside the body
    OuterClose, //!< popped because an outer loop closed an iteration
    OuterEnd,   //!< popped because an outer loop execution terminated
    Overflow,   //!< lost as the deepest entry on CLS overflow
    Flush,      //!< periodic CLS flush (§2.2's setjmp safety valve)
    TraceEnd,   //!< still live when the trace ended (flush)
};

/** Printable name of an ExecEndReason. */
const char *execEndReasonName(ExecEndReason reason);

/**
 * A loop execution was detected: the first taken backward transfer to T.
 * By the paper's definitions this instant is simultaneously the end of the
 * (undetectable) first iteration and the start of iteration 2; an
 * IterStart with iterIndex == 2 follows immediately.
 */
struct ExecStartEvent
{
    uint64_t pos;      //!< retire seq of the detecting backward transfer
    uint64_t execId;   //!< unique id of this execution
    uint32_t loop;     //!< loop identifier T (target address)
    uint32_t branchAddr; //!< address of the detecting transfer (initial B)
    uint32_t depth;    //!< CLS depth after push, 1-based
    uint64_t parentExecId; //!< execId of the enclosing CLS entry, or 0
};

/** An iteration boundary of a detected loop execution. */
struct IterEvent
{
    uint64_t pos;    //!< retire seq of the closing/opening transfer
    uint64_t execId;
    uint32_t loop;
    uint32_t iterIndex; //!< 1-based; first observable start has index 2
    uint32_t depth;     //!< CLS depth of this loop at the event, 1-based
};

/** A loop execution terminated (or was lost). */
struct ExecEndEvent
{
    uint64_t pos;
    uint64_t execId;
    uint32_t loop;
    uint32_t iterCount; //!< iterations started, including the first
    ExecEndReason reason;
};

/**
 * A single-iteration loop execution: a not-taken backward branch whose
 * target is not in the CLS (§2.2: "a loop with only one iteration has
 * been executed"). Such executions are never live in the CLS and are
 * invisible to the speculation engine, but they count in statistics.
 */
struct SingleIterExecEvent
{
    uint64_t pos;
    uint32_t loop;
    uint32_t branchAddr;
    uint32_t depth; //!< CLS depth + 1 (where it would have lived)
};

/**
 * Consumer interface for the detector's event stream. onInstr is called
 * for every retired instruction *before* any loop events that instruction
 * triggers, so instruction counts attribute closing branches to the
 * iteration they terminate.
 *
 * When the detector itself is fed in batches it forwards instructions as
 * *spans* (onInstrSpan): maximal runs guaranteed not to straddle a loop
 * event, flushed immediately before the event that ends them. The default
 * span implementation forwards to onInstr, preserving the per-instruction
 * contract; listeners whose per-instruction work is an aggregate (e.g.
 * counters) override it to pay one virtual call per span.
 */
class LoopListener
{
  public:
    virtual ~LoopListener() = default;

    /**
     * Does this listener consume per-instruction data? Event-only
     * listeners (the LET/LIT meters, the event recorder) return false
     * and are skipped by the detector's instruction forwarding on both
     * paths — a listener that returns false must not override onInstr or
     * onInstrSpan, as neither will be delivered.
     */
    virtual bool consumesInstrs() const { return true; }

    /**
     * Does onInstrSpan dereference the span records, or only use the
     * count? Aggregate listeners (the Table-1/Fig-4 statistics, the
     * ideal-TPC model) override this to false; the detector's SoA hot
     * path then forwards spans as (nullptr, count) without ever
     * materialising DynInstr records — the count and the event stream
     * carry everything such listeners observe. A listener returning
     * false must override onInstrSpan and must not touch @p instrs.
     */
    virtual bool readsSpanRecords() const { return true; }

    /** Listeners with loop-keyed state (the LET/LIT table models)
     *  return true to receive prefetchLoop() hints from batch-driven
     *  producers. Default off: a virtual call per control transfer is
     *  only worth issuing where there are lines to warm. */
    virtual bool wantsPrefetchHints() const { return false; }

    /**
     * Hint, never semantics: a control transfer targeting @p loop is
     * about to dispatch, so any set lines keyed by it are worth
     * warming now — the producer still has span/CLS work to overlap
     * with the loads. Must have no observable effect.
     */
    virtual void prefetchLoop(uint32_t loop) { (void)loop; }

    virtual void onInstr(const DynInstr &instr) { (void)instr; }

    /** A run of consecutive instructions with no loop event between
     *  them; any event triggered by the last one follows the call. */
    virtual void
    onInstrSpan(const DynInstr *instrs, size_t count)
    {
        for (size_t i = 0; i < count; ++i)
            onInstr(instrs[i]);
    }

    /**
     * The same span delivered from an SoA batch with cold planes:
     * records [begin, begin + count) of @p batch. Only listeners that
     * read span records receive it (from the detector's SoA hot walk).
     * The default materializes just this span and forwards it to
     * onInstrSpan; a listener that reads the planes directly overrides
     * it and never builds a DynInstr.
     */
    virtual void onInstrSpanSoA(const SoaBatch &batch, size_t begin,
                                size_t count);
    virtual void onExecStart(const ExecStartEvent &ev) { (void)ev; }
    virtual void onIterStart(const IterEvent &ev) { (void)ev; }
    virtual void onIterEnd(const IterEvent &ev) { (void)ev; }
    virtual void onExecEnd(const ExecEndEvent &ev) { (void)ev; }
    virtual void onSingleIterExec(const SingleIterExecEvent &ev)
    {
        (void)ev;
    }
    virtual void onTraceDone(uint64_t total_instrs) { (void)total_instrs; }
};

} // namespace loopspec

#endif // LOOPSPEC_LOOP_LOOP_EVENT_HH
