/**
 * @file
 * Compact recording of the loop-event stream for the thread-speculation
 * simulator. The simulator is event driven (it never re-walks individual
 * instructions), so one trace pass yields a recording that can be re-used
 * across every policy / TU-count configuration — the experimental sweeps
 * of Figures 6 and 7 run off a single execution per workload.
 *
 * Positions are expressed as *boundaries*: the trace position just after
 * the triggering instruction retires, i.e. the index of the first
 * instruction of the newly started iteration.
 */

#ifndef LOOPSPEC_SPECULATION_EVENT_RECORD_HH
#define LOOPSPEC_SPECULATION_EVENT_RECORD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "loop/loop_event.hh"

namespace loopspec
{

/** One detected loop execution, with all its iteration boundaries. */
struct ExecRecord
{
    uint64_t execId = 0;
    uint32_t loop = 0;
    uint32_t branchAddr = 0; //!< detecting transfer's address (initial B)
    uint32_t depth = 0;
    uint64_t parentExecId = 0;
    uint64_t endBoundary = 0;
    uint32_t iterCount = 0; //!< started iterations incl. the first
    ExecEndReason endReason = ExecEndReason::Close;
    /**
     * iterBoundaries[j-2] = first trace position of iteration j, for
     * j = 2..iterCount. Iteration j's segment is
     * [iterBoundaries[j-2], iterBoundaries[j-1]) with the last segment
     * closed by endBoundary.
     */
    std::vector<uint64_t> iterBoundaries;

    /**
     * Optional conflict annotation (annotateConflicts): iterDepSrc[j-2]
     * is the largest iteration index whose store feeds a load of
     * iteration j (0 = none). A thread spawned at front iteration f
     * violates on iteration j iff iterDepSrc[j-2] >= f. Derived
     * (compareRecordings ignores it).
     */
    std::vector<uint32_t> iterDepSrc;

    /**
     * Optional registers-only live-in annotation (mergeDataCorrectness):
     * iterLiveInOk[j-2] says whether every live-in *register* of
     * iteration j was stride predictable — the LiveIns and Full data
     * modes' misprediction source. Empty = not annotated (those modes
     * then treat every iteration as mispredicted). Derived.
     */
    std::vector<bool> iterLiveInOk;

    /** Segment of iteration @p j (2-based); iteration must exist. */
    std::pair<uint64_t, uint64_t> iterSegment(uint32_t j) const;
};

/** Event kinds the simulator consumes. */
enum class SimEventKind : uint8_t
{
    IterStart, //!< iteration @p iterIndex of @p execIdx begins
    ExecEnd,   //!< execution @p execIdx terminates
};

/** One simulator event, in trace order. */
struct SimEvent
{
    uint64_t boundary;
    uint32_t execIdx; //!< index into LoopEventRecording::execs
    uint32_t iterIndex;
    SimEventKind kind;
};

/** Kinds of the replayable loop-event stream (all five detector
 *  callbacks, in emission order). */
enum class LoopEventKind : uint8_t
{
    ExecStart,
    IterStart,
    IterEnd,
    ExecEnd,
    SingleIter,
};

/**
 * One recorded loop event (32 bytes — the recorder appends one per
 * event on the hot path). Together with the ExecRecords, the stream
 * reconstructs the original ExecStartEvent / IterEvent / ExecEndEvent /
 * SingleIterExecEvent sequence exactly: ExecStart events pair 1:1, in
 * order, with LoopEventRecording::execs, which carry the branchAddr and
 * parentExecId. Field use by kind:
 *   ExecStart:  pos execId loop depth (rest from the ExecRecord)
 *   IterStart/IterEnd: pos execId loop aux(=iterIndex) depth
 *   ExecEnd:    pos execId loop aux(=iterCount) reason
 *   SingleIter: pos loop aux(=branchAddr) depth
 */
struct LoopEventRec
{
    uint64_t pos = 0;
    uint64_t execId = 0;
    uint32_t loop = 0;
    uint32_t aux = 0;
    uint32_t depth = 0;
    LoopEventKind kind = LoopEventKind::ExecStart;
    ExecEndReason reason = ExecEndReason::Close;
};

/** The full recording of one trace. */
struct LoopEventRecording
{
    uint64_t totalInstrs = 0;
    std::vector<ExecRecord> execs;
    std::vector<SimEvent> events;
    /** Replayable event stream (see replayLoopEvents). */
    std::vector<LoopEventRec> loopEvents;

    /** Heap footprint including per-exec sidecars — the recording
     *  cache's accounting hook. */
    size_t
    memoryBytes() const
    {
        size_t bytes = execs.capacity() * sizeof(ExecRecord) +
                       events.capacity() * sizeof(SimEvent) +
                       loopEvents.capacity() * sizeof(LoopEventRec);
        for (const ExecRecord &e : execs) {
            bytes += e.iterBoundaries.capacity() * sizeof(uint64_t);
            bytes += e.iterDepSrc.capacity() * sizeof(uint32_t);
            bytes += e.iterLiveInOk.capacity() / 8;
        }
        return bytes;
    }
};

/**
 * Rebuild the derived views of a recording — the simulator's SimEvent
 * stream and each ExecRecord's iterBoundaries / endBoundary / iterCount /
 * endReason — from the loopEvents stream. Requires rec.totalInstrs and
 * rec.execs to be populated with one record per ExecStart event, in
 * order, carrying the non-derivable fields (execId, loop, branchAddr,
 * depth, parentExecId); everything derived is recomputed from scratch.
 *
 * The recorder runs this in onTraceDone (an error there is an internal
 * bug → panic). Structural inconsistencies (events for unknown
 * executions, executions left open, out-of-range kinds) come back as a
 * diagnostic string — "" on success — never as UB or an abort.
 */
std::string deriveRecordingEvents(LoopEventRecording &rec);

/**
 * Replay the recorded loop-event stream into @p listeners in emission
 * order, finishing with onTraceDone. Per-instruction callbacks are not
 * replayed: this derives every artifact that consumes loop events only
 * (the LET/LIT hit meters of Figure 4, nest-aware replacement ablations)
 * from one functional pass, bit-identically to a live pass.
 */
void replayLoopEvents(const LoopEventRecording &recording,
                      const std::vector<LoopListener *> &listeners);

/**
 * Field-by-field comparison of two recordings (loop-event stream, exec
 * records with their iteration boundaries, sim events, total length):
 * "" when identical, else a one-line description of the first
 * difference. The shared oracle behind the fuzz harness's re-recording
 * check and the sweep engine's --check-replay of derived recordings.
 * Annotations (iterDepSrc, iterLiveInOk) are not compared —
 * they come from separate merge steps, not from recording.
 */
std::string compareRecordings(const LoopEventRecording &a,
                              const LoopEventRecording &b);

class DataSpecProfiler; // forward: see dataspec/data_profiler.hh

/**
 * Copy the profiler's per-iteration all-live-in-registers-predicted
 * flags into a recording's ExecRecords as iterLiveInOk, the LiveIns and
 * Full modes' source (profiler must have run with recordPerIteration
 * over the same trace).
 */
void mergeDataCorrectness(LoopEventRecording &recording,
                          const DataSpecProfiler &profiler);

/**
 * LoopListener building a LoopEventRecording. Attach to a LoopDetector,
 * run the trace, then take() the result.
 *
 * Hot-path cost is one 32-byte append per loop event (plus one
 * ExecRecord per detected execution); the simulator's SimEvent stream
 * and the per-execution iteration boundaries are derived from the event
 * stream in onTraceDone.
 */
class LoopEventRecorder : public LoopListener
{
  public:
    /** Event-driven only: instruction data carries no information. */
    bool consumesInstrs() const override { return false; }
    void onExecStart(const ExecStartEvent &ev) override;
    void onIterStart(const IterEvent &ev) override;
    void onIterEnd(const IterEvent &ev) override;
    void onExecEnd(const ExecEndEvent &ev) override;
    void onSingleIterExec(const SingleIterExecEvent &ev) override;
    void onTraceDone(uint64_t total_instrs) override;

    /** Move the finished recording out (valid after onTraceDone). */
    LoopEventRecording take();

  private:
    LoopEventRecording rec;
    bool done = false;
};

} // namespace loopspec

#endif // LOOPSPEC_SPECULATION_EVENT_RECORD_HH
